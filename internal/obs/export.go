package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// WritePrometheus renders all exportable metrics in the Prometheus text
// exposition format (version 0.0.4). Histograms are rendered as
// cumulative *_bucket series plus *_sum and *_count.
//
// Internally all duration histograms observe nanoseconds (the *_ns name
// suffix marks the unit). The Prometheus convention is base-unit seconds,
// so *_ns histograms are transformed at export time: the series is renamed
// *_seconds and le boundaries and the sum are divided by 1e9. Non-duration
// histograms (depths, counts) export their integer values unchanged.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeText(w, false)
}

// WriteOpenMetrics renders all exportable metrics in the OpenMetrics 1.0
// text format. It differs from WritePrometheus in three ways: counter
// families are declared by their base name (the _total suffix stays on
// the sample), histogram bucket lines carry exemplars — the most recent
// trace id per bucket, linking a bad latency bucket straight to its
// retained span tree in /debug/traces — and the body ends with # EOF.
// The same _ns → _seconds transform applies, including to exemplar
// values.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.writeText(w, true)
}

// writeText is the one text renderer behind both formats; openMetrics
// selects the three OpenMetrics differences.
func (r *Registry) writeText(w io.Writer, openMetrics bool) error {
	var lastName string
	for _, m := range r.Snapshot() {
		name := m.Name
		seconds := m.Kind == "histogram" && strings.HasSuffix(name, "_ns")
		if seconds {
			name = strings.TrimSuffix(name, "_ns") + "_seconds"
		}
		if m.Name != lastName {
			family := name
			if openMetrics && m.Kind == "counter" {
				family = strings.TrimSuffix(family, "_total")
			}
			if m.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", family, sanitizeHelp(m.Help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, m.Kind); err != nil {
				return err
			}
			lastName = m.Name
		}
		if m.Kind != "histogram" {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", name, promLabels(m.Labels, ""), m.Value); err != nil {
				return err
			}
			continue
		}
		if err := writeHistogram(w, name, m, seconds, openMetrics); err != nil {
			return err
		}
	}
	if !openMetrics {
		return nil
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func writeHistogram(w io.Writer, name string, m MetricSnapshot, seconds, exemplars bool) error {
	h := m.Histogram
	var cum uint64
	for _, b := range h.Buckets {
		cum += b.Count
		var ex string
		if exemplars {
			ex = omExemplar(b.Exemplar, seconds)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", name,
			promLabels(m.Labels, promBound(b.UpperBound, seconds)), cum, ex); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabelsInf(m.Labels), h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(m.Labels, ""), promValue(h.Sum, seconds)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(m.Labels, ""), h.Count)
	return err
}

// omExemplar renders the OpenMetrics exemplar suffix for one bucket line:
// ` # {trace_id="<id>"} <value> <unix seconds>`. The only label is the
// server-assigned trace id (leak budget: no request content).
func omExemplar(e *Exemplar, seconds bool) string {
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s %s",
		strconv.FormatUint(e.TraceID, 10),
		promValue(e.Value, seconds),
		strconv.FormatFloat(float64(e.TimeUnixMs)/1e3, 'f', 3, 64))
}

// promBound renders one le boundary: integer for native-unit histograms,
// float seconds for nanosecond histograms.
func promBound(bound uint64, seconds bool) string {
	if !seconds {
		return strconv.FormatUint(bound, 10)
	}
	return strconv.FormatFloat(float64(bound)/1e9, 'g', -1, 64)
}

// promValue renders a histogram sum in the export unit.
func promValue(v uint64, seconds bool) string {
	if !seconds {
		return strconv.FormatUint(v, 10)
	}
	return strconv.FormatFloat(float64(v)/1e9, 'g', -1, 64)
}

func promLabels(labels []Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "le=%q", le)
	}
	b.WriteByte('}')
	return b.String()
}

func promLabelsInf(labels []Label) string {
	var b strings.Builder
	b.WriteByte('{')
	for _, l := range labels {
		fmt.Fprintf(&b, "%s=%q,", l.Key, l.Value)
	}
	b.WriteString(`le="+Inf"}`)
	return b.String()
}

func sanitizeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// VarsSnapshot is the JSON body served at /debug/vars: the full metric
// state plus recorder health.
type VarsSnapshot struct {
	Timestamp      time.Time        `json:"timestamp"`
	Metrics        []MetricSnapshot `json:"metrics"`
	Violations     uint64           `json:"leakBudgetViolations"`
	TracesActive   int64            `json:"tracesActive,omitempty"`
	TracesDropped  uint64           `json:"tracesDropped,omitempty"`
	TracesExamined uint64           `json:"tracesExamined,omitempty"`
	TracesSampled  uint64           `json:"tracesSampled,omitempty"`
}

// Vars builds the /debug/vars snapshot. rec may be nil.
func (r *Registry) Vars(rec *TraceRecorder) VarsSnapshot {
	s := VarsSnapshot{
		Timestamp:  time.Now(),
		Metrics:    r.Snapshot(),
		Violations: r.LeakBudgetViolations(),
	}
	if rec != nil {
		s.TracesActive = rec.Active()
		s.TracesDropped = rec.Dropped()
		s.TracesExamined = rec.Examined()
		s.TracesSampled = rec.Sampled()
	}
	return s
}

// WriteJSON writes the /debug/vars snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer, rec *TraceRecorder) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Vars(rec))
}
