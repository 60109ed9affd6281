package obs

import (
	"sort"
	"time"
)

// InFlightRequest is one live request as exported by /debug/requests,
// built from the trace recorder's live set. This is the leak-bounded
// wire form: op class and current span come from closed compile-time
// sets, ages and waits are log2 bucket bounds, and the trace id is a
// server-assigned sequence number.
type InFlightRequest struct {
	// TraceID joins the live request to /debug/traces, log lines, and
	// audit records (class: id).
	TraceID uint64 `json:"traceId"`
	// Op is the operation class (class: enum).
	Op string `json:"op"`
	// Span names the request's currently-open innermost span, or "" when
	// none is open (class: enum).
	Span string `json:"span,omitempty"`
	// AgeNs is how long the request has been in flight (class: bucketed).
	AgeNs uint64 `json:"ageNsLe"`
	// LockWaitNs is the lock wait accumulated so far (class: bucketed).
	LockWaitNs uint64 `json:"lockWaitNsLe"`
}

// InFlightRequestFields classifies the exported fields for the
// leak-budget meta-test.
var InFlightRequestFields = map[string]FieldClass{
	"TraceID":    FieldID,
	"Op":         FieldEnum,
	"Span":       FieldEnum,
	"AgeNs":      FieldBucketed,
	"LockWaitNs": FieldBucketed,
}

// VerifyInFlightRequest checks one live-set snapshot entry against the
// leak budget.
func VerifyInFlightRequest(r InFlightRequest) error {
	if err := verifyLabelValue(r.Op); err != nil {
		return err
	}
	if r.Span != "" {
		if err := verifyLabelValue(r.Span); err != nil {
			return err
		}
	}
	if !IsBucketBound(r.AgeNs) {
		return &wideFieldError{field: "AgeNs"}
	}
	if !IsBucketBound(r.LockWaitNs) {
		return &wideFieldError{field: "LockWaitNs"}
	}
	return nil
}

// InFlight exports up to max live requests (0 = all), in Start order,
// in the leak-bounded /debug/requests form.
func (r *TraceRecorder) InFlight(max int) []InFlightRequest {
	var live []*Trace
	r.eachLive(func(t *Trace) { live = append(live, t) })
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	if max > 0 && len(live) > max {
		live = live[:max]
	}
	now := time.Now()
	out := make([]InFlightRequest, 0, len(live))
	for _, t := range live {
		out = append(out, InFlightRequest{
			TraceID:    t.id,
			Op:         t.op,
			Span:       t.currentSpan(),
			AgeNs:      BucketCeil(now.Sub(t.start).Nanoseconds()),
			LockWaitNs: BucketCeil(t.stats.LockWaitNs()),
		})
	}
	return out
}

// OverDeadline reports how many live requests started more than
// deadline ago, plus the oldest one's age, trace id, and op class — the
// watchdog's request_deadline check and its profile-capture correlation
// read it.
func (r *TraceRecorder) OverDeadline(deadline time.Duration) (n int, oldest time.Duration, oldestID uint64, oldestOp string) {
	now := time.Now()
	r.eachLive(func(t *Trace) {
		age := now.Sub(t.start)
		if age < deadline {
			return
		}
		n++
		if age > oldest {
			oldest, oldestID, oldestOp = age, t.id, t.op
		}
	})
	return n, oldest, oldestID, oldestOp
}
