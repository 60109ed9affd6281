package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceRecorder keeps request traces in a ring buffer. A trace is one
// request labeled by operation class only (leak budget: the class set is
// closed and compile-time constant; logical paths, user IDs, and group
// names never enter a trace). Within a trace, spans record where the
// time went — dispatch, store I/O, tree updates.
//
// Retention is tail-based: a trace enters the ring when it *ends*, and
// only if the sampling policy keeps it (slow, errored, contended, every
// Nth, or force-sampled). With no policy installed every finished trace
// is retained, which preserves the v1 uniform-window behavior.
//
// In-flight traces live in a separate live set — the server's only
// record of what is running. /debug/requests, the watchdog's deadline
// check, SLO force-sampling, graceful drain and the in-flight gauge all
// read it (inflight.go). The set is sharded by trace id, so a request
// that is not sampled takes only its own shard's lock, twice.
//
// Annotations are deliberately numeric-only: the API offers no way to
// attach a string to a trace, so identity-bearing request data cannot be
// smuggled into the export. Annotation keys pass the same token denylist
// as metric names.
type TraceRecorder struct {
	seq  atomic.Uint64
	live [liveShards]liveShard
	// gauge follows the live set's size for export (SetActiveGauge).
	// Several recorders may share one registry gauge, so Active counts
	// the shards instead of reading it.
	gauge *Gauge

	// mu guards the ring of retained traces.
	mu      sync.Mutex
	ring    []*Trace
	next    int
	dropped uint64

	policy   atomic.Pointer[SamplePolicy]
	examined atomic.Uint64
	sampled  atomic.Uint64

	// armed maps op class -> *atomic.Int64 remaining force-sample
	// credits (see ForceSampleOp). armedAny short-circuits the map probe
	// on the Start hot path while no arming is outstanding.
	armed    sync.Map
	armedAny atomic.Bool

	// onEnd, when set, observes every finished trace with its sampling
	// decision — the export pipeline and sampling metrics hang off it.
	// It receives the live *Trace so discarded traces (the overwhelming
	// majority under a tail-sampling policy) cost no snapshot; call
	// Snapshot only on the traces worth shipping. Set once during
	// wiring, before traffic.
	onEnd func(t *Trace, sampled bool)
}

// liveShards is the live set's shard count.
const liveShards = 16

type liveShard struct {
	mu     sync.Mutex
	traces map[uint64]*Trace
}

// DefaultTraceCapacity is the ring size used when none is given.
const DefaultTraceCapacity = 256

// NewTraceRecorder returns a recorder keeping the last capacity retained
// traces.
func NewTraceRecorder(capacity int) *TraceRecorder {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	r := &TraceRecorder{
		ring:  make([]*Trace, 0, capacity),
		gauge: &Gauge{},
	}
	for i := range r.live {
		r.live[i].traces = make(map[uint64]*Trace)
	}
	return r
}

// SetActiveGauge exports the live set's size through g: every Start
// adds one and every End subtracts one. Call once during wiring, before
// any trace starts.
func (r *TraceRecorder) SetActiveGauge(g *Gauge) { r.gauge = g }

func (r *TraceRecorder) shard(id uint64) *liveShard { return &r.live[id%liveShards] }

// eachLive calls fn for every live trace, holding that trace's shard
// lock.
func (r *TraceRecorder) eachLive(fn func(t *Trace)) {
	for i := range r.live {
		s := &r.live[i]
		s.mu.Lock()
		for _, t := range s.traces {
			fn(t)
		}
		s.mu.Unlock()
	}
}

// SamplePolicy decides which finished traces keep their full span tree.
// Zero thresholds disable the corresponding rule; a trace is retained if
// ANY enabled rule matches. The zero policy retains nothing except
// force-sampled traces — explicitly install nil to keep everything.
type SamplePolicy struct {
	// SlowNs retains traces with end-to-end duration >= SlowNs.
	SlowNs int64
	// ErrorStatus retains traces whose status code is >= this value
	// (e.g. 500 for server errors, 400 to include denials).
	ErrorStatus int
	// ContentionNs retains traces whose accumulated lock wait (the
	// lock_wait_ns annotation) is >= ContentionNs.
	ContentionNs int64
	// KeepOneIn retains every Nth finished trace regardless, keeping a
	// thin uniform baseline in the ring. 0 disables.
	KeepOneIn uint64
}

// DefaultSamplePolicy is the production default: keep server errors,
// anything slower than 50ms or blocked on locks for 10ms, and a 1%
// uniform baseline.
func DefaultSamplePolicy() *SamplePolicy {
	return &SamplePolicy{
		SlowNs:       (50 * time.Millisecond).Nanoseconds(),
		ErrorStatus:  500,
		ContentionNs: (10 * time.Millisecond).Nanoseconds(),
		KeepOneIn:    100,
	}
}

// SetPolicy installs the sampling policy. A nil policy retains every
// finished trace (the v1 behavior).
func (r *TraceRecorder) SetPolicy(p *SamplePolicy) { r.policy.Store(p) }

// Policy returns the installed sampling policy, or nil.
func (r *TraceRecorder) Policy() *SamplePolicy { return r.policy.Load() }

// SetOnEnd installs the finished-trace observer. Call once during
// wiring, before any request runs.
func (r *TraceRecorder) SetOnEnd(fn func(t *Trace, sampled bool)) { r.onEnd = fn }

// Examined returns how many traces have finished and been considered by
// the sampler.
func (r *TraceRecorder) Examined() uint64 { return r.examined.Load() }

// Sampled returns how many finished traces were retained.
func (r *TraceRecorder) Sampled() uint64 { return r.sampled.Load() }

// Trace is one in-flight or finished request. id, op, start, stats and
// rec are set before the trace is published and never change.
type Trace struct {
	id    uint64
	op    string
	start time.Time
	// stats is the request's cost collector (nil-safe); the live set
	// reads its lock wait so far.
	stats *ReqStats
	rec   *TraceRecorder

	mu     sync.Mutex
	end    time.Time
	status int
	forced bool
	spans  []span
	// open is the stack of currently-open span names, innermost last —
	// the live set reads its top to say where a request is right now.
	open   []string
	annots []annotation
	// annotsBuf backs annots for the first few annotations so the common
	// request (a handful of numeric fields) never grows a heap slice.
	annotsBuf [4]annotation
	// group is the pseudonymized group the request is charged to in the
	// heavy-hitter sketch ("" = unattributed). It never enters a
	// TraceSnapshot.
	group string
}

type span struct {
	name  string
	start time.Time
	end   time.Time
}

type annotation struct {
	key   string
	value int64
}

// Start opens a new trace for the given operation class; rs is the
// request's cost collector, or nil. The trace joins the live set;
// whether it enters the ring is decided at End by the sampling policy.
func (r *TraceRecorder) Start(op string, rs *ReqStats) *Trace {
	t := &Trace{id: r.seq.Add(1), op: op, start: time.Now(), stats: rs, rec: r}
	t.annots = t.annotsBuf[:0]
	if r.armedAny.Load() {
		if v, ok := r.armed.Load(op); ok {
			if v.(*atomic.Int64).Add(-1) >= 0 {
				t.forced = true // t is not shared yet; no lock needed
			} else {
				// Only this counter: a ForceSampleOp that re-armed op since
				// the Load keeps its credits.
				r.armed.CompareAndDelete(op, v)
			}
		}
	}
	s := r.shard(t.id)
	s.mu.Lock()
	s.traces[t.id] = t
	s.mu.Unlock()
	r.gauge.Add(1)
	return t
}

// ForceSampleOp force-samples every in-flight trace of the given op
// class and arms the recorder to force-sample the next n starts of it —
// the SLO engine calls this on a burn-rate breach so the traces of the
// offending class are retained while the incident is live. It returns
// how many in-flight traces were forced and the id of the oldest one
// (0 when none), for correlating a triggered profile capture.
func (r *TraceRecorder) ForceSampleOp(op string, n int64) (inFlight int, oldestID uint64) {
	var oldest *Trace
	r.eachLive(func(t *Trace) {
		if t.op != op {
			return
		}
		inFlight++
		if oldest == nil || t.start.Before(oldest.start) {
			oldest = t
		}
		t.ForceSample()
	})
	oldestID = oldest.ID()
	if n > 0 {
		c := &atomic.Int64{}
		c.Store(n)
		r.armed.Store(op, c)
		r.armedAny.Store(true)
	}
	return inFlight, oldestID
}

// retain inserts a finished trace into the ring, evicting the oldest
// retained trace when full.
func (r *TraceRecorder) retain(t *Trace) {
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, t)
	} else {
		r.ring[r.next] = t
		r.next = (r.next + 1) % cap(r.ring)
		r.dropped++
	}
	r.mu.Unlock()
}

// Dropped returns how many retained traces have been evicted from the
// ring.
func (r *TraceRecorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Active returns the number of started-but-unfinished traces.
func (r *TraceRecorder) Active() int64 {
	var n int
	for i := range r.live {
		s := &r.live[i]
		s.mu.Lock()
		n += len(s.traces)
		s.mu.Unlock()
	}
	return int64(n)
}

// Capacity returns the ring size: the maximum number of traces Recent can
// ever return.
func (r *TraceRecorder) Capacity() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return cap(r.ring)
}

// ID returns the trace's recorder-unique id, usable as a request id in
// logs, wide events, and audit records to correlate them with the
// exported trace.
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// SetStatus records the response status code.
func (t *Trace) SetStatus(code int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.status = code
	t.mu.Unlock()
}

// ForceSample marks the trace retained regardless of policy, e.g. when
// the watchdog fires while it is in flight.
func (t *Trace) ForceSample() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.forced = true
	t.mu.Unlock()
}

// SetGroup charges the request to a heavy-hitter group. The caller
// passes a pseudonym, never a raw group id; a later call overwrites.
func (t *Trace) SetGroup(pseudonym string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.group = pseudonym
	t.mu.Unlock()
}

// Group returns the pseudonym SetGroup recorded, or "".
func (t *Trace) Group() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.group
}

// Annotate attaches a numeric fact (byte counts, depths, item counts) to
// the trace. Keys violating the leak-budget token rules are dropped.
func (t *Trace) Annotate(key string, value int64) {
	if t == nil {
		return
	}
	if verifyName(key, "annotation key") != nil {
		return
	}
	t.mu.Lock()
	t.annots = append(t.annots, annotation{key: key, value: value})
	t.mu.Unlock()
}

// Span times a sub-operation: call the returned func to close it. While
// open, the span is visible to /debug/requests (currentSpan).
func (t *Trace) Span(name string) func() {
	if t == nil {
		return func() {}
	}
	if verifyName(name, "span name") != nil {
		return func() {}
	}
	start := time.Now()
	t.mu.Lock()
	t.open = append(t.open, name)
	t.mu.Unlock()
	return func() {
		end := time.Now()
		t.mu.Lock()
		// Spans close LIFO in practice (defer), but tolerate out-of-order
		// closes: remove the last open entry with this name.
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i] == name {
				t.open = append(t.open[:i], t.open[i+1:]...)
				break
			}
		}
		t.spans = append(t.spans, span{name: name, start: start, end: end})
		t.mu.Unlock()
	}
}

// currentSpan returns the innermost currently-open span name, or ""
// when none is open.
func (t *Trace) currentSpan() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.open) == 0 {
		return ""
	}
	return t.open[len(t.open)-1]
}

// LockWaitAnnotation is the annotation key the sampling policy's
// contention rule reads; the handler records the request's accumulated
// lock wait under it before End.
const LockWaitAnnotation = "lock_wait_ns"

// keep evaluates the policy against a finished trace. Caller holds t.mu.
func (p *SamplePolicy) keep(t *Trace, nth uint64) bool {
	if p.SlowNs > 0 && t.end.Sub(t.start).Nanoseconds() >= p.SlowNs {
		return true
	}
	if p.ErrorStatus > 0 && t.status >= p.ErrorStatus {
		return true
	}
	if p.ContentionNs > 0 {
		for _, a := range t.annots {
			if a.key == LockWaitAnnotation && a.value >= p.ContentionNs {
				return true
			}
		}
	}
	if p.KeepOneIn > 0 && nth%p.KeepOneIn == 0 {
		return true
	}
	return false
}

// End closes the trace: it leaves the live set, the sampling policy
// decides retention, and the finished-trace observer (metrics, export
// pipeline) runs. End reports whether the trace was retained.
func (t *Trace) End() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	if !t.end.IsZero() {
		t.mu.Unlock()
		return false
	}
	t.end = time.Now()
	t.mu.Unlock()

	r := t.rec
	if r == nil {
		return false
	}
	s := r.shard(t.id)
	s.mu.Lock()
	delete(s.traces, t.id)
	s.mu.Unlock()
	r.gauge.Add(-1)

	nth := r.examined.Add(1)
	policy := r.policy.Load()
	t.mu.Lock()
	keep := t.forced || policy == nil || policy.keep(t, nth)
	t.mu.Unlock()
	if keep {
		r.sampled.Add(1)
		r.retain(t)
	}
	if r.onEnd != nil {
		r.onEnd(t, keep)
	}
	return keep
}

// SpanSnapshot is one finished span for export.
type SpanSnapshot struct {
	Name    string `json:"name"`
	OffsetN int64  `json:"offsetNs"`
	DurN    int64  `json:"durationNs"`
}

// TraceSnapshot is one trace for export.
type TraceSnapshot struct {
	ID          uint64           `json:"id"`
	Op          string           `json:"op"`
	Start       time.Time        `json:"start"`
	DurationN   int64            `json:"durationNs"`
	Finished    bool             `json:"finished"`
	Status      int              `json:"status,omitempty"`
	Spans       []SpanSnapshot   `json:"spans,omitempty"`
	Annotations map[string]int64 `json:"annotations,omitempty"`
}

// Snapshot captures the trace's exportable state: id, op, status,
// timing, finished spans, and numeric annotations.
func (t *Trace) Snapshot() TraceSnapshot { return t.snapshot() }

func (t *Trace) snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TraceSnapshot{ID: t.id, Op: t.op, Start: t.start, Status: t.status}
	if !t.end.IsZero() {
		s.Finished = true
		s.DurationN = t.end.Sub(t.start).Nanoseconds()
	} else {
		s.DurationN = time.Since(t.start).Nanoseconds()
	}
	for _, sp := range t.spans {
		s.Spans = append(s.Spans, SpanSnapshot{
			Name:    sp.name,
			OffsetN: sp.start.Sub(t.start).Nanoseconds(),
			DurN:    sp.end.Sub(sp.start).Nanoseconds(),
		})
	}
	if len(t.annots) > 0 {
		s.Annotations = make(map[string]int64, len(t.annots))
		for _, a := range t.annots {
			s.Annotations[a.key] = a.value
		}
	}
	return s
}

// Recent returns up to n most recent retained traces, newest first.
func (r *TraceRecorder) Recent(n int) []TraceSnapshot {
	r.mu.Lock()
	traces := make([]*Trace, len(r.ring))
	copy(traces, r.ring)
	r.mu.Unlock()

	sort.Slice(traces, func(i, j int) bool { return traces[i].id > traces[j].id })
	if n > 0 && len(traces) > n {
		traces = traces[:n]
	}
	out := make([]TraceSnapshot, 0, len(traces))
	for _, t := range traces {
		out = append(out, t.snapshot())
	}
	return out
}
