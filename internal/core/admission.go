package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"segshare/internal/obs"
)

// Adaptive admission control (DESIGN §16). The serving stack has a hard
// scarce resource — enclave CPU spent on sealed-chunk crypto — so
// accepting unbounded concurrent work does not increase goodput, it only
// inflates queueing delay until every request misses its SLO. The
// admission controller bounds concurrency per operation class and adapts
// the bound to observed latency:
//
//   - Two independent limiters, one for reads and one for mutations, so a
//     burst of PUTs cannot starve GETs (reads outrank mutations by
//     construction: they never share a limit). Health, attestation, and
//     OPTIONS traffic bypasses admission entirely and is never shed.
//   - Each limiter runs AIMD on an EWMA of observed request latency
//     against the SLO latency threshold (internal/obs/slo.go):
//     multiplicative decrease when the EWMA exceeds the target, additive
//     increase when latency is comfortably under target *and* the
//     current limit actually bound concurrency during the interval (no
//     open-loop growth while idle).
//   - A small bounded FIFO wait queue absorbs sub-RTT bursts. Waiters
//     time out controlled-delay style after QueueTimeout — a request that
//     cannot start promptly is better rejected early with Retry-After
//     than served late — and leave immediately when their client
//     disconnects.
//
// Rejections surface as ErrOverloaded, which the handler maps to a
// leak-safe 503 with Retry-After. The error text names only the class
// and mechanism, never request attributes.

// AdmissionConfig tunes adaptive admission control. Zero fields take
// the defaults. A deployment behind an external limiter raises
// MaxInFlight rather than turning admission off.
type AdmissionConfig struct {
	// Deprecated: ignored. Admission control always runs.
	Enable bool
	// MaxInFlight caps the adaptive concurrency limit per class
	// (default 256 for reads; mutations use a quarter of it).
	MaxInFlight int
	// MinInFlight floors the adaptive limit (default 4 reads, 1 mutations).
	MinInFlight int
	// QueueLimit bounds each class's wait queue (default MaxInFlight/4).
	QueueLimit int
	// QueueTimeout bounds how long a request may wait for a slot before
	// being shed (default 100ms).
	QueueTimeout time.Duration
	// AdjustInterval paces AIMD adjustments (default 1s).
	AdjustInterval time.Duration

	// now overrides the clock for deterministic tests.
	now func() time.Time
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.MinInFlight <= 0 {
		c.MinInFlight = 4
	}
	if c.MinInFlight > c.MaxInFlight {
		c.MinInFlight = c.MaxInFlight
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = max(1, c.MaxInFlight/4)
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 100 * time.Millisecond
	}
	if c.AdjustInterval <= 0 {
		c.AdjustInterval = time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// admitClass buckets an op class for admission. Exempt ops — OPTIONS
// preflights, and "other" for health and attestation endpoints served
// outside the handler — can never be shed.
const (
	admitExempt = iota
	admitRead
	admitMutation
)

// opAdmitClass is the closed op-class set — every value opClass() and
// the direct sessions produce — with each class's admission bucket.
var opAdmitClass = map[string]int{
	"fs_get": admitRead, "fs_propfind": admitRead, "fs_other": admitRead,
	"api_whoami": admitRead, "api_other": admitRead,
	"fs_put": admitMutation, "fs_delete": admitMutation, "fs_mkcol": admitMutation, "fs_move": admitMutation,
	"api_permission": admitMutation, "api_inherit": admitMutation, "api_owner": admitMutation,
	"api_groups_add": admitMutation, "api_groups_remove": admitMutation,
	"api_groups_owner": admitMutation, "api_groups_delete": admitMutation,
	"fs_options": admitExempt, "other": admitExempt,
}

// admitClassOf returns op's admission bucket; an op outside the set is
// exempt.
func admitClassOf(op string) int { return opAdmitClass[op] }

// admissionController owns the per-class limiters.
type admissionController struct {
	read     *classLimiter
	mutation *classLimiter
}

// newAdmissionController builds both limiters. target is the AIMD
// latency target, the SLO latency threshold.
func newAdmissionController(cfg AdmissionConfig, target time.Duration, reg *obs.Registry) *admissionController {
	cfg = cfg.withDefaults()
	mcfg := cfg
	// Mutations get a quarter of the read budget: they hold write locks
	// and journal commits, so their marginal latency cost is higher, and
	// shedding them first preserves read goodput (priority shedding).
	mcfg.MaxInFlight = max(1, cfg.MaxInFlight/4)
	mcfg.MinInFlight = 1
	mcfg.QueueLimit = max(1, cfg.QueueLimit/4)
	return &admissionController{
		read:     newClassLimiter("read", cfg, target, reg),
		mutation: newClassLimiter("mutation", mcfg, target, reg),
	}
}

// acquire admits or sheds one request. On success the returned release
// must be called exactly once with the request's total duration; it
// frees the slot and feeds the latency sample to AIMD. Exempt classes
// return a no-op release.
func (a *admissionController) acquire(ctx context.Context, op string) (release func(time.Duration), err error) {
	switch admitClassOf(op) {
	case admitRead:
		return a.read.acquire(ctx)
	case admitMutation:
		return a.mutation.acquire(ctx)
	default:
		return func(time.Duration) {}, nil
	}
}

// admit is the Server-level admission gate: drain first (a draining
// server rejects every new request on the main handler — readiness
// already steers traffic away), then the adaptive controller. The
// returned release is non-nil exactly when err is nil.
func (s *Server) admit(ctx context.Context, op string) (func(time.Duration), error) {
	if err := s.refuseDraining(); err != nil {
		return nil, err
	}
	return s.admission.acquire(ctx, op)
}

// refuseDraining is the drain half of admission. Direct sessions apply
// it too; the adaptive limiter stays HTTP-only, because in-process
// callers (corpus setup) are not the traffic it protects against.
func (s *Server) refuseDraining() error {
	if s.draining.Load() {
		return fmt.Errorf("%w: draining", ErrOverloaded)
	}
	return nil
}

// waiter is one queued request. grant passes slot ownership by closing
// ch under the limiter lock; a waiter that times out races grant and
// resolves the race in cancelWaiter.
type waiter struct {
	ch chan struct{}
}

// classLimiter is one AIMD concurrency limiter with a bounded FIFO wait
// queue.
type classLimiter struct {
	class string
	now   func() time.Time

	mu       sync.Mutex
	limit    int // current adaptive bound, min ≤ limit ≤ max
	min, max int
	inflight int
	peak     int // max inflight seen since the last adjustment
	queue    []*waiter

	queueLimit   int
	queueTimeout time.Duration

	// AIMD state: EWMA of request latency, adjusted at most once per
	// interval.
	ewma       time.Duration
	samples    int
	target     time.Duration
	interval   time.Duration
	lastAdjust time.Time

	// Instruments (leak budget: class is a two-value closed set).
	limitG   *obs.Gauge
	queueG   *obs.Gauge
	shedC    *obs.Counter
	timeoutC *obs.Counter
	admitted *obs.Counter
	waitNs   *obs.Histogram
}

func newClassLimiter(class string, cfg AdmissionConfig, target time.Duration, reg *obs.Registry) *classLimiter {
	lbl := obs.Labels{"class": class}
	l := &classLimiter{
		class:        class,
		now:          cfg.now,
		limit:        cfg.MaxInFlight,
		min:          cfg.MinInFlight,
		max:          cfg.MaxInFlight,
		queueLimit:   cfg.QueueLimit,
		queueTimeout: cfg.QueueTimeout,
		target:       target,
		interval:     cfg.AdjustInterval,
		lastAdjust:   cfg.now(),
		limitG:       reg.Gauge("segshare_admission_limit", "Current adaptive concurrency limit.", lbl),
		queueG:       reg.Gauge("segshare_admission_queue_depth", "Requests waiting for an admission slot.", lbl),
		shedC:        reg.Counter("segshare_admission_shed_total", "Requests rejected because the wait queue was full.", lbl),
		timeoutC:     reg.Counter("segshare_admission_queue_timeout_total", "Requests shed after waiting longer than the queue timeout.", lbl),
		admitted:     reg.Counter("segshare_admission_admitted_total", "Requests granted an admission slot.", lbl),
		waitNs:       reg.Histogram("segshare_admission_wait_ns", "Time spent waiting for an admission slot (ns).", lbl),
	}
	l.limitG.Set(int64(l.limit))
	return l
}

// acquire takes a slot, queues for one, or sheds.
func (l *classLimiter) acquire(ctx context.Context) (func(time.Duration), error) {
	l.mu.Lock()
	if l.inflight < l.limit {
		l.inflight++
		if l.inflight > l.peak {
			l.peak = l.inflight
		}
		l.mu.Unlock()
		l.admitted.Inc()
		l.waitNs.Observe(0)
		return l.release, nil
	}
	if len(l.queue) >= l.queueLimit {
		l.mu.Unlock()
		l.shedC.Inc()
		return nil, fmt.Errorf("%w: %s queue full", ErrOverloaded, l.class)
	}
	w := &waiter{ch: make(chan struct{})}
	l.queue = append(l.queue, w)
	l.queueG.Set(int64(len(l.queue)))
	l.mu.Unlock()

	waitStart := l.now()
	timer := time.NewTimer(l.queueTimeout)
	defer timer.Stop()
	select {
	case <-w.ch:
		l.admitted.Inc()
		l.waitNs.ObserveDuration(l.now().Sub(waitStart))
		return l.release, nil
	case <-timer.C:
		if l.cancelWaiter(w) {
			l.timeoutC.Inc()
			return nil, fmt.Errorf("%w: %s queue timeout", ErrOverloaded, l.class)
		}
		// Lost the race: a grant already transferred the slot to us.
		<-w.ch
		l.admitted.Inc()
		return l.release, nil
	case <-ctx.Done():
		if l.cancelWaiter(w) {
			return nil, fmt.Errorf("%w: canceled while queued: %v", ErrCanceled, context.Cause(ctx))
		}
		<-w.ch
		// The slot is ours even though the client left: give it back
		// without a latency sample — the request never ran — and report
		// the cancellation.
		l.mu.Lock()
		l.freeLocked()
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: canceled while queued: %v", ErrCanceled, context.Cause(ctx))
	}
}

// cancelWaiter removes w from the queue. It reports false when w is no
// longer queued — a grant won the race and w owns a slot.
func (l *classLimiter) cancelWaiter(w *waiter) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, q := range l.queue {
		if q == w {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			l.queueG.Set(int64(len(l.queue)))
			return true
		}
	}
	return false
}

// release feeds the latency sample to AIMD and frees the slot.
func (l *classLimiter) release(dur time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recordLocked(dur)
	l.freeLocked()
}

// freeLocked hands a slot to the next waiter if the (possibly
// just-shrunk) limit allows, and otherwise returns it. Callers hold l.mu.
func (l *classLimiter) freeLocked() {
	if len(l.queue) > 0 && l.inflight <= l.limit {
		// Transfer the slot: inflight stays constant.
		w := l.queue[0]
		l.queue = l.queue[1:]
		l.queueG.Set(int64(len(l.queue)))
		close(w.ch)
		return
	}
	l.inflight--
}

// recordLocked updates the latency EWMA and runs one AIMD step per
// interval. Callers hold l.mu.
func (l *classLimiter) recordLocked(dur time.Duration) {
	// EWMA with α = 1/5: old*4/5 + new/5. Integer math, no float drift.
	if l.samples == 0 {
		l.ewma = dur
	} else {
		l.ewma = (l.ewma*4 + dur) / 5
	}
	l.samples++

	now := l.now()
	if now.Sub(l.lastAdjust) < l.interval || l.samples < 2 {
		return
	}
	l.lastAdjust = now
	switch {
	case l.ewma > l.target:
		// Multiplicative decrease: overload is certain, back off fast.
		l.limit = max(l.min, l.limit/2)
	case l.ewma < l.target*4/5 && l.peak >= l.limit:
		// Additive increase, but only when the limit actually bound
		// concurrency this interval — otherwise the limit would grow
		// open-loop while the server idles.
		l.limit = min(l.max, l.limit+1)
	}
	l.peak = l.inflight
	l.limitG.Set(int64(l.limit))
}

// snapshot returns (limit, inflight, queued) for tests and drain logs.
func (l *classLimiter) snapshot() (limit, inflight, queued int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit, l.inflight, len(l.queue)
}
