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
//     against a target derived from the SLO latency threshold
//     (internal/obs/slo.go): multiplicative decrease when the EWMA
//     exceeds the target, additive increase when latency is comfortably
//     under target *and* the current limit actually bound concurrency
//     during the interval (no open-loop growth while idle).
//   - A small bounded FIFO wait queue absorbs sub-RTT bursts. Waiters
//     time out controlled-delay style after QueueTimeout — a request that
//     cannot start promptly is better rejected early with Retry-After
//     than served late — and leave immediately when their client
//     disconnects.
//
// Rejections surface as ErrOverloaded, which the handler maps to a
// leak-safe 503 with Retry-After. The error text names only the class
// and mechanism, never request attributes.

// AdmissionConfig tunes adaptive admission control. The zero value
// disables admission entirely (every request is admitted immediately).
type AdmissionConfig struct {
	// Enable turns the limiter on. Off, acquire always succeeds.
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
	// LatencyTarget is the EWMA latency above which the limit shrinks.
	// Defaults to the SLO latency threshold (250ms when unset).
	LatencyTarget time.Duration
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
	if c.LatencyTarget <= 0 {
		c.LatencyTarget = 250 * time.Millisecond
	}
	if c.AdjustInterval <= 0 {
		c.AdjustInterval = time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// admitClass buckets an op class for admission. The set mirrors
// opClass() and is closed; unknown ops are exempt so health and
// attestation endpoints (served outside the handler) and OPTIONS
// preflights can never be shed.
const (
	admitExempt = iota
	admitRead
	admitMutation
)

func admitClassOf(op string) int {
	switch op {
	case "fs_get", "fs_propfind", "fs_other", "api_whoami", "api_other":
		return admitRead
	case "fs_put", "fs_delete", "fs_mkcol", "fs_move",
		"api_permission", "api_inherit", "api_owner",
		"api_groups_add", "api_groups_remove", "api_groups_owner", "api_groups_delete":
		return admitMutation
	default: // fs_options, "other" (health, attestation, unknown)
		return admitExempt
	}
}

// admissionController owns the per-class limiters.
type admissionController struct {
	read     *classLimiter
	mutation *classLimiter
}

func newAdmissionController(cfg AdmissionConfig, reg *obs.Registry) *admissionController {
	cfg = cfg.withDefaults()
	mcfg := cfg
	// Mutations get a quarter of the read budget: they hold write locks
	// and journal commits, so their marginal latency cost is higher, and
	// shedding them first preserves read goodput (priority shedding).
	mcfg.MaxInFlight = max(1, cfg.MaxInFlight/4)
	mcfg.MinInFlight = 1
	mcfg.QueueLimit = max(1, cfg.QueueLimit/4)
	return &admissionController{
		read:     newClassLimiter("read", cfg, reg),
		mutation: newClassLimiter("mutation", mcfg, reg),
	}
}

// acquire admits or sheds one request. On success the returned release
// must be called exactly once with the request's total duration; it
// frees the slot and feeds the latency sample to AIMD. Exempt classes
// return a no-op release.
func (a *admissionController) acquire(ctx context.Context, op string) (release func(time.Duration), err error) {
	if a == nil {
		return func(time.Duration) {}, nil
	}
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
	if s.admission == nil {
		return func(time.Duration) {}, nil
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

func newClassLimiter(class string, cfg AdmissionConfig, reg *obs.Registry) *classLimiter {
	l := &classLimiter{
		class:        class,
		now:          cfg.now,
		limit:        cfg.MaxInFlight,
		min:          cfg.MinInFlight,
		max:          cfg.MaxInFlight,
		queueLimit:   cfg.QueueLimit,
		queueTimeout: cfg.QueueTimeout,
		target:       cfg.LatencyTarget,
		interval:     cfg.AdjustInterval,
		lastAdjust:   cfg.now(),
	}
	if reg != nil {
		lbl := obs.Labels{"class": class}
		l.limitG = reg.Gauge("segshare_admission_limit", "Current adaptive concurrency limit.", lbl)
		l.queueG = reg.Gauge("segshare_admission_queue_depth", "Requests waiting for an admission slot.", lbl)
		l.shedC = reg.Counter("segshare_admission_shed_total", "Requests rejected because the wait queue was full.", lbl)
		l.timeoutC = reg.Counter("segshare_admission_queue_timeout_total", "Requests shed after waiting longer than the queue timeout.", lbl)
		l.admitted = reg.Counter("segshare_admission_admitted_total", "Requests granted an admission slot.", lbl)
		l.waitNs = reg.Histogram("segshare_admission_wait_ns", "Time spent waiting for an admission slot (ns).", lbl)
		l.limitG.Set(int64(l.limit))
	}
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
		if l.admitted != nil {
			l.admitted.Inc()
		}
		if l.waitNs != nil {
			l.waitNs.Observe(0)
		}
		return l.release, nil
	}
	if len(l.queue) >= l.queueLimit {
		l.mu.Unlock()
		if l.shedC != nil {
			l.shedC.Inc()
		}
		return nil, fmt.Errorf("%w: %s queue full", ErrOverloaded, l.class)
	}
	w := &waiter{ch: make(chan struct{})}
	l.queue = append(l.queue, w)
	if l.queueG != nil {
		l.queueG.Set(int64(len(l.queue)))
	}
	l.mu.Unlock()

	waitStart := l.now()
	timer := time.NewTimer(l.queueTimeout)
	defer timer.Stop()
	select {
	case <-w.ch:
		if l.admitted != nil {
			l.admitted.Inc()
		}
		if l.waitNs != nil {
			l.waitNs.ObserveDuration(l.now().Sub(waitStart))
		}
		return l.release, nil
	case <-timer.C:
		if l.cancelWaiter(w) {
			if l.timeoutC != nil {
				l.timeoutC.Inc()
			}
			return nil, fmt.Errorf("%w: %s queue timeout", ErrOverloaded, l.class)
		}
		// Lost the race: a grant already transferred the slot to us.
		<-w.ch
		if l.admitted != nil {
			l.admitted.Inc()
		}
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
			if l.queueG != nil {
				l.queueG.Set(int64(len(l.queue)))
			}
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
		if l.queueG != nil {
			l.queueG.Set(int64(len(l.queue)))
		}
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
	if l.limitG != nil {
		l.limitG.Set(int64(l.limit))
	}
}

// snapshot returns (limit, inflight, queued) for tests and drain logs.
func (l *classLimiter) snapshot() (limit, inflight, queued int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit, l.inflight, len(l.queue)
}
