package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"segshare/internal/obs"
)

// Resilient errors, matched with errors.Is. All three are terminal for
// the attempt that produced them: a deadline or open circuit is never
// retried by the wrapper itself (see the retry-safety notes on do).
// ErrDeadlineExceeded and ErrSaturated come from the worker pool, so a
// backend that runs inline (see nonBlocking) never returns them.
var (
	// ErrDeadlineExceeded is returned when a backend operation overran its
	// per-op-class deadline. The operation may still be running in a
	// bounded background worker; only its result is abandoned.
	ErrDeadlineExceeded = errors.New("store: backend deadline exceeded")
	// ErrCircuitOpen is returned when the per-backend circuit breaker
	// rejects a mutation without dispatching it.
	ErrCircuitOpen = errors.New("store: circuit breaker open")
	// ErrSaturated is returned when the bounded worker pool has no free
	// slot: every worker is pinned by an operation that already overran
	// its deadline.
	ErrSaturated = errors.New("store: backend worker pool saturated")
)

// nonBlocking marks a backend whose every call is bounded work under its
// own mutex and never waits on I/O — today only *Memory. Resilient runs
// such a backend on the caller's goroutine: a call that cannot stall can
// neither overrun its deadline nor pin a worker, so the pool, timer and
// hand-off would buy nothing. The method is unexported, so no wrapper
// outside this package can claim it; Disk (its calls fsync) and every
// wrapper (Faulty, Adversary, Instrumented, foreign taps) keep the
// worker dispatch.
type nonBlocking interface{ nonBlocking() }

// BreakerState is the circuit breaker's position. The zero value is
// closed (healthy).
type BreakerState int32

// Breaker states, in escalation order: closed (normal traffic) → open
// (mutations rejected without dispatch) → half-open (a bounded probe
// budget of mutations may pass to test the backend) → closed again.
const (
	BreakerClosed BreakerState = iota
	BreakerHalfOpen
	BreakerOpen
)

// String returns the state's metric-label form (closed set, [a-z_]).
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half_open"
	case BreakerOpen:
		return "open"
	default:
		return "unknown"
	}
}

// ResilientOptions tunes a Resilient wrapper. The zero value gets
// production defaults; tests inject Now/Sleep for determinism.
type ResilientOptions struct {
	// ReadDeadline bounds Get/Exists/List/TotalBytes (default 5s;
	// negative disables the deadline for the class).
	ReadDeadline time.Duration
	// MutationDeadline bounds Put/Delete/Rename (default 15s; negative
	// disables).
	MutationDeadline time.Duration
	// Retries is how many times a retryable failure is re-attempted after
	// the first try (default 2; negative means 0).
	Retries int
	// RetryBase is the exponential backoff base; attempt n sleeps a
	// uniform random duration in [0, min(RetryBase<<n, RetryMax)] — full
	// jitter (default 5ms).
	RetryBase time.Duration
	// RetryMax caps one backoff sleep (default 250ms).
	RetryMax time.Duration
	// BreakerThreshold is how many consecutive countable failures of one
	// op class trip the breaker open (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before the next
	// mutation attempt transitions it to half-open (default 3s).
	BreakerCooldown time.Duration
	// BreakerProbes is both the number of concurrently admitted half-open
	// probe mutations and the consecutive probe successes required to
	// close (default 2).
	BreakerProbes int
	// Workers bounds the background worker pool that executes backend
	// calls so deadline-abandoned operations cannot pin unbounded
	// goroutines (default 16). A non-blocking backend uses no pool.
	Workers int
	// Obs receives the wrapper's metrics (nil = obs.Default()).
	Obs *obs.Registry
	// OnState, when non-nil, observes every breaker transition. Called
	// outside the breaker lock, in transition order.
	OnState func(from, to BreakerState)
	// Now overrides the clock for cooldown arithmetic (tests).
	Now func() time.Time
	// Sleep overrides the backoff sleep (tests).
	Sleep func(time.Duration)
}

func (o ResilientOptions) withDefaults() ResilientOptions {
	if o.ReadDeadline == 0 {
		o.ReadDeadline = 5 * time.Second
	}
	if o.MutationDeadline == 0 {
		o.MutationDeadline = 15 * time.Second
	}
	switch {
	case o.Retries < 0:
		o.Retries = 0
	case o.Retries == 0:
		o.Retries = 2
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 5 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 250 * time.Millisecond
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 3 * time.Second
	}
	if o.BreakerProbes <= 0 {
		o.BreakerProbes = 2
	}
	if o.Workers <= 0 {
		o.Workers = 16
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// Resilient wraps a Backend with the I/O discipline a remote store
// needs: per-op-class deadlines enforced through a bounded worker pool,
// retry with exponential backoff and full jitter for retryable errors
// only, and a per-backend circuit breaker. It composes with the other
// wrappers in the usual Unwrapper idiom; the server wraps
// Instrumented(Resilient(raw)) so the measured latency includes retries
// and deadline waits. A non-blocking backend (Memory) runs inline on the
// caller's goroutine with the same breaker, retry and metric accounting.
//
// # Retry safety, per operation
//
// Get/Exists/List/TotalBytes are reads — always safe. Put is a full
// overwrite — idempotent. A retried Delete that finds the object gone
// (ErrNotExist on attempt > 0) is treated as success: the previous
// attempt applied before its error surfaced. Rename is safe to retry
// because every Backend implements idempotent completion (retrying a
// partially-applied rename — both names present with equal payloads —
// finishes it); a retry of a fully-applied rename surfaces
// ErrNotExist/ErrExist, which the caller's own existence checks
// disambiguate. A deadline expiry is NEVER retried for any class: the
// abandoned attempt may still apply in its background worker, and a
// concurrent second dispatch could reorder writes.
type Resilient struct {
	inner  Backend
	role   string
	opt    ResilientOptions
	inline bool // inner is nonBlocking: dispatch on the caller's goroutine

	sem chan struct{}

	mu           sync.Mutex
	state        BreakerState
	consecFails  [2]int // indexed by opClass
	openedAt     time.Time
	probeBusy    int
	probeSuccess int

	retriesC     *obs.Counter
	deadlinesC   *obs.Counter
	saturatedC   *obs.Counter
	canceledC    *obs.Counter
	transitionsC map[BreakerState]*obs.Counter
	stateG       *obs.Gauge
}

var (
	_ Backend       = (*Resilient)(nil)
	_ Unwrapper     = (*Resilient)(nil)
	_ ContextGetter = (*Resilient)(nil)
	_ ContextGetter = (*Instrumented)(nil)
)

type opClass int

const (
	classRead opClass = iota
	classMutation
)

// NewResilient wraps inner for the given store role ("content", "group",
// "dedup" — a compile-time set, so the metric label stays inside the
// leak budget).
func NewResilient(inner Backend, role string, opt ResilientOptions) *Resilient {
	opt = opt.withDefaults()
	reg := opt.Obs
	if reg == nil {
		reg = obs.Default()
	}
	roleLabel := obs.Labels{"store": role}
	_, inline := inner.(nonBlocking)
	r := &Resilient{
		inner:  inner,
		role:   role,
		opt:    opt,
		inline: inline,
		sem:    make(chan struct{}, opt.Workers),
		retriesC: reg.Counter("segshare_store_retries_total",
			"Backend operations re-attempted after a retryable failure.", roleLabel),
		deadlinesC: reg.Counter("segshare_store_deadline_exceeded_total",
			"Backend operations abandoned past their per-op-class deadline.", roleLabel),
		saturatedC: reg.Counter("segshare_store_saturated_total",
			"Backend operations rejected because the bounded worker pool was full.", roleLabel),
		canceledC: reg.Counter("segshare_store_canceled_total",
			"Backend operations abandoned because the request context ended first.", roleLabel),
		transitionsC: make(map[BreakerState]*obs.Counter, 3),
		stateG: reg.Gauge("segshare_store_breaker_state",
			"Circuit breaker position: 0 closed, 1 half-open, 2 open.", roleLabel),
	}
	for _, st := range []BreakerState{BreakerClosed, BreakerHalfOpen, BreakerOpen} {
		r.transitionsC[st] = reg.Counter("segshare_store_breaker_transitions_total",
			"Circuit breaker transitions by destination state.",
			obs.Labels{"store": role, "to": st.String()})
	}
	return r
}

// Unwrap returns the wrapped backend.
func (r *Resilient) Unwrap() Backend { return r.inner }

// Role returns the store role this wrapper was created for.
func (r *Resilient) Role() string { return r.role }

// State returns the breaker's current position without side effects
// (the lazy open→half-open transition happens only on admission).
func (r *Resilient) State() BreakerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// MutationsAllowed is the server's degraded-mode preflight: it reports
// whether a mutation reaching this backend right now would be admitted,
// performing the lazy open→half-open transition when the cooldown has
// elapsed. The caller that gets true must actually send the mutation —
// that is what consumes a probe slot and lets the breaker close again;
// gating all mutations on State() alone would deadlock the recovery.
func (r *Resilient) MutationsAllowed() bool {
	r.mu.Lock()
	notify := r.maybeHalfOpenLocked()
	allowed := r.state == BreakerClosed ||
		(r.state == BreakerHalfOpen && r.probeBusy < r.opt.BreakerProbes)
	r.mu.Unlock()
	r.fire(notify)
	return allowed
}

// maybeHalfOpenLocked performs the lazy open→half-open transition once
// the cooldown elapsed. Caller holds r.mu; returned transitions must be
// fired after unlock.
func (r *Resilient) maybeHalfOpenLocked() []breakerTransition {
	if r.state == BreakerOpen && r.opt.Now().Sub(r.openedAt) >= r.opt.BreakerCooldown {
		return r.transitionLocked(BreakerHalfOpen)
	}
	return nil
}

type breakerTransition struct{ from, to BreakerState }

func (r *Resilient) transitionLocked(to BreakerState) []breakerTransition {
	from := r.state
	if from == to {
		return nil
	}
	r.state = to
	r.stateG.Set(stateGaugeValue(to))
	r.transitionsC[to].Inc()
	switch to {
	case BreakerOpen:
		r.openedAt = r.opt.Now()
		r.probeSuccess = 0
	case BreakerHalfOpen:
		r.probeSuccess = 0
	case BreakerClosed:
		r.consecFails = [2]int{}
		r.probeSuccess = 0
	}
	return []breakerTransition{{from: from, to: to}}
}

func stateGaugeValue(s BreakerState) int64 {
	switch s {
	case BreakerHalfOpen:
		return 1
	case BreakerOpen:
		return 2
	default:
		return 0
	}
}

// fire delivers transition notifications outside the breaker lock.
func (r *Resilient) fire(ts []breakerTransition) {
	if r.opt.OnState == nil {
		return
	}
	for _, t := range ts {
		r.opt.OnState(t.from, t.to)
	}
}

// admit decides whether to dispatch one logical operation. Reads always
// pass (an open breaker must not block cache fills or journal-recovery
// reads); mutations consume a probe slot in half-open and are rejected
// outright while open.
func (r *Resilient) admit(class opClass) (probe bool, err error) {
	if class == classRead {
		return false, nil
	}
	r.mu.Lock()
	notify := r.maybeHalfOpenLocked()
	switch r.state {
	case BreakerClosed:
	case BreakerOpen:
		err = fmt.Errorf("%w: %s store", ErrCircuitOpen, r.role)
	case BreakerHalfOpen:
		if r.probeBusy >= r.opt.BreakerProbes {
			err = fmt.Errorf("%w: %s store (probe budget exhausted)", ErrCircuitOpen, r.role)
		} else {
			r.probeBusy++
			probe = true
		}
	}
	r.mu.Unlock()
	r.fire(notify)
	return probe, err
}

// settle records one logical operation's final outcome on the breaker.
// Semantic results (ErrNotExist/ErrExist) are backend health signals of
// success, not failure — and so is a caller-side context cancellation,
// which says nothing about backend health.
func (r *Resilient) settle(class opClass, probe bool, err error) {
	failure := err != nil && !errors.Is(err, ErrNotExist) && !errors.Is(err, ErrExist) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
	r.mu.Lock()
	var notify []breakerTransition
	if probe {
		r.probeBusy--
	}
	switch r.state {
	case BreakerClosed:
		if failure {
			r.consecFails[class]++
			if r.consecFails[class] >= r.opt.BreakerThreshold {
				notify = r.transitionLocked(BreakerOpen)
			}
		} else {
			r.consecFails[class] = 0
		}
	case BreakerHalfOpen:
		// Only admitted probes decide the half-open verdict; reads flow
		// freely and a read-class success must not close a breaker that
		// opened on failing mutations.
		if probe {
			if failure {
				notify = r.transitionLocked(BreakerOpen)
			} else {
				r.probeSuccess++
				if r.probeSuccess >= r.opt.BreakerProbes {
					notify = r.transitionLocked(BreakerClosed)
				}
			}
		}
	case BreakerOpen:
		// Outcomes of reads (and of mutations admitted before the trip)
		// don't move an open breaker; only the cooldown does.
	}
	r.mu.Unlock()
	r.fire(notify)
}

// dispatch runs fn in a bounded worker and waits for it up to the
// class deadline. On expiry the worker keeps running (it still holds
// its pool slot until fn returns) but the caller gets its budget back.
func (r *Resilient) dispatch(op string, deadline time.Duration, fn func() error) error {
	return r.dispatchCtx(nil, op, deadline, fn)
}

// dispatchCtx is dispatch with an optional caller context: when ctx ends
// before fn completes, the caller stops waiting (the worker keeps its
// pool slot until fn returns, exactly like a deadline expiry) and gets a
// context error back. A nil ctx waits on the deadline alone. For a
// nonBlocking backend fn runs on the caller's goroutine instead; a
// context that already ended is refused before the call.
func (r *Resilient) dispatchCtx(ctx context.Context, op string, deadline time.Duration, fn func() error) error {
	if r.inline {
		if ctx != nil && ctx.Err() != nil {
			return r.canceled(ctx, op)
		}
		return fn()
	}
	select {
	case r.sem <- struct{}{}:
	default:
		r.saturatedC.Inc()
		return fmt.Errorf("%w: %s %s", ErrSaturated, r.role, op)
	}
	done := make(chan error, 1)
	go func() {
		defer func() { <-r.sem }()
		done <- fn()
	}()
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	var timerC <-chan time.Time
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		defer timer.Stop()
		timerC = timer.C
	}
	select {
	case err := <-done:
		return err
	case <-timerC:
		r.deadlinesC.Inc()
		return fmt.Errorf("%w: %s %s after %v", ErrDeadlineExceeded, r.role, op, deadline)
	case <-ctxDone:
		return r.canceled(ctx, op)
	}
}

// canceled counts and reports an operation the caller's context ended.
func (r *Resilient) canceled(ctx context.Context, op string) error {
	r.canceledC.Inc()
	return fmt.Errorf("store: %s %s canceled: %w", r.role, op, context.Cause(ctx))
}

// retryable reports whether a failed attempt may be re-dispatched.
// Semantic results are final; deadline expiries must not be retried
// (the attempt may still apply — see the type comment); an open circuit
// is rejected before dispatch and retrying it would only spin; a
// context cancellation means the caller is gone — retrying would burn a
// worker slot for a result nobody reads.
func retryable(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, ErrNotExist),
		errors.Is(err, ErrExist),
		errors.Is(err, ErrDeadlineExceeded),
		errors.Is(err, ErrCircuitOpen),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	}
	return true
}

// do runs one logical backend operation: breaker admission, then up to
// 1+Retries dispatch attempts with full-jitter backoff between them,
// then one breaker settlement with the final outcome.
func (r *Resilient) do(op string, class opClass, fn func() error) error {
	return r.doCtx(nil, op, class, fn)
}

// doCtx is do with an optional caller context threaded into each
// dispatch. A cancellation is terminal (never retried) and settles the
// breaker as a non-failure.
func (r *Resilient) doCtx(ctx context.Context, op string, class opClass, fn func() error) error {
	probe, err := r.admit(class)
	if err != nil {
		return err
	}
	deadline := r.opt.ReadDeadline
	if class == classMutation {
		deadline = r.opt.MutationDeadline
	}
	for attempt := 0; ; attempt++ {
		err = r.dispatchCtx(ctx, op, deadline, fn)
		if err == nil || attempt >= r.opt.Retries || !retryable(err) {
			break
		}
		r.retriesC.Inc()
		r.opt.Sleep(r.backoff(attempt))
	}
	if op == "delete" && err != nil && errors.Is(err, ErrNotExist) && r.deleteAppliedEarlier(err) {
		err = nil
	}
	r.settle(class, probe, err)
	return err
}

// backoff returns the full-jitter sleep before re-attempt n+1:
// uniform in [0, min(RetryBase<<n, RetryMax)].
func (r *Resilient) backoff(attempt int) time.Duration {
	ceil := r.opt.RetryBase << uint(attempt)
	if ceil > r.opt.RetryMax || ceil <= 0 {
		ceil = r.opt.RetryMax
	}
	return time.Duration(rand.Int63n(int64(ceil) + 1))
}

// deleteAppliedEarlier reports whether an ErrNotExist from Delete is the
// echo of an earlier attempt of the same logical call that applied
// before its error surfaced. Tracked per call via the retried marker.
func (r *Resilient) deleteAppliedEarlier(err error) bool {
	var m *retriedMarker
	return errors.As(err, &m)
}

// retriedMarker wraps an error returned by a retry attempt (attempt>0)
// so post-loop policy can distinguish "first answer" from "answer after
// the backend already absorbed an attempt".
type retriedMarker struct{ err error }

func (m *retriedMarker) Error() string { return m.err.Error() }
func (m *retriedMarker) Unwrap() error { return m.err }

// Put implements Backend.
func (r *Resilient) Put(name string, data []byte) error {
	return r.do("put", classMutation, func() error { return r.inner.Put(name, data) })
}

// Get implements Backend.
func (r *Resilient) Get(name string) ([]byte, error) {
	return r.GetContext(nil, name)
}

// GetContext implements ContextGetter: a Get whose wait is additionally
// bounded by the caller's context. The inner backend call is not
// interrupted — it runs to completion in its bounded worker — but the
// caller stops waiting, stops retrying, and the abandoned result is
// dropped. For a non-blocking backend ctx is checked once, before the call.
func (r *Resilient) GetContext(ctx context.Context, name string) ([]byte, error) {
	var out []byte
	err := r.doCtx(ctx, "get", classRead, func() error {
		data, err := r.inner.Get(name)
		if err != nil {
			return err
		}
		out = data
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Delete implements Backend. An ErrNotExist surfaced by a retry attempt
// — after an earlier attempt of the same call already reached the
// backend — reports success: the delete applied, only its first
// acknowledgment was lost.
func (r *Resilient) Delete(name string) error {
	attempts := 0
	return r.do("delete", classMutation, func() error {
		attempts++
		err := r.inner.Delete(name)
		if attempts > 1 && err != nil && errors.Is(err, ErrNotExist) {
			return &retriedMarker{err: err}
		}
		return err
	})
}

// Rename implements Backend. Safe to retry because every Backend
// completes a partially-applied rename idempotently (equal payloads
// under both names → finish by removing the old one).
func (r *Resilient) Rename(oldName, newName string) error {
	return r.do("rename", classMutation, func() error { return r.inner.Rename(oldName, newName) })
}

// Exists implements Backend.
func (r *Resilient) Exists(name string) (bool, error) {
	var out bool
	err := r.do("exists", classRead, func() error {
		ok, err := r.inner.Exists(name)
		out = ok
		return err
	})
	return out, err
}

// List implements Backend.
func (r *Resilient) List() ([]string, error) {
	var out []string
	err := r.do("list", classRead, func() error {
		names, err := r.inner.List()
		out = names
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TotalBytes implements Backend.
func (r *Resilient) TotalBytes() (int64, error) {
	var out int64
	err := r.do("bytes", classRead, func() error {
		n, err := r.inner.TotalBytes()
		out = n
		return err
	})
	return out, err
}
