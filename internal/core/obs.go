package core

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"segshare/internal/audit"
	"segshare/internal/cache"
	"segshare/internal/obs"
)

// serverObs bundles the server's observability state: the metric
// registry, the per-request trace recorder, the structured logger, and
// the tamper-evident audit sink. Every signal leaving this struct except
// the audit log crosses the enclave boundary, so all of it is
// op-class-and-aggregate only — request identity (user, group, path)
// stays inside (see the leak budget in package obs). Audit records DO
// carry identity, which is why they are sealed before they reach storage
// (package audit).
type serverObs struct {
	reg    *obs.Registry
	logger *slog.Logger
	traces *obs.TraceRecorder

	// audit is nil unless Config.AuditStore is set; set once during
	// NewServer, before any request runs.
	audit *audit.Log

	// Rollback hash-tree instruments (paper §V-D/E hot paths).
	treeUpdateDepth   *obs.Histogram
	treeValidateDepth *obs.Histogram
	rollbackFailures  *obs.Counter

	// Lock-manager wait histograms, pre-registered per scope so the hot
	// acquisition path never takes the registry lock. Scopes are the
	// closed compile-time set in locks.go; durations only, no identity.
	lockWaits map[string]*obs.Histogram

	// exporter ships wide events and sampled traces off the request path;
	// nil discards them (Enqueue* are nil-safe). Set once in NewServer.
	exporter  *obs.Exporter
	wideTotal *obs.Counter

	// reqMetrics caches per-op request instruments so the finish-request
	// hot path never rebuilds label maps or takes the registry lock. Op
	// and status classes are closed compile-time sets, so the cache is
	// bounded.
	reqMetrics sync.Map // op string -> *opRequestMetrics
	bodyIn     *obs.Counter
	bodyOut    *obs.Counter

	// slo evaluates burn rates over the request stream.
	slo *obs.SLOEngine
	// hot is the per-group heavy-hitter sketch and pseud the keyed
	// pseudonymizer feeding it.
	hot   *obs.TopK
	pseud *obs.Pseudonymizer
	// profiler receives capture triggers on watchdog and SLO fast-burn
	// transitions; nil when the deployment runs without the continuous
	// profiler. The caller owns its lifecycle.
	profiler *obs.ContinuousProfiler

	// degraded reports whether a content, group or dedup store circuit
	// breaker is not closed — the same exported bit as
	// segshare_store_breaker_state — so every request served during a
	// degraded episode carries the wide-event flag. Set by NewServer.
	degraded func() bool

	// Overload-resilience instruments (DESIGN §16): client-cancelled
	// requests (HTTP 499) and the graceful-drain outcome. The admission
	// limiter registers its own per-class instruments (admission.go).
	cancelled      *obs.Counter
	drainNs        *obs.Gauge
	drainRemaining *obs.Gauge
}

// opRequestMetrics holds one op class's request instruments. Status-class
// counters fill in lazily (indexed by the status' hundreds digit) so the
// exported series match what the server has actually answered.
type opRequestMetrics struct {
	latency *obs.Histogram
	byCode  [6]atomic.Pointer[obs.Counter]
}

// auditEmit forwards one security event that belongs to no request (key
// operations, breaker, SLO, watchdog, drain) to the audit log, if
// enabled.
func (o *serverObs) auditEmit(ev audit.Event) { o.auditEmitStats(nil, ev) }

// auditEmitStats forwards one request's security event, charging the
// enqueue — a channel send that only OverflowBlock can stall — to the
// request's stats, so the wide event's auditEnqueueNsLe shows it.
func (o *serverObs) auditEmitStats(rs *obs.ReqStats, ev audit.Event) {
	if o.audit == nil {
		return
	}
	start := time.Now()
	o.audit.Emit(ev)
	rs.AddAuditEnqueue(time.Since(start))
}

func newServerObs(reg *obs.Registry, logger *slog.Logger) *serverObs {
	if reg == nil {
		reg = obs.Default()
	}
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	lockWaits := make(map[string]*obs.Histogram, len(lockScopes))
	for _, scope := range lockScopes {
		lockWaits[scope] = reg.Histogram("segshare_lock_wait_ns",
			"Request lock acquisition wait by lock scope (ns).", obs.Labels{"scope": scope})
	}
	traces := obs.NewTraceRecorder(obs.DefaultTraceCapacity)
	traces.SetActiveGauge(reg.Gauge("segshare_requests_inflight",
		"Requests currently being handled, HTTP and direct sessions alike (the trace recorder's live set).", nil))
	return &serverObs{
		reg:               reg,
		logger:            logger,
		traces:            traces,
		wideTotal:         reg.Counter("segshare_wide_events_total", "Wide events emitted (one per finished request).", nil),
		treeUpdateDepth:   reg.Histogram("segshare_rollback_tree_update_depth", "Ancestor levels written per rollback-tree update.", nil),
		treeValidateDepth: reg.Histogram("segshare_rollback_tree_validate_depth", "Ancestor levels checked per rollback-tree validation.", nil),
		rollbackFailures:  reg.Counter("segshare_rollback_failures_total", "Requests rejected by rollback/integrity verification.", nil),
		lockWaits:         lockWaits,
		bodyIn:            reg.Counter("segshare_request_body_bytes_total", "Request body bytes received.", nil),
		bodyOut:           reg.Counter("segshare_response_body_bytes_total", "Response body bytes sent.", nil),
		cancelled: reg.Counter("segshare_requests_cancelled_total",
			"Requests that ended because the client disconnected first (HTTP 499).", nil),
		drainNs: reg.Gauge("segshare_drain_ns",
			"Duration of the last graceful-drain wait (ns); 0 until a drain runs.", nil),
		drainRemaining: reg.Gauge("segshare_drain_remaining",
			"Requests still in flight when the drain deadline expired (0 after a clean drain).", nil),
	}
}

// requestMetrics returns op's cached instruments, registering them on
// first use.
func (o *serverObs) requestMetrics(op string) *opRequestMetrics {
	if m, ok := o.reqMetrics.Load(op); ok {
		return m.(*opRequestMetrics)
	}
	m := &opRequestMetrics{latency: o.reg.Histogram("segshare_request_ns",
		"End-to-end request handling latency (ns).", obs.Labels{"op": op})}
	actual, _ := o.reqMetrics.LoadOrStore(op, m)
	return actual.(*opRequestMetrics)
}

// lockWait records how long one lock acquisition blocked, by scope.
func (o *serverObs) lockWait(scope string, d time.Duration) {
	if h, ok := o.lockWaits[scope]; ok {
		h.ObserveDuration(d)
	}
}

// cacheHooks wires the in-enclave cache's events into the registry:
// hit/miss/eviction counts and occupancy are aggregate-only, never per
// key.
func (o *serverObs) cacheHooks() cache.Hooks {
	hits := o.reg.Counter("segshare_cache_hits_total", "In-enclave cache hits.", nil)
	misses := o.reg.Counter("segshare_cache_misses_total", "In-enclave cache misses.", nil)
	evictions := o.reg.Counter("segshare_cache_evictions_total", "In-enclave cache CLOCK evictions.", nil)
	entries := o.reg.Gauge("segshare_cache_entries", "In-enclave cache occupancy (entries).", nil)
	bytes := o.reg.Gauge("segshare_cache_bytes", "In-enclave cache occupancy (bytes charged).", nil)
	return cache.Hooks{
		Hit:   hits.Inc,
		Miss:  misses.Inc,
		Evict: evictions.Inc,
		Size: func(n int, cost int64) {
			entries.Set(int64(n))
			bytes.Set(cost)
		},
	}
}

// observeRequest records one finished request: counter by op class and
// status class, latency histogram by op class (carrying the request's
// trace id as an exemplar), and byte traffic.
func (o *serverObs) observeRequest(op string, status int, dur time.Duration, bytesIn, bytesOut int64, traceID uint64) {
	m := o.requestMetrics(op)
	idx := status / 100
	if idx < 1 {
		idx = 1
	} else if idx > 5 {
		idx = 5
	}
	ctr := m.byCode[idx].Load()
	if ctr == nil {
		// The registry returns the same counter for the same (op, code),
		// so a racing double-store is benign.
		ctr = o.reg.Counter("segshare_requests_total", "Handled requests by operation class and status class.",
			obs.Labels{"op": op, "code": statusClass(status)})
		m.byCode[idx].Store(ctr)
	}
	ctr.Inc()
	m.latency.ObserveDurationWithExemplar(dur, traceID)
	if bytesIn > 0 {
		o.bodyIn.Add(uint64(bytesIn))
	}
	if bytesOut > 0 {
		o.bodyOut.Add(uint64(bytesOut))
	}
}

// finishRequest is the single chokepoint every finished request —
// HTTP-handled or DirectSession — funnels through. It closes the trace
// (the tail-sampling decision happens inside End, and the request
// leaves the live set), charges the request's group in the heavy-hitter
// sketch, updates the aggregate metrics with the request's trace id as
// an exemplar, and emits the canonical wide event. Returns whether the
// trace was sampled, for the request log line.
func (o *serverObs) finishRequest(op string, status int, dur time.Duration, bytesIn, bytesOut int64, tr *obs.Trace, rs *obs.ReqStats) (sampled bool) {
	traceID := tr.ID()
	tr.Annotate("bytes_in", bytesIn)
	tr.Annotate("bytes_out", bytesOut)
	tr.Annotate(obs.LockWaitAnnotation, rs.LockWaitNs())
	tr.SetStatus(status)
	sampled = tr.End()
	if g := tr.Group(); g != "" {
		o.hot.Offer(g, 1, uint64(bytesIn+bytesOut))
	}
	if status == StatusClientClosedRequest {
		o.cancelled.Inc()
	}
	o.slo.Record(op, status, dur)
	o.observeRequest(op, status, dur, bytesIn, bytesOut, traceID)
	o.exporter.EnqueueEvent(obs.NewWideEvent(op, statusClass(status), traceID, sampled, dur, bytesIn, bytesOut, rs))
	o.wideTotal.Inc()
	return sampled
}

// beginRequest opens the per-request telemetry: the trace, which enters
// the recorder's live set until finishRequest ends it.
func (o *serverObs) beginRequest(op string, rs *obs.ReqStats) *obs.Trace {
	if o.degraded != nil && o.degraded() {
		rs.MarkDegraded()
	}
	return o.traces.Start(op, rs)
}

// tagRequestGroup attributes the request's traffic to a group for the
// heavy-hitter sketch. The group id is pseudonymized here, before it is
// stored anywhere — the trace and sketch only ever see the keyed
// pseudonym. Called from the request's own goroutine by the request
// layer (newRequest, then record for group-targeted mutations); later
// calls overwrite, so a group-management request is charged to its
// target group rather than the caller's default group.
func (o *serverObs) tagRequestGroup(tr *obs.Trace, groupID string) {
	if groupID == "" {
		return
	}
	tr.SetGroup(o.pseud.Pseudonym(groupID))
}

func statusClass(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	case status >= 300:
		return "3xx"
	case status >= 200:
		return "2xx"
	default:
		return "1xx"
	}
}
