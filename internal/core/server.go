package core

import (
	"context"
	"crypto/ecdsa"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"encoding/pem"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"segshare/internal/audit"
	"segshare/internal/enclave"
	"segshare/internal/enctls"
	"segshare/internal/obs"
	"segshare/internal/rollback"
	"segshare/internal/store"
)

// GuardKind selects the whole-file-system rollback protection strategy
// (paper §V-E).
type GuardKind int

const (
	// GuardNone disables whole-file-system rollback protection.
	GuardNone GuardKind = iota + 1
	// GuardProtectedMemory binds root hashes to enclave protected memory.
	GuardProtectedMemory
	// GuardCounter binds root hashes to enclave monotonic counters.
	GuardCounter
)

// Features selects the optional SeGShare extensions (paper §V).
type Features struct {
	// Dedup enables server-side deduplication (§V-A).
	Dedup bool `json:"dedup"`
	// HidePaths enables filename and directory-structure hiding (§V-C).
	HidePaths bool `json:"hidePaths"`
	// RollbackProtection enables the per-file rollback tree (§V-D).
	RollbackProtection bool `json:"rollbackProtection"`
	// Guard selects the whole-file-system guard (§V-E); requires
	// RollbackProtection. Zero value means GuardNone.
	Guard GuardKind `json:"guard"`
}

// Config configures a SeGShare server.
type Config struct {
	// CACertPEM is the certificate of the trusted CA. It is part of the
	// enclave's measured code identity, so enclaves built for different
	// CAs attest differently (paper §III-B).
	CACertPEM []byte
	// Version is the enclave version (ISVSVN equivalent).
	Version uint32
	// ContentStore, GroupStore, and DedupStore are the untrusted stores
	// (paper §IV-B, §V-A). DedupStore may be nil when Features.Dedup is
	// off.
	ContentStore store.Backend
	GroupStore   store.Backend
	DedupStore   store.Backend
	// Features selects the enabled extensions. Features are part of the
	// measured identity: an operator cannot silently disable rollback
	// protection without changing the measurement.
	Features Features
	// FileSystemOwner optionally names the FSO user whose default group
	// becomes the root directory's owner on first contact.
	FileSystemOwner string
	// RootKey optionally injects SK_r obtained through the replication
	// protocol (paper §V-F). When set, the sealed key in storage is
	// ignored and nothing is persisted: replicas re-run replication after
	// a restart.
	RootKey []byte
	// CacheBytes bounds the one in-enclave cache (decoded ACLs, member
	// lists, group list, directory bodies, derived file keys, verified
	// mains), shared by all of them. Zero means the default (8 MiB);
	// negative disables caching.
	CacheBytes int64
	// Resilience tunes the store.Resilient wrapper around every store
	// (DESIGN §15): per-op-class deadlines, retry with backoff for
	// retryable errors, and a per-backend circuit breaker. Nil means the
	// defaults; the wrapper is always on. An open content, group or dedup
	// breaker flips the server into degraded read-only mode: mutations
	// fail fast with ErrDegraded at the mutate() chokepoint while reads
	// keep flowing, CheckDegraded reports the episode for /readyz, every
	// such breaker transition emits an EventDegraded audit record, and
	// affected requests carry the degraded wide-event flag. The audit
	// store's breaker does none of these. The Obs field is overwritten by
	// the server during wiring; OnState is chained.
	Resilience *store.ResilientOptions
	// Bridge tunes the switchless call bridge.
	Bridge enclave.BridgeConfig
	// Logger receives structured request logs (request id, operation
	// class, status, duration — never paths, users, or groups). Nil means
	// discard, which keeps tests and benchmarks quiet.
	Logger *slog.Logger
	// Obs is the metric registry the server and all its components
	// (bridge, stores, dedup, rollback tree) report into. Nil means
	// obs.Default(). Exported telemetry is bounded by the leak budget
	// documented in package obs.
	Obs *obs.Registry
	// Deprecated: ignored. Every mutation commits through the intent
	// journal, which cannot be turned off.
	DisableJournal bool
	// AuditStore, when non-nil, enables the tamper-evident audit log:
	// security events (authn, authz decisions, ACL/group mutations,
	// rollback failures, key operations) are sealed under keys derived
	// from SK_r and appended to hash-chained segments in this backend.
	AuditStore store.Backend
	// Audit tunes the audit writer (overflow policy, buffer sizes,
	// checkpoint cadence). Ignored when AuditStore is nil.
	Audit audit.Options
	// Deprecated: ignored. Every request emits its wide event.
	DisableWideEvents bool
	// SamplePolicy selects which finished request traces are retained
	// and exported (tail-based sampling); nil means
	// obs.DefaultSamplePolicy() — slow, errored, contended, and a 1-in-N
	// floor.
	SamplePolicy *obs.SamplePolicy
	// Exporter, when non-nil, receives every wide event and each sampled
	// trace on a bounded async queue. The server does not own it: the
	// caller Closes it after Server.Close so the final batch drains.
	Exporter *obs.Exporter
	// Watchdog tunes the stall watchdog, which always runs; zero fields
	// take the defaults.
	Watchdog WatchdogConfig
	// SLO tunes the per-op-class burn-rate engine that always watches the
	// request stream (objectives, windows, thresholds — see
	// obs.SLOConfig); nil means the defaults. Breaches emit an audit
	// event, force-sample traces of the offending op class, and (fast
	// burns) trigger a profile capture. Its LatencyThreshold is also the
	// admission limiter's AIMD target. PerOpLatency keys must name op
	// classes and their durations must be positive; NewServer rejects
	// the configuration otherwise. The engine's Obs and OnBreach fields
	// are overwritten by the server during wiring.
	SLO *obs.SLOConfig
	// Deprecated: ignored. The per-group heavy-hitter sketch behind
	// /debug/hot always holds obs.DefaultHotK slots.
	HotGroups int
	// Deprecated: ignored. The trace recorder's live set, which answers
	// /debug/requests, cannot be turned off.
	DisableRequestRegistry bool
	// Profiler, when non-nil, receives capture triggers on watchdog
	// stall transitions and SLO fast-burn breaches. The caller owns it
	// (create before NewServer, Stop after Server.Close).
	Profiler *obs.ContinuousProfiler
	// Recovery, when non-nil, is the journal-recovery state the server
	// publishes progress into. Journal replay runs synchronously inside
	// NewServer, so a caller that wants /readyz to gate on it must create
	// the state and register its readiness check before calling NewServer.
	// Nil means the server allocates its own (see Server.Recovery).
	Recovery *RecoveryState
	// Admission tunes adaptive admission control, which always guards
	// the HTTP request path: per-op-class AIMD concurrency limits with a
	// bounded wait queue and priority shedding (DESIGN §16). Nil means
	// the defaults.
	Admission *AdmissionConfig
	// MaxBodyBytes caps request bodies via http.MaxBytesReader; requests
	// exceeding it get a leak-safe 413. 0 means the default (64 MiB),
	// negative disables the cap.
	MaxBodyBytes int64
}

// WatchdogConfig tunes the stall watchdog (see obs.Watchdog). All
// durations default when zero.
type WatchdogConfig struct {
	// Deprecated: ignored. The watchdog always runs.
	Enable bool
	// Interval is the sweep cadence (default 1s).
	Interval time.Duration
	// RequestDeadline flags any in-flight request older than this
	// (default 30s).
	RequestDeadline time.Duration
	// RecoveryOverrun flags a journal recovery pass running longer than
	// this (default 30s).
	RecoveryOverrun time.Duration
	// Deprecated: ignored. The path-lock shards it watched are gone.
	ShardSkew time.Duration
}

// sloForceSampleNext is how many upcoming requests of a breached op
// class the SLO engine force-samples (in addition to every request of
// that class already in flight at breach time), so the trace ring holds
// evidence from inside the bad period.
const sloForceSampleNext = 25

// defaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is
// zero: large enough for any realistic file PUT through this API (which
// buffers bodies in enclave memory), small enough that one upload
// cannot hold gigabytes of enclave memory, or a core for the seconds it
// takes to seal them.
const defaultMaxBodyBytes = 64 << 20

func (w WatchdogConfig) withDefaults() WatchdogConfig {
	if w.Interval <= 0 {
		w.Interval = time.Second
	}
	if w.RequestDeadline <= 0 {
		w.RequestDeadline = 30 * time.Second
	}
	if w.RecoveryOverrun <= 0 {
		w.RecoveryOverrun = 30 * time.Second
	}
	return w
}

// Server is one SeGShare enclave with its untrusted plumbing: the call
// bridge, the split TLS stack, the trusted file manager, the access
// control component, and the request handler.
type Server struct {
	cfg      Config
	enclave  *enclave.Enclave
	bridge   *enclave.Bridge
	endpoint *enctls.TrustedEndpoint
	caPub    *ecdsa.PublicKey
	caPool   *x509.CertPool

	certifier *Certifier
	fm        *fileManager
	ac        *accessControl
	obs       *serverObs

	// locks schedules request concurrency: a whole-tree barrier and a
	// group-store lock (see locks.go).
	locks *lockManager
	// reset tracks the outstanding backup-restoration challenge (§V-G).
	reset resetState
	// recovery publishes journal-recovery progress for readiness gating
	// and the watchdog.
	recovery *RecoveryState
	// resilient holds the content, group and dedup store wrappers, for
	// degraded-mode readiness checks.
	resilient []*store.Resilient
	// watchdog is the stall detector.
	watchdog *obs.Watchdog

	// admission is the adaptive admission controller (see admission.go).
	admission *admissionController
	// maxBody is the resolved request-body cap; <= 0 disables it.
	maxBody int64
	// draining is set by Drain: new requests are rejected with 503 +
	// Retry-After while in-flight ones complete.
	draining atomic.Bool

	httpServer *http.Server
	terminator *enctls.UntrustedTerminator
	serveOnce  sync.Once
	closeOnce  sync.Once
	drainOnce  sync.Once
}

// codeIdentity derives the enclave's measured identity from the
// configuration that must be attested: CA certificate, version, features,
// and FSO.
func codeIdentity(cfg Config) (enclave.CodeIdentity, error) {
	measured, err := json.Marshal(struct {
		CACertPEM []byte   `json:"caCertPem"`
		Features  Features `json:"features"`
		FSO       string   `json:"fso"`
	}{CACertPEM: cfg.CACertPEM, Features: cfg.Features, FSO: cfg.FileSystemOwner})
	if err != nil {
		return enclave.CodeIdentity{}, err
	}
	return enclave.CodeIdentity{Name: "segshare", Version: cfg.Version, Config: measured}, nil
}

// CodeIdentityFor returns the enclave code identity a server with this
// configuration launches with, e.g. so a replication requester can run
// under the same measurement.
func CodeIdentityFor(cfg Config) (enclave.CodeIdentity, error) {
	return codeIdentity(cfg)
}

// ExpectedMeasurement computes the measurement a CA should expect for a
// given configuration, without launching anything.
func ExpectedMeasurement(cfg Config) (enclave.Measurement, error) {
	code, err := codeIdentity(cfg)
	if err != nil {
		return enclave.Measurement{}, err
	}
	return code.Measurement(), nil
}

// NewServer launches the SeGShare enclave on the platform and assembles
// the server. The returned server has no TLS identity yet unless a
// previously provisioned certificate is found in storage; run the CA's
// ProvisionServer against Certifier() before Serve.
func NewServer(platform *enclave.Platform, cfg Config) (_ *Server, err error) {
	if cfg.ContentStore == nil || cfg.GroupStore == nil {
		return nil, errors.New("segshare: content and group stores are required")
	}
	if cfg.Features.Dedup && cfg.DedupStore == nil {
		return nil, errors.New("segshare: dedup feature requires a dedup store")
	}
	if cfg.Features.Guard != 0 && cfg.Features.Guard != GuardNone && !cfg.Features.RollbackProtection {
		return nil, errors.New("segshare: whole-file-system guard requires rollback protection")
	}
	sloCfg := obs.SLOConfig{}
	if cfg.SLO != nil {
		sloCfg = *cfg.SLO
	}
	if err := checkSLO(sloCfg); err != nil {
		return nil, err
	}
	// The threshold is resolved here, not left to the engine's default,
	// because the admission limiter's AIMD target is the same number:
	// "overloaded" and "missing the SLO" mean the same thing.
	if sloCfg.LatencyThreshold == 0 {
		sloCfg.LatencyThreshold = defaultSLOLatency
	}

	// undo releases, newest first, what NewServer started before a later
	// step failed: the audit writer, the bridge and endpoint, the SLO
	// evaluator and the watchdog all run goroutines.
	var undo []func()
	defer func() {
		if err != nil {
			for i := len(undo) - 1; i >= 0; i-- {
				undo[i]()
			}
		}
	}()

	sObs := newServerObs(cfg.Obs, cfg.Logger)
	sObs.exporter = cfg.Exporter
	// Tail-based sampling: the policy decides at End which traces stay in
	// the ring; sampled ones additionally flow to the exporter.
	policy := cfg.SamplePolicy
	if policy == nil {
		policy = obs.DefaultSamplePolicy()
	}
	sObs.traces.SetPolicy(policy)
	sObs.traces.SetOnEnd(func(tr *obs.Trace, sampled bool) {
		if sampled {
			sObs.exporter.EnqueueTrace(tr.Snapshot())
		}
	})
	if sObs.pseud, err = obs.NewPseudonymizer(); err != nil {
		return nil, err
	}
	sObs.hot = obs.NewTopK(obs.DefaultHotK)
	sObs.profiler = cfg.Profiler
	if cfg.Exporter != nil {
		hot := sObs.hot
		cfg.Exporter.SetMeta(func() obs.BatchMeta {
			h := hot.Snapshot()
			return obs.BatchMeta{Hot: &h} // the exporter fills time/depth/drops
		})
	}
	// Every store gets one store.Resilient (DESIGN §15): deadlines,
	// retries, a circuit breaker and the per-operation metrics, measured
	// over the whole logical call — retries, deadline waits and fast
	// failures included. The content, group and dedup breakers gate
	// mutations (degraded read-only mode) and their transitions feed the
	// audit trail; sObs.audit is nil until the log opens below, and
	// auditEmit tolerates that (pre-launch transitions cannot happen — no
	// request runs yet). The audit store's breaker gates nothing: audit
	// failures never blocked a mutation.
	var resOpt store.ResilientOptions
	if cfg.Resilience != nil {
		resOpt = *cfg.Resilience
	}
	resOpt.Obs = sObs.reg
	var gated []*store.Resilient
	wrapGated := func(b store.Backend, role string) store.Backend {
		opt := resOpt
		opt.OnState = func(from, to store.BreakerState) {
			sObs.auditEmit(audit.Event{
				Event:  audit.EventDegraded,
				Detail: role + " " + from.String() + "->" + to.String(),
			})
			if resOpt.OnState != nil {
				resOpt.OnState(from, to)
			}
		}
		rw := store.NewResilient(b, role, opt)
		gated = append(gated, rw)
		return rw
	}
	cfg.ContentStore = wrapGated(cfg.ContentStore, "content")
	cfg.GroupStore = wrapGated(cfg.GroupStore, "group")
	if cfg.DedupStore != nil {
		cfg.DedupStore = wrapGated(cfg.DedupStore, "dedup")
	}
	if cfg.AuditStore != nil {
		cfg.AuditStore = store.NewResilient(cfg.AuditStore, "audit", resOpt)
	}
	// Wide events carry a degraded flag for every request that runs
	// during an episode, not only the rejected mutations.
	sObs.degraded = func() bool {
		for _, rw := range gated {
			if rw.State() != store.BreakerClosed {
				return true
			}
		}
		return false
	}
	if cfg.Bridge.Obs == nil {
		cfg.Bridge.Obs = sObs.reg
	}

	block, _ := pem.Decode(cfg.CACertPEM)
	if block == nil {
		return nil, errors.New("segshare: invalid CA certificate PEM")
	}
	caCert, err := x509.ParseCertificate(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("segshare: parse CA certificate: %w", err)
	}
	caPub, ok := caCert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return nil, errors.New("segshare: CA key must be ECDSA")
	}
	pool := x509.NewCertPool()
	pool.AddCert(caCert)

	code, err := codeIdentity(cfg)
	if err != nil {
		return nil, err
	}
	encl, err := platform.Launch(code)
	if err != nil {
		return nil, err
	}

	rootKey := cfg.RootKey
	keyOrigin := "root_replicated" // injected via §V-F replication
	if rootKey == nil {
		rootKey, keyOrigin, err = loadOrCreateRootKey(encl, cfg.GroupStore)
		if err != nil {
			return nil, err
		}
	}

	if cfg.AuditStore != nil {
		auditKeys, err := audit.DeriveKeys(rootKey)
		if err != nil {
			return nil, err
		}
		auditOpt := cfg.Audit
		if auditOpt.Obs == nil {
			auditOpt.Obs = sObs.reg
		}
		log, err := audit.Open(cfg.AuditStore, auditKeys, encl.Counter("audit-log"), auditOpt)
		if err != nil {
			return nil, fmt.Errorf("segshare: open audit log: %w", err)
		}
		sObs.audit = log
		undo = append(undo, func() { log.Close() })
		// The first record of every run documents how the enclave came by
		// SK_r: generated fresh, unsealed from storage, or replicated.
		log.Emit(audit.Event{Event: audit.EventKeyOp, Detail: keyOrigin})
	}

	var contentGuard, groupGuard rollback.RootGuard
	switch cfg.Features.Guard {
	case GuardProtectedMemory:
		contentGuard = rollback.NewProtectedMemoryGuard(encl, "content-root")
		groupGuard = rollback.NewProtectedMemoryGuard(encl, "group-root")
	case GuardCounter:
		contentGuard = rollback.NewCounterGuard(encl, "content-root")
		groupGuard = rollback.NewCounterGuard(encl, "group-root")
	}

	recovery := cfg.Recovery
	if recovery == nil {
		recovery = &RecoveryState{}
	}
	cacheBytes := cfg.CacheBytes
	switch {
	case cacheBytes == 0:
		cacheBytes = defaultCacheBytes
	case cacheBytes < 0:
		cacheBytes = 0 // disabled
	}
	// The degraded gate runs at the head of every mutation (txn.go). It
	// uses MutationsAllowed — not State — so that once a breaker's
	// cooldown elapses the gating mutation itself flows down to the
	// store layer as a half-open probe; gating on State alone would
	// leave no traffic to close the breaker with.
	degradedGate := func() error {
		for _, rw := range gated {
			if !rw.MutationsAllowed() {
				return fmt.Errorf("%w (%s store breaker %s)", ErrDegraded, rw.Role(), rw.State())
			}
		}
		return nil
	}
	fm, err := newFileManager(fmConfig{
		rootKey:        rootKey,
		contentStore:   cfg.ContentStore,
		groupStore:     cfg.GroupStore,
		dedupStore:     cfg.DedupStore,
		hidePaths:      cfg.Features.HidePaths,
		rollbackOn:     cfg.Features.RollbackProtection,
		dedupEnabled:   cfg.Features.Dedup,
		contentGuard:   contentGuard,
		groupGuard:     groupGuard,
		cacheBytes:     cacheBytes,
		journalCounter: encl.Counter("journal"),
		recovery:       recovery,
		degradedGate:   degradedGate,
		obs:            sObs,
	})
	if err != nil {
		return nil, err
	}

	s := &Server{
		cfg:       cfg,
		enclave:   encl,
		caPub:     caPub,
		caPool:    pool,
		fm:        fm,
		resilient: gated,
		ac:        &accessControl{fm: fm, fso: userID(cfg.FileSystemOwner)},
		certifier: newCertifier(encl, cfg.GroupStore, caPub),
		obs:       sObs,
		recovery:  recovery,
		// Every content mutation takes the exclusive plan: the journal
		// relies on at most one mutation being in flight. Staging state is
		// not the reason — it lives on the per-request view (withRequest) —
		// the commit → apply → retire sequence is: intents apply in commit
		// order, and a journalDirty recovery pass inside mutate replays the
		// whole journal.
		locks: newLockManager(sObs),
	}

	// Adaptive admission control and the request-body cap (DESIGN §16).
	var acfg AdmissionConfig
	if cfg.Admission != nil {
		acfg = *cfg.Admission
	}
	s.admission = newAdmissionController(acfg, sloCfg.LatencyThreshold, sObs.reg)
	switch {
	case cfg.MaxBodyBytes == 0:
		s.maxBody = defaultMaxBodyBytes
	case cfg.MaxBodyBytes > 0:
		s.maxBody = cfg.MaxBodyBytes
	}

	// segshare_build_info pins the deployment's shape next to its
	// metrics: the enclave version and which integrity subsystems are
	// on. All values come from a closed configuration set — never
	// request data.
	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	sObs.reg.Gauge("segshare_build_info",
		"Constant 1; labels carry the enclave version and feature switches.",
		obs.Labels{
			"version":  fmt.Sprintf("v%d", cfg.Version),
			"rollback": onOff(cfg.Features.RollbackProtection),
			"audit":    onOff(sObs.audit != nil),
		}).Set(1)

	// The SLO engine watches the request stream through finishRequest;
	// a breach retains the evidence trail: force-sampled traces of the
	// offending op class, an audit record, and (fast burns) a profile
	// pair captured at the moment of breach, all joined by trace id.
	sloCfg.Obs = sObs.reg
	sloCfg.OnBreach = func(op, speed string, burnMilli int64) {
		_, oldestID := sObs.traces.ForceSampleOp(op, sloForceSampleNext)
		sObs.auditEmit(audit.Event{
			Event:     audit.EventSLOBreach,
			Op:        op,
			Detail:    speed,
			RequestID: oldestID,
		})
		if speed == obs.BreachFast {
			sObs.profiler.Trigger("slo_"+speed, oldestID)
		}
	}
	sObs.slo = obs.NewSLOEngine(sloCfg)
	sObs.slo.Start()
	undo = append(undo, sObs.slo.Stop)

	wcfg := cfg.Watchdog.withDefaults()
	// lastDeadlineID remembers the oldest over-deadline request's trace
	// id so the triggered profile capture can name it.
	var lastDeadlineID atomic.Uint64
	wd := obs.NewWatchdog(obs.WatchdogOptions{
		Interval: wcfg.Interval,
		Obs:      sObs.reg,
		OnTrigger: func(check string) {
			sObs.auditEmit(audit.Event{Event: audit.EventWatchdog, Detail: check})
			var tid uint64
			if check == "request_deadline" {
				tid = lastDeadlineID.Load()
			}
			sObs.profiler.Trigger("watchdog_"+check, tid)
		},
	})
	_ = wd.AddCheck("request_deadline", func() error {
		n, oldest, oldestID, op := sObs.traces.OverDeadline(wcfg.RequestDeadline)
		if n > 0 {
			lastDeadlineID.Store(oldestID)
			return fmt.Errorf("%d requests in flight past %v (oldest %v, op %s)",
				n, wcfg.RequestDeadline, oldest.Round(time.Millisecond), op)
		}
		return nil
	})
	if cfg.Exporter != nil {
		// Sustained export drops become a stalled-state transition
		// instead of only a counter quietly climbing.
		_ = wd.AddCheck("export_saturation", cfg.Exporter.SaturationProbe(5))
	}
	if sObs.audit != nil {
		_ = wd.AddCheck("audit_backlog", func() error {
			queued, capacity := sObs.audit.Backlog()
			if capacity > 0 && queued*10 >= capacity*9 {
				return fmt.Errorf("audit queue %d/%d (>= 90%%): writer wedged or lagging", queued, capacity)
			}
			return nil
		})
	}
	_ = wd.AddCheck("journal_recovery", func() error {
		return recovery.Overrun(wcfg.RecoveryOverrun)
	})
	wd.Start()
	undo = append(undo, wd.Stop)
	s.watchdog = wd

	s.bridge = enclave.NewBridge(cfg.Bridge)
	undo = append(undo, s.bridge.Close)
	s.endpoint = enctls.NewTrustedEndpoint(s.bridge, &tls.Config{ClientCAs: pool})
	undo = append(undo, func() { s.endpoint.Close() })
	s.certifier.setOnInstall(s.endpoint.SetCertificate)
	if _, err := s.certifier.loadPersisted(); err != nil {
		return nil, err
	}
	return s, nil
}

// defaultSLOLatency is the SLO latency threshold, and so the admission
// limiter's AIMD target, when Config.SLO leaves it unset (the same
// 250ms obs.SLOConfig defaults to).
const defaultSLOLatency = 250 * time.Millisecond

// checkSLO rejects SLO settings the engine would silently replace or
// ignore: an objective outside [0, 1) or a negative latency threshold
// would fall back to the default (zero still asks for it), a per-op key
// outside the closed op-class set is never recorded, and a per-op
// duration <= 0 falls back to the global threshold.
func checkSLO(cfg obs.SLOConfig) error {
	if cfg.Objective < 0 || cfg.Objective >= 1 {
		return fmt.Errorf("segshare: SLO Objective %v is not a fraction in [0, 1)", cfg.Objective)
	}
	if cfg.LatencyThreshold < 0 {
		return fmt.Errorf("segshare: SLO LatencyThreshold %v is negative", cfg.LatencyThreshold)
	}
	for op, d := range cfg.PerOpLatency {
		if _, ok := opAdmitClass[op]; !ok {
			return fmt.Errorf("segshare: SLO latency override %q: not an op class", op)
		}
		if d <= 0 {
			return fmt.Errorf("segshare: SLO latency override %q: duration %v is not positive", op, d)
		}
	}
	return nil
}

// loadOrCreateRootKey unseals SK_r from untrusted storage or generates
// and seals a fresh one on first start (paper §IV-B). The second return
// value names how the key was obtained, for the audit trail.
func loadOrCreateRootKey(encl *enclave.Enclave, meta store.Backend) ([]byte, string, error) {
	sealed, err := meta.Get(metaRootKey)
	switch {
	case err == nil:
		rootKey, err := encl.Unseal(sealed, []byte(metaRootKey))
		if err != nil {
			return nil, "", fmt.Errorf("segshare: unseal root key: %w", err)
		}
		return rootKey, "root_unseal", nil
	case errors.Is(err, store.ErrNotExist):
		rootKey := make([]byte, 32)
		if err := fillRandom(rootKey); err != nil {
			return nil, "", err
		}
		sealed, err := encl.Seal(rootKey, []byte(metaRootKey))
		if err != nil {
			return nil, "", err
		}
		if err := meta.Put(metaRootKey, sealed); err != nil {
			return nil, "", fmt.Errorf("segshare: persist root key: %w", err)
		}
		return rootKey, "root_generate", nil
	default:
		return nil, "", fmt.Errorf("segshare: load root key: %w", err)
	}
}

// Certifier returns the trusted certification component for the CA's
// provisioning protocol.
func (s *Server) Certifier() *Certifier { return s.certifier }

// Measurement returns the enclave's measurement, which the CA verifies
// during attestation.
func (s *Server) Measurement() enclave.Measurement { return s.enclave.Measurement() }

// Enclave exposes the underlying (simulated) enclave, e.g. for
// replication protocols.
func (s *Server) Enclave() *enclave.Enclave { return s.enclave }

// RootKey returns SK_r for the replication provider (paper §V-F). In a
// real TEE deployment this accessor does not cross the enclave boundary:
// only trusted code (the replication component) may call it. Each export
// is a key operation in the audit trail.
func (s *Server) RootKey() []byte {
	s.obs.auditEmit(audit.Event{Event: audit.EventKeyOp, Detail: "root_export"})
	out := make([]byte, len(s.fm.rootKey))
	copy(out, s.fm.rootKey)
	return out
}

// AuditLog returns the tamper-evident audit log, or nil when
// Config.AuditStore was not set.
func (s *Server) AuditLog() *audit.Log { return s.obs.audit }

// AuditHeadHandler serves GET /debug/audit/head on the admin listener:
// the sealed chain head, record/checkpoint counts, and the checkpoint
// counter. Leak budget: the head is a digest over ciphertext the host
// already stores; no principals, paths, or record contents appear.
func (s *Server) AuditHeadHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.obs.audit == nil {
			writeErr(w, http.StatusNotFound, errors.New("audit log disabled"))
			return
		}
		if err := s.obs.audit.Flush(); err != nil {
			writeErr(w, http.StatusInternalServerError, errors.New("audit flush failed"))
			return
		}
		writeJSON(w, http.StatusOK, s.obs.audit.Head())
	})
}

// Fsck walks the full file-system state of both stores under the
// whole-tree barrier: every node is decoded and (with rollback
// protection) validated against the hash tree and root guards, every
// directory entry must resolve, and every dedup indirection must reach
// its content. Used by the fault-injection harness and available to
// operators after a restore.
func (s *Server) Fsck() error {
	unlock := s.locks.exclusive(nil, scopeBarrier)
	defer unlock()
	return s.fm.validateAll()
}

// CheckStore probes the content store, for readiness checks.
func (s *Server) CheckStore() error {
	_, err := s.cfg.ContentStore.Exists(metaRootKey)
	return err
}

// CheckDegraded reports an error while any store circuit breaker is not
// closed, i.e. the server is serving in degraded read-only mode. Wire it
// as a /readyz check named "store_degraded"; the health endpoint prints
// only the check name, and the error body here names only the store role
// and breaker state (both closed sets). The audit store's breaker is not
// checked: audit failures never gate mutations.
func (s *Server) CheckDegraded() error {
	for _, rw := range s.resilient {
		if st := rw.State(); st != store.BreakerClosed {
			return fmt.Errorf("%s store breaker %s: degraded read-only mode", rw.Role(), st)
		}
	}
	return nil
}

// CheckEnclave reports whether the enclave is launched, for readiness
// checks.
func (s *Server) CheckEnclave() error {
	if s.enclave == nil {
		return errors.New("enclave not launched")
	}
	return nil
}

// BridgeMetrics returns switchless-call traffic counters.
func (s *Server) BridgeMetrics() enclave.BridgeMetrics { return s.bridge.Metrics() }

// Obs returns the server's metric registry, e.g. to mount obs.Handler on
// an untrusted admin listener.
func (s *Server) Obs() *obs.Registry { return s.obs.reg }

// Traces returns the server's request trace recorder.
func (s *Server) Traces() *obs.TraceRecorder { return s.obs.traces }

// SLO returns the burn-rate engine.
func (s *Server) SLO() *obs.SLOEngine { return s.obs.slo }

// SLOHandler serves GET /debug/slo: per-op-class burn-rate status in
// leak-bounded form (closed window names, log2-bucketed counts).
func (s *Server) SLOHandler() http.Handler { return s.obs.slo.Handler() }

// RequestsHandler serves GET /debug/requests: the trace recorder's live
// set in leak-bounded form, oldest first. ?n= limits the listing
// (default 100, clamped to 1000); count is always the whole set.
func (s *Server) RequestsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 100
		if v, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && v > 0 {
			n = min(v, 1000)
		}
		writeJSON(w, http.StatusOK, inFlightStatus{
			Count:    s.obs.traces.Active(),
			Requests: s.obs.traces.InFlight(n),
		})
	})
}

// inFlightStatus is the /debug/requests JSON body.
type inFlightStatus struct {
	Count    int64                 `json:"count"`
	Requests []obs.InFlightRequest `json:"requests"`
}

// HotHandler serves GET /debug/hot: the per-group heavy-hitter sketch
// (pseudonymized ids, log2-bucketed counts).
func (s *Server) HotHandler() http.Handler { return s.obs.hot.Handler() }

// Watchdog returns the stall watchdog. Mount its Handler under
// /debug/watchdog on the admin listener.
func (s *Server) Watchdog() *obs.Watchdog { return s.watchdog }

// Recovery returns the journal-recovery state for readiness checks
// (Check) and inspection; never nil.
func (s *Server) Recovery() *RecoveryState { return s.recovery }

// HasCertificate reports whether a server certificate is installed.
func (s *Server) HasCertificate() bool {
	_, err := s.certifier.Certificate()
	return err == nil
}

// Serve accepts TLS clients on the given TCP listener until Close. It
// fails immediately if no server certificate has been provisioned.
func (s *Server) Serve(listener net.Listener) error {
	cert, err := s.certifier.Certificate()
	if err != nil {
		return err
	}
	s.endpoint.SetCertificate(cert)

	var startErr error
	s.serveOnce.Do(func() {
		s.terminator = enctls.NewUntrustedTerminator(s.bridge, listener)
		s.httpServer = &http.Server{
			Handler:           s.handler(),
			ReadHeaderTimeout: 30 * time.Second,
			// Whole-request bounds against slow-loris clients. Generous
			// enough for multi-GiB transfers over slow links while still
			// reclaiming wedged connections; header parsing stays on the
			// tighter bound above.
			ReadTimeout:  5 * time.Minute,
			WriteTimeout: 5 * time.Minute,
			IdleTimeout:  2 * time.Minute,
			// Expose the connection to the handler so per-request
			// ecall/ocall deltas can be read off the bridge conn.
			ConnContext: func(ctx context.Context, c net.Conn) context.Context {
				return context.WithValue(ctx, connCtxKey{}, c)
			},
			// Failed handshakes (e.g. rejected client certificates) are
			// expected under the threat model; route them to the
			// structured logger at debug level (discarded by default).
			ErrorLog: slog.NewLogLogger(s.obs.logger.Handler(), slog.LevelDebug),
		}
		go func() {
			_ = s.httpServer.Serve(s.endpoint)
		}()
	})
	return startErr
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) (net.Addr, error) {
	listener, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := s.Serve(listener); err != nil {
		listener.Close()
		return nil, err
	}
	return listener.Addr(), nil
}

// Addr returns the listening address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	if s.terminator == nil {
		return nil
	}
	return s.terminator.Addr()
}

// Drain gracefully quiesces the request plane ahead of Close. It stops
// admitting new requests (admit returns ErrOverloaded, so callers see a
// 503 with Retry-After and a load balancer watching CheckDraining stops
// routing here), waits until every in-flight request finishes or ctx
// expires, closes the journal against new intents (mutations that
// committed before the close still retire via MarkApplied, so a clean
// drain leaves an empty replay set), then flushes the audit log and the
// telemetry exporter so no enqueued record is lost. The outcome is
// recorded as an EventDrain audit event and in the segshare_drain_ns /
// segshare_drain_remaining gauges.
//
// Drain runs once; later calls return nil without waiting. It returns
// an error when the deadline expired with requests still in flight or
// the audit flush failed. Callers still invoke Close afterwards.
func (s *Server) Drain(ctx context.Context) error {
	var err error
	s.drainOnce.Do(func() {
		start := time.Now()
		s.draining.Store(true)
		remaining := s.obs.traces.Active()
		if remaining > 0 {
			ticker := time.NewTicker(5 * time.Millisecond)
			defer ticker.Stop()
		wait:
			for remaining > 0 {
				select {
				case <-ctx.Done():
					break wait
				case <-ticker.C:
					remaining = s.obs.traces.Active()
				}
			}
		}
		waited := time.Since(start)
		s.fm.journal.Close()
		s.obs.drainNs.Set(int64(waited))
		s.obs.drainRemaining.Set(int64(remaining))
		s.obs.auditEmit(audit.Event{
			Event:  audit.EventDrain,
			Detail: fmt.Sprintf("waited %s, %d in flight at deadline", waited.Round(time.Millisecond), remaining),
		})
		if s.obs.audit != nil {
			err = s.obs.audit.Flush()
		}
		if s.obs.exporter != nil {
			s.obs.exporter.Flush()
		}
		if remaining > 0 && err == nil {
			err = fmt.Errorf("segshare: drain deadline: %d requests still in flight", remaining)
		}
	})
	return err
}

// CheckDraining reports an error once Drain has begun. Wire it as a
// /readyz check named "draining" so load balancers pull the instance
// out of rotation while in-flight requests finish.
func (s *Server) CheckDraining() error {
	if s.draining.Load() {
		return errors.New("draining")
	}
	return nil
}

// Close shuts the server down: endpoint, terminator, HTTP server, bridge,
// and the audit log (which drains its queue and seals a final checkpoint).
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.watchdog.Stop()
		s.obs.slo.Stop()
		s.endpoint.Close() // first: wakes terminator pumps parked delivering into a full conn
		if s.terminator != nil {
			err = s.terminator.Close()
		}
		if s.httpServer != nil {
			s.httpServer.Close()
		}
		s.bridge.Close()
		if s.obs.audit != nil {
			if aerr := s.obs.audit.Close(); aerr != nil && err == nil {
				err = aerr
			}
		}
	})
	return err
}

func fillRandom(b []byte) error {
	if _, err := randRead(b); err != nil {
		return fmt.Errorf("segshare: random: %w", err)
	}
	return nil
}
