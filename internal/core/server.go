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
	"sync"
	"sync/atomic"
	"time"

	"segshare/internal/audit"
	"segshare/internal/enclave"
	"segshare/internal/enctls"
	"segshare/internal/journal"
	"segshare/internal/obs"
	"segshare/internal/pfs"
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
	// LockShards sets the number of per-path lock shards in the request
	// path (see locks.go). Zero means the default (64); 1 approximates
	// the former single global RWMutex, which benchmarks use as the
	// before-configuration.
	LockShards int
	// CacheBytes bounds the in-enclave relation caches (decoded ACLs,
	// member lists, group list, directory bodies, derived file keys).
	// Zero means the default (8 MiB); negative disables caching.
	CacheBytes int64
	// CryptoWorkers bounds the goroutines of the chunk-crypto kernel on
	// the content data path (DESIGN §14). Zero means the default,
	// min(GOMAXPROCS, 8); negative (or 1) keeps sealing/opening inline
	// on the request's goroutine, which E14 sweeps against.
	CryptoWorkers int
	// Resilience, when non-nil, wraps the content, group, and dedup
	// stores in store.Resilient (DESIGN §15): per-op-class deadlines,
	// retry with backoff for retryable errors, and a per-backend circuit
	// breaker. An open breaker flips the server into degraded read-only
	// mode: mutations fail fast with ErrDegraded at the mutate()
	// chokepoint while reads keep flowing, CheckDegraded reports the
	// episode for /readyz, every breaker transition emits an
	// EventDegraded audit record, and affected requests carry the
	// degraded wide-event flag. The Obs and OnState fields are
	// overwritten by the server during wiring (OnState is chained).
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
	// DisableJournal turns off the write-ahead intent journal that makes
	// multi-blob mutations atomic-on-recovery (see internal/journal and
	// txn.go). The journal is deliberately NOT part of the measured
	// Features: it changes durability, not the security surface clients
	// attest.
	DisableJournal bool
	// AuditStore, when non-nil, enables the tamper-evident audit log:
	// security events (authn, authz decisions, ACL/group mutations,
	// rollback failures, key operations) are sealed under keys derived
	// from SK_r and appended to hash-chained segments in this backend.
	AuditStore store.Backend
	// Audit tunes the audit writer (overflow policy, buffer sizes,
	// checkpoint cadence). Ignored when AuditStore is nil.
	Audit audit.Options
	// DisableWideEvents turns off per-request wide-event collection and
	// emission. Benchmarks use it as the before-configuration when
	// measuring telemetry overhead.
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
	// Watchdog configures the stall watchdog; the zero value disables it.
	Watchdog WatchdogConfig
	// SLO, when non-nil, enables per-op-class burn-rate evaluation over
	// the request stream (objectives, windows, thresholds — see
	// obs.SLOConfig). Breaches emit an audit event, force-sample traces
	// of the offending op class, and (fast burns) trigger a profile
	// capture. The engine's Obs and OnBreach fields are overwritten by
	// the server during wiring.
	SLO *obs.SLOConfig
	// HotGroups bounds the per-group heavy-hitter sketch behind
	// /debug/hot: the top-k tenant pseudonyms by request volume and
	// bytes. 0 disables; negative means the default bound
	// (obs.DefaultHotK).
	HotGroups int
	// DisableRequestRegistry turns off the live in-flight request
	// registry (/debug/requests and the watchdog's exact over-deadline
	// check fall back accordingly). Benchmarks use it as the
	// before-configuration.
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
	// Admission, when non-nil with Enable set, turns on adaptive
	// admission control: per-op-class AIMD concurrency limits with a
	// bounded wait queue and priority shedding (DESIGN §16). The
	// LatencyTarget defaults to the SLO latency threshold when an SLO is
	// configured.
	Admission *AdmissionConfig
	// MaxBodyBytes caps request bodies via http.MaxBytesReader; requests
	// exceeding it get a leak-safe 413. 0 means the default (64 MiB),
	// negative disables the cap.
	MaxBodyBytes int64
}

// WatchdogConfig tunes the stall watchdog (see obs.Watchdog). All
// durations default when zero.
type WatchdogConfig struct {
	// Enable turns the watchdog on.
	Enable bool
	// Interval is the sweep cadence (default 1s).
	Interval time.Duration
	// RequestDeadline flags any in-flight request older than this
	// (default 30s).
	RequestDeadline time.Duration
	// RecoveryOverrun flags a journal recovery pass running longer than
	// this (default 30s).
	RecoveryOverrun time.Duration
	// ShardSkew flags one lock shard absorbing more than this much new
	// wait time between sweeps while also exceeding 4x the mean across
	// shards (default 100ms).
	ShardSkew time.Duration
}

// sloForceSampleNext is how many upcoming requests of a breached op
// class the SLO engine force-samples (in addition to every request of
// that class already in flight at breach time), so the trace ring holds
// evidence from inside the bad period.
const sloForceSampleNext = 25

// defaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is
// zero: large enough for any realistic file PUT through this API (which
// buffers bodies in enclave memory), small enough that one client
// cannot pin the crypto workers on a multi-gigabyte upload.
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
	if w.ShardSkew <= 0 {
		w.ShardSkew = 100 * time.Millisecond
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

	// locks schedules request concurrency: sharded per-path locks, a
	// group-store lock, and a whole-tree barrier (see locks.go).
	locks *lockManager
	// reset tracks the outstanding backup-restoration challenge (§V-G).
	reset resetState
	// recovery publishes journal-recovery progress for readiness gating
	// and the watchdog.
	recovery *RecoveryState
	// resilient holds the store resilience wrappers (empty unless
	// Config.Resilience), for degraded-mode readiness checks.
	resilient []*store.Resilient
	// watchdog is the stall detector, nil unless Config.Watchdog.Enable.
	watchdog *obs.Watchdog

	// admission is the adaptive admission controller, nil unless
	// Config.Admission.Enable (see admission.go).
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
func NewServer(platform *enclave.Platform, cfg Config) (*Server, error) {
	if cfg.ContentStore == nil || cfg.GroupStore == nil {
		return nil, errors.New("segshare: content and group stores are required")
	}
	if cfg.Features.Dedup && cfg.DedupStore == nil {
		return nil, errors.New("segshare: dedup feature requires a dedup store")
	}
	if cfg.Features.Guard != 0 && cfg.Features.Guard != GuardNone && !cfg.Features.RollbackProtection {
		return nil, errors.New("segshare: whole-file-system guard requires rollback protection")
	}

	sObs := newServerObs(cfg.Obs, cfg.Logger)
	sObs.wideEvents = !cfg.DisableWideEvents
	sObs.exporter = cfg.Exporter
	if sObs.wideEvents {
		sObs.wideTotal = sObs.reg.Counter("segshare_wide_events_total",
			"Wide events emitted (one per finished request).", nil)
	}
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
	if !cfg.DisableRequestRegistry {
		sObs.requests = newRequestRegistry()
	}
	if cfg.HotGroups != 0 && sObs.requests != nil {
		// Heavy-hitter accounting rides on the registry (the group tag
		// lives on the in-flight entry), so disabling the registry
		// disables it too.
		k := cfg.HotGroups
		if k < 0 {
			k = obs.DefaultHotK
		}
		pseud, err := obs.NewPseudonymizer()
		if err != nil {
			return nil, err
		}
		sObs.pseud = pseud
		sObs.hot = obs.NewTopK(k)
	}
	sObs.profiler = cfg.Profiler
	if cfg.Exporter != nil {
		hot := sObs.hot
		cfg.Exporter.SetMeta(func() obs.BatchMeta {
			var m obs.BatchMeta // the exporter fills time/depth/drops
			if hot != nil {
				h := hot.Snapshot()
				m.Hot = &h
			}
			return m
		})
	}
	// The resilience layer wraps the raw backends first, then
	// store.Instrumented wraps the Resilient chain, so the measured
	// latency is what the trusted side experiences — retries, deadline
	// waits, and fast failures included. Breaker transitions feed the
	// audit trail; sObs.audit is nil until the log opens below, and
	// auditEmit tolerates that (pre-launch transitions cannot happen —
	// no request runs yet).
	var resilientStores []*store.Resilient
	wrapResilient := func(b store.Backend, role string) store.Backend {
		if cfg.Resilience == nil {
			return b
		}
		opt := *cfg.Resilience
		opt.Obs = sObs.reg
		userOnState := opt.OnState
		opt.OnState = func(from, to store.BreakerState) {
			sObs.auditEmit(audit.Event{
				Event:  audit.EventDegraded,
				Detail: role + " " + from.String() + "->" + to.String(),
			})
			if userOnState != nil {
				userOnState(from, to)
			}
		}
		rw := store.NewResilient(b, role, opt)
		resilientStores = append(resilientStores, rw)
		return rw
	}
	cfg.ContentStore = wrapResilient(cfg.ContentStore, "content")
	cfg.GroupStore = wrapResilient(cfg.GroupStore, "group")
	if cfg.DedupStore != nil {
		cfg.DedupStore = wrapResilient(cfg.DedupStore, "dedup")
	}
	if len(resilientStores) > 0 {
		// Wide events carry a degraded flag for every request that runs
		// during an episode, not only the rejected mutations.
		sObs.degraded = func() bool {
			for _, rw := range resilientStores {
				if rw.State() != store.BreakerClosed {
					return true
				}
			}
			return false
		}
	}

	// All backend traffic is measured through store.Instrumented; the
	// labels name the store role only. The bridge reports into the same
	// registry.
	cfg.ContentStore = store.NewInstrumented(cfg.ContentStore, "content", sObs.reg)
	cfg.GroupStore = store.NewInstrumented(cfg.GroupStore, "group", sObs.reg)
	if cfg.DedupStore != nil {
		cfg.DedupStore = store.NewInstrumented(cfg.DedupStore, "dedup", sObs.reg)
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
		auditBackend := store.NewInstrumented(cfg.AuditStore, "audit", sObs.reg)
		log, err := audit.Open(auditBackend, auditKeys, encl.Counter("audit-log"), auditOpt)
		if err != nil {
			return nil, fmt.Errorf("segshare: open audit log: %w", err)
		}
		sObs.audit = log
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
	var jl *journal.Journal
	if !cfg.DisableJournal {
		jKeys, err := journal.DeriveKeys(rootKey)
		if err != nil {
			return nil, err
		}
		// Journal records live next to the !meta:* objects in the group
		// store; sequence numbers bind to an enclave monotonic counter.
		jl, err = journal.Open(cfg.GroupStore, jKeys, encl.Counter("journal"),
			journal.Options{Obs: sObs.reg, OnScan: recovery.progress})
		if err != nil {
			return nil, fmt.Errorf("segshare: open journal: %w", err)
		}
	}

	cacheBytes := cfg.CacheBytes
	switch {
	case cacheBytes == 0:
		cacheBytes = defaultCacheBytes
	case cacheBytes < 0:
		cacheBytes = 0 // disabled
	}
	cryptoWorkers := cfg.CryptoWorkers
	switch {
	case cryptoWorkers == 0:
		cryptoWorkers = pfs.DefaultWorkers()
	case cryptoWorkers < 0:
		cryptoWorkers = 1
	}
	sObs.cryptoWorkers.Set(int64(cryptoWorkers))
	// The degraded gate runs at the head of every mutation (txn.go). It
	// uses MutationsAllowed — not State — so that once a breaker's
	// cooldown elapses the gating mutation itself flows down to the
	// store layer as a half-open probe; gating on State alone would
	// leave no traffic to close the breaker with.
	var degradedGate func() error
	if len(resilientStores) > 0 {
		degradedGate = func() error {
			for _, rw := range resilientStores {
				if !rw.MutationsAllowed() {
					return fmt.Errorf("%w (%s store breaker %s)", ErrDegraded, rw.Role(), rw.State())
				}
			}
			return nil
		}
	}
	fm, err := newFileManager(fmConfig{
		rootKey:       rootKey,
		contentStore:  cfg.ContentStore,
		groupStore:    cfg.GroupStore,
		dedupStore:    cfg.DedupStore,
		hidePaths:     cfg.Features.HidePaths,
		rollbackOn:    cfg.Features.RollbackProtection,
		dedupEnabled:  cfg.Features.Dedup,
		contentGuard:  contentGuard,
		groupGuard:    groupGuard,
		cacheBytes:    cacheBytes,
		cryptoWorkers: cryptoWorkers,
		journal:       jl,
		recovery:      recovery,
		degradedGate:  degradedGate,
		obs:           sObs,
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
		resilient: resilientStores,
		ac:        &accessControl{fm: fm, fso: userID(cfg.FileSystemOwner)},
		certifier: newCertifier(encl, cfg.GroupStore, caPub),
		obs:       sObs,
		recovery:  recovery,
		// The journal relies on at most one mutation being in flight,
		// which coupled mode guarantees; rollback protection needs it
		// anyway. Staging state is not the reason — it lives on the
		// per-request view (withRequest) — the commit → apply → retire
		// sequence is: intents apply in commit order, and a journalDirty
		// recovery pass inside mutate replays the whole journal.
		locks: newLockManager(cfg.LockShards, cfg.Features.RollbackProtection || jl != nil, sObs),
	}

	// Adaptive admission control and the request-body cap (DESIGN §16).
	// The AIMD latency target inherits the SLO threshold so "overloaded"
	// and "missing the SLO" mean the same thing.
	if cfg.Admission != nil && cfg.Admission.Enable {
		acfg := *cfg.Admission
		if acfg.LatencyTarget <= 0 && cfg.SLO != nil && cfg.SLO.LatencyThreshold > 0 {
			acfg.LatencyTarget = cfg.SLO.LatencyThreshold
		}
		s.admission = newAdmissionController(acfg, sObs.reg)
	}
	switch {
	case cfg.MaxBodyBytes == 0:
		s.maxBody = defaultMaxBodyBytes
	case cfg.MaxBodyBytes > 0:
		s.maxBody = cfg.MaxBodyBytes
	}

	// segshare_build_info pins the deployment's shape next to its
	// metrics: the enclave version and which durability/integrity
	// subsystems are on. All values come from a closed configuration
	// set — never request data.
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
			"journal":  onOff(jl != nil),
			"rollback": onOff(cfg.Features.RollbackProtection),
			"audit":    onOff(sObs.audit != nil),
		}).Set(1)

	// The SLO engine watches the request stream through finishRequest;
	// a breach retains the evidence trail: force-sampled traces of the
	// offending op class, an audit record, and (fast burns) a profile
	// pair captured at the moment of breach, all joined by trace id.
	if cfg.SLO != nil {
		sloCfg := *cfg.SLO
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
	}

	if cfg.Watchdog.Enable {
		wcfg := cfg.Watchdog.withDefaults()
		// lastDeadlineID remembers the oldest over-deadline request's
		// trace id so the triggered profile capture can name it.
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
			if sObs.requests != nil {
				// The registry is exact: it knows each live request's op
				// and id, not just counts and ages.
				n, oldest, oldestID, op := sObs.requests.overDeadline(wcfg.RequestDeadline)
				if n > 0 {
					lastDeadlineID.Store(oldestID)
					return fmt.Errorf("%d requests in flight past %v (oldest %v, op %s)",
						n, wcfg.RequestDeadline, oldest.Round(time.Millisecond), op)
				}
				return nil
			}
			n, oldest := sObs.traces.OverDeadline(wcfg.RequestDeadline)
			if n > 0 {
				return fmt.Errorf("%d requests in flight past %v (oldest %v)",
					n, wcfg.RequestDeadline, oldest.Round(time.Millisecond))
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
		if jl != nil {
			_ = wd.AddCheck("journal_recovery", func() error {
				return recovery.Overrun(wcfg.RecoveryOverrun)
			})
		}
		_ = wd.AddCheck("lock_shard_skew", s.locks.skewProbe(wcfg.ShardSkew))
		wd.Start()
		s.watchdog = wd
	}

	s.bridge = enclave.NewBridge(cfg.Bridge)
	s.endpoint = enctls.NewTrustedEndpoint(s.bridge, &tls.Config{ClientCAs: pool})
	s.certifier.setOnInstall(s.endpoint.SetCertificate)
	if _, err := s.certifier.loadPersisted(); err != nil {
		s.bridge.Close()
		return nil, err
	}
	return s, nil
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
	unlock := s.locks.wholeTree(nil)
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
// and breaker state (both closed sets). Deployments without
// Config.Resilience always pass.
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

// SLO returns the burn-rate engine, or nil when Config.SLO was not set.
func (s *Server) SLO() *obs.SLOEngine { return s.obs.slo }

// SLOHandler serves GET /debug/slo: per-op-class burn-rate status in
// leak-bounded form (closed window names, log2-bucketed counts).
func (s *Server) SLOHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.obs.slo == nil {
			writeErr(w, http.StatusNotFound, errors.New("slo engine disabled"))
			return
		}
		s.obs.slo.Handler().ServeHTTP(w, r)
	})
}

// HotHandler serves GET /debug/hot: the per-group heavy-hitter sketch
// (pseudonymized ids, log2-bucketed counts).
func (s *Server) HotHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.obs.hot == nil {
			writeErr(w, http.StatusNotFound, errors.New("heavy-hitter accounting disabled"))
			return
		}
		s.obs.hot.Handler().ServeHTTP(w, r)
	})
}

// HotStatus returns the per-group heavy-hitter snapshot, empty when
// accounting is disabled.
func (s *Server) HotStatus() obs.HotStatus { return s.obs.hot.Snapshot() }

// Watchdog returns the stall watchdog, or nil when disabled. Mount its
// Handler under /debug/watchdog on the admin listener.
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

// inflightCount reports how many requests are currently inside the
// handler chain, preferring the in-flight registry (exact, keyed by
// trace id) and falling back to the inflight gauge.
func (s *Server) inflightCount() int {
	if s.obs.requests != nil {
		return s.obs.requests.size()
	}
	return int(s.obs.inflight.Value())
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
		remaining := s.inflightCount()
		if remaining > 0 {
			ticker := time.NewTicker(5 * time.Millisecond)
			defer ticker.Stop()
		wait:
			for remaining > 0 {
				select {
				case <-ctx.Done():
					break wait
				case <-ticker.C:
					remaining = s.inflightCount()
				}
			}
		}
		waited := time.Since(start)
		if s.fm.journal != nil {
			s.fm.journal.Close()
		}
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

// Close shuts the server down: terminator, HTTP server, endpoint, bridge,
// and the audit log (which drains its queue and seals a final checkpoint).
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		if s.watchdog != nil {
			s.watchdog.Stop()
		}
		if s.obs.slo != nil {
			s.obs.slo.Stop()
		}
		if s.terminator != nil {
			err = s.terminator.Close()
		}
		if s.httpServer != nil {
			s.httpServer.Close()
		}
		s.endpoint.Close()
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
