// Command segshare-server runs one SeGShare enclave server (paper Fig. 1)
// with on-disk untrusted stores. The operator holds the CA files and the
// binary performs the §IV-A provisioning flow locally at startup: launch
// the enclave, attest it, and install a server certificate.
//
// Usage:
//
//	segshare-ca init -dir ./pki
//	segshare-server -pki ./pki -data ./data -addr 127.0.0.1:8443 \
//	    -dedup -hide-paths -rollback -guard counter -fso admin
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"segshare"
	"segshare/internal/audit"
	"segshare/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "segshare-server:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		pkiDir   = flag.String("pki", "./pki", "directory holding ca-cert.pem and ca-key.pem")
		dataDir  = flag.String("data", "./data", "directory for the untrusted stores")
		addr     = flag.String("addr", "127.0.0.1:8443", "listen address")
		host     = flag.String("host", "localhost", "hostname in the server certificate")
		fso      = flag.String("fso", "", "file system owner user ID (owns the root directory)")
		dedup    = flag.Bool("dedup", false, "enable deduplication (§V-A)")
		hide     = flag.Bool("hide-paths", false, "hide filenames and directory structure (§V-C)")
		rollback = flag.Bool("rollback", false, "enable individual-file rollback protection (§V-D)")
		guard    = flag.String("guard", "none", "whole-file-system guard: none|protmem|counter (§V-E)")
		admin    = flag.String("admin", "127.0.0.1:8444", "untrusted admin listener serving /metrics, /healthz, /readyz, and the /debug/{vars,traces,watchdog,slo,requests,hot,profiles,pprof} endpoints (empty disables)")
		logLevel = flag.String("log", "info", "request log level on stderr: debug|info|warn|error|off")
		auditOn  = flag.Bool("audit", false, "enable the tamper-evident audit log (segments under <data>/audit)")
		auditOfl = flag.String("audit-overflow", "drop", "audit queue overflow policy: drop (count and continue) | block (complete trail, couples request latency to audit I/O)")
		cacheKiB = flag.Int64("cache-kib", 0, "in-enclave relation cache budget in KiB (0 = default 8 MiB, negative disables)")
		profMtx  = flag.Int("profile-mutex", 0, "mutex contention sampling for /debug/pprof/mutex: 1 = every event, n = 1/n, 0 = off")
		profBlk  = flag.Int("profile-block", 0, "block profiling for /debug/pprof/block: record events blocking >= this many ns, 0 = off")
		journal  = flag.Bool("journal", true, "crash-consistent mutations via the sealed intent journal (disable only for benchmarking)")

		admitOn  = flag.Bool("admission", true, "adaptive admission control: AIMD concurrency limits per op class, bounded wait queue, priority shedding under overload")
		maxInfl  = flag.Int("max-inflight", 0, "admission: concurrency ceiling for reads (mutations get a quarter of it); 0 = default 256")
		queueTmo = flag.Duration("queue-timeout", 0, "admission: longest a request waits for a slot before a 503 (0 = default 100ms)")
		drainTmo = flag.Duration("drain-timeout", 30*time.Second, "graceful drain: how long SIGTERM waits for in-flight requests before forcing shutdown")
		maxBody  = flag.Int64("max-body", 0, "largest accepted request body in bytes (0 = default 64 MiB, negative disables the cap)")

		resilOn  = flag.Bool("store-resilience", true, "wrap the untrusted stores in the resilient I/O layer: deadlines, retry with backoff, circuit breaker, degraded read-only mode")
		sDeadl   = flag.Duration("store-deadline", 0, "deadline per store mutation (Put/Delete/Rename); 0 = default 15s, negative disables")
		sRDeadl  = flag.Duration("store-read-deadline", 0, "deadline per store read (Get/Exists/List); 0 = default 5s, negative disables")
		sRetries = flag.Int("store-retries", 0, "retries per store op after a transient failure; 0 = default 2, negative disables retries")
		brkThr   = flag.Int("breaker-threshold", 0, "consecutive store failures that open the circuit breaker (0 = default 5)")
		brkCool  = flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before half-open probes (0 = default 3s)")
		brkProbe = flag.Int("breaker-probes", 0, "consecutive half-open probe successes that close the breaker (0 = default 2)")

		wideEv    = flag.Bool("wide-events", true, "emit one canonical wide event per request (disable only when measuring telemetry overhead)")
		exportOut = flag.String("export-out", "", "append wide events and sampled traces as JSONL to this file")
		exportURL = flag.String("export-url", "", "POST wide-event/trace batches as JSON to this URL (retried with backoff, dropped when the bounded queue fills)")
		trcSlow   = flag.Duration("trace-slow", 50*time.Millisecond, "tail-sampling: retain traces slower than this")
		trcCont   = flag.Duration("trace-contention", 10*time.Millisecond, "tail-sampling: retain traces whose lock wait reached this")
		trcKeep   = flag.Uint64("trace-keep-one-in", 100, "tail-sampling: retain one in N remaining traces as a baseline (0 disables the floor)")
		wdOn      = flag.Bool("watchdog", true, "run the stall watchdog (snapshots on /debug/watchdog, audit event per trigger)")
		wdIvl     = flag.Duration("watchdog-interval", time.Second, "watchdog sweep interval")
		wdDeadl   = flag.Duration("watchdog-deadline", 30*time.Second, "watchdog: flag requests in flight longer than this")
		wdRecov   = flag.Duration("watchdog-recovery", 30*time.Second, "watchdog: flag a journal recovery pass running longer than this")
		wdSkew    = flag.Duration("watchdog-skew", 100*time.Millisecond, "watchdog: flag a lock shard absorbing this much more wait than its peers per sweep")

		sloOn    = flag.Bool("slo", true, "evaluate per-op-class SLO burn rates (/debug/slo, segshare_slo_* metrics, audit event + forced traces on breach)")
		sloObj   = flag.Float64("slo-objective", 0.999, "SLO success objective as a fraction (0.999 = three nines)")
		sloLat   = flag.Duration("slo-latency", 250*time.Millisecond, "SLO latency threshold: slower 2xx responses count against the error budget")
		sloLatOp = flag.String("slo-latency-op", "", "per-op-class latency overrides, comma-separated op=duration (e.g. fs_put=1s,fs_copy=2s)")
		hotK     = flag.Int("hot-k", -1, "heavy-hitter slots for per-group accounting on /debug/hot (-1 = default 32, 0 disables)")
		profDir  = flag.String("profile-dir", "", "directory for the continuous profiler's on-disk ring of CPU+heap profiles (empty disables)")
		profIvl  = flag.Duration("profile-interval", time.Minute, "continuous profiler capture cadence")
		profCPU  = flag.Duration("profile-cpu", 5*time.Second, "CPU profile duration per capture")
		profRing = flag.Int64("profile-ring-kib", 32*1024, "profile ring disk budget in KiB; oldest capture pairs evicted beyond it")
		noInReg  = flag.Bool("no-request-registry", false, "disable the live in-flight request registry (/debug/requests; watchdog falls back to heuristic stall detection)")
	)
	flag.Parse()

	// Contention samplers must be on before any lock is taken to catch
	// startup paths too; they are opt-in because they tax every contended
	// lock operation.
	obs.EnableContentionProfiling(*profMtx, *profBlk)

	logger, err := newLogger(*logLevel)
	if err != nil {
		return err
	}

	certPEM, err := os.ReadFile(filepath.Join(*pkiDir, "ca-cert.pem"))
	if err != nil {
		return fmt.Errorf("read CA certificate: %w", err)
	}
	keyPEM, err := os.ReadFile(filepath.Join(*pkiDir, "ca-key.pem"))
	if err != nil {
		return fmt.Errorf("read CA key: %w", err)
	}
	authority, err := segshare.LoadCA(certPEM, keyPEM)
	if err != nil {
		return err
	}

	features := segshare.Features{
		Dedup:              *dedup,
		HidePaths:          *hide,
		RollbackProtection: *rollback,
	}
	switch *guard {
	case "none", "":
		features.Guard = segshare.GuardNone
	case "protmem":
		features.Guard = segshare.GuardProtectedMemory
	case "counter":
		features.Guard = segshare.GuardCounter
	default:
		return fmt.Errorf("unknown guard %q", *guard)
	}

	// The registry, recovery state, and health checks exist before the
	// server so the admin listener can come up first: journal recovery
	// replays synchronously inside NewServer, and /readyz must be able to
	// name it (leak-safe, check name only) while it runs.
	reg := obs.NewRegistry()
	stopUptime := obs.StartUptime(reg)
	defer stopUptime()
	recovery := &segshare.RecoveryState{}
	health := obs.NewHealth()
	if err := health.AddCheck("journal_recovery", recovery.Check); err != nil {
		return err
	}

	// The admin handler is swappable: a startup handler (metrics + health
	// only) serves while the enclave launches and the journal replays; the
	// full handler (traces, watchdog, audit head) replaces it once the
	// server exists.
	var adminHandler atomic.Value
	if *admin != "" {
		adminHandler.Store(obs.Handler(reg, nil, obs.WithHealth(health)))
		adminAddr, err := serveAdmin(*admin, &adminHandler)
		if err != nil {
			return err
		}
		fmt.Printf("admin listener on http://%s (/metrics, /healthz, /readyz, /debug/...)\n", adminAddr)
	}

	// Export pipeline: bounded async queue feeding every configured sink.
	// Created before the server (requests enqueue into it) and closed
	// after (the final batch drains on Close).
	var sinks obs.MultiSink
	if *exportOut != "" {
		s, err := obs.NewJSONLSink(*exportOut)
		if err != nil {
			return fmt.Errorf("export sink: %w", err)
		}
		sinks = append(sinks, s)
	}
	if *exportURL != "" {
		sinks = append(sinks, obs.NewHTTPSink(*exportURL, 3, 500*time.Millisecond))
	}
	var exporter *obs.Exporter
	if len(sinks) > 0 {
		exporter = obs.NewExporter(sinks, obs.ExporterOptions{Obs: reg})
		defer exporter.Close()
	}

	// The continuous profiler outlives the server (create before, Stop
	// after) so a capture in flight at shutdown still lands in the ring.
	var profiler *obs.ContinuousProfiler
	if *profDir != "" {
		profiler, err = obs.NewContinuousProfiler(obs.ProfilerOptions{
			Dir:         *profDir,
			Interval:    *profIvl,
			CPUDuration: *profCPU,
			MaxBytes:    *profRing * 1024,
			Obs:         reg,
		})
		if err != nil {
			return fmt.Errorf("continuous profiler: %w", err)
		}
		defer profiler.Stop()
	}

	contentStore, err := segshare.NewDiskStore(filepath.Join(*dataDir, "content"))
	if err != nil {
		return err
	}
	groupStore, err := segshare.NewDiskStore(filepath.Join(*dataDir, "group"))
	if err != nil {
		return err
	}
	cfg := segshare.ServerConfig{
		CACertPEM:         certPEM,
		ContentStore:      contentStore,
		GroupStore:        groupStore,
		Features:          features,
		FileSystemOwner:   *fso,
		Logger:            logger,
		CacheBytes:        *cacheKiB * 1024,
		DisableJournal:    !*journal,
		Obs:               reg,
		Recovery:          recovery,
		DisableWideEvents: !*wideEv,
		Exporter:          exporter,
		SamplePolicy: &obs.SamplePolicy{
			SlowNs:       trcSlow.Nanoseconds(),
			ErrorStatus:  500,
			ContentionNs: trcCont.Nanoseconds(),
			KeepOneIn:    *trcKeep,
		},
		Watchdog: segshare.WatchdogConfig{
			Enable:          *wdOn,
			Interval:        *wdIvl,
			RequestDeadline: *wdDeadl,
			RecoveryOverrun: *wdRecov,
			ShardSkew:       *wdSkew,
		},
		HotGroups:              *hotK,
		DisableRequestRegistry: *noInReg,
		Profiler:               profiler,
		MaxBodyBytes:           *maxBody,
	}
	if *admitOn {
		cfg.Admission = &segshare.AdmissionConfig{
			Enable:       true,
			MaxInFlight:  *maxInfl,
			QueueTimeout: *queueTmo,
		}
	}
	if *resilOn {
		cfg.Resilience = &segshare.ResilientOptions{
			MutationDeadline: *sDeadl,
			ReadDeadline:     *sRDeadl,
			Retries:          *sRetries,
			BreakerThreshold: *brkThr,
			BreakerCooldown:  *brkCool,
			BreakerProbes:    *brkProbe,
		}
	}
	if *sloOn {
		perOp, err := parsePerOpLatency(*sloLatOp)
		if err != nil {
			return err
		}
		cfg.SLO = &obs.SLOConfig{
			Objective:        *sloObj,
			LatencyThreshold: *sloLat,
			PerOpLatency:     perOp,
		}
	}
	if features.Dedup {
		dedupStore, err := segshare.NewDiskStore(filepath.Join(*dataDir, "dedup"))
		if err != nil {
			return err
		}
		cfg.DedupStore = dedupStore
	}
	if *auditOn {
		auditStore, err := segshare.NewDiskStore(filepath.Join(*dataDir, "audit"))
		if err != nil {
			return err
		}
		cfg.AuditStore = auditStore
		switch *auditOfl {
		case "drop", "":
			cfg.Audit.Overflow = audit.OverflowDrop
		case "block":
			cfg.Audit.Overflow = audit.OverflowBlock
		default:
			return fmt.Errorf("unknown audit overflow policy %q", *auditOfl)
		}
	}

	platform, err := segshare.NewPlatform(segshare.PlatformConfig{})
	if err != nil {
		return err
	}
	server, err := segshare.NewServer(platform, cfg)
	if err != nil {
		return err
	}
	defer server.Close()

	fmt.Printf("enclave measurement: %v\n", server.Measurement())
	if !server.HasCertificate() {
		if err := segshare.Provision(authority, platform, server, cfg, []string{*host}); err != nil {
			return fmt.Errorf("provision server certificate: %w", err)
		}
		fmt.Println("server certificate provisioned by CA")
	} else {
		fmt.Println("reusing persisted server certificate")
	}

	if err := health.AddCheck("store", server.CheckStore); err != nil {
		return err
	}
	if err := health.AddCheck("enclave", server.CheckEnclave); err != nil {
		return err
	}
	// Degraded read-only mode fails readiness so load balancers drain
	// mutating traffic; the server itself keeps answering reads.
	if err := health.AddCheck("store_degraded", server.CheckDegraded); err != nil {
		return err
	}
	// A draining server fails readiness immediately; in-flight requests
	// finish while the load balancer routes new traffic elsewhere.
	if err := health.AddCheck("draining", server.CheckDraining); err != nil {
		return err
	}
	if *admin != "" {
		opts := []obs.HandlerOption{obs.WithHealth(health)}
		if server.AuditLog() != nil {
			opts = append(opts, obs.WithEndpoint("/debug/audit/head", server.AuditHeadHandler()))
		}
		if wd := server.Watchdog(); wd != nil {
			opts = append(opts, obs.WithEndpoint("/debug/watchdog", wd.Handler()))
		}
		// These three answer 404 with a named reason when their feature is
		// off, so operators can tell "disabled" from "wrong URL".
		opts = append(opts,
			obs.WithEndpoint("/debug/slo", server.SLOHandler()),
			obs.WithEndpoint("/debug/requests", server.RequestsHandler()),
			obs.WithEndpoint("/debug/hot", server.HotHandler()))
		if profiler != nil {
			opts = append(opts,
				obs.WithEndpoint("/debug/profiles", profiler.Handler()),
				obs.WithEndpoint("/debug/profiles/", profiler.Handler()))
		}
		adminHandler.Store(obs.Handler(server.Obs(), server.Traces(), opts...))
	}

	// Install the signal handler before the listener comes up so a
	// SIGTERM arriving the instant "serving on" prints still drains
	// gracefully instead of killing the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	listenAddr, err := server.ListenAndServe(*addr)
	if err != nil {
		return err
	}
	health.SetReady(true)
	fmt.Printf("serving on %s (features: dedup=%v hide=%v rollback=%v guard=%s audit=%v journal=%v wide-events=%v watchdog=%v slo=%v hot-k=%d profiler=%v resilience=%v)\n",
		listenAddr, *dedup, *hide, *rollback, *guard, *auditOn, *journal, *wideEv, *wdOn, *sloOn, *hotK, *profDir != "", *resilOn)

	<-sig
	health.SetReady(false)
	fmt.Printf("draining (up to %s; signal again to force shutdown)\n", *drainTmo)

	// Graceful drain: stop admitting, wait for in-flight requests, close
	// the journal, flush audit log and exporter. A second signal cuts the
	// wait short and proceeds straight to Close.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTmo)
	defer cancelDrain()
	go func() {
		<-sig
		fmt.Println("second signal: forcing shutdown")
		cancelDrain()
	}()
	if err := server.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "segshare-server: drain:", err)
	}
	fmt.Println("shutting down")
	return nil
}

// serveAdmin starts the untrusted observability endpoint. It runs
// outside the enclave boundary and on plain HTTP by design: everything
// it can serve has already passed the leak budget (package obs) — only
// aggregate counters, bucketed durations, op-class labels, health check
// names, watchdog snapshots of the untrusted runtime, the sealed audit
// chain head, and process profiles. Keep it on loopback or a management
// network; it needs no client certificates. The handler is read through
// an atomic.Value so run() can swap the startup handler for the full one
// once the server exists.
func serveAdmin(addr string, handler *atomic.Value) (net.Addr, error) {
	listener, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin listener: %w", err)
	}
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(http.Handler).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		// WriteTimeout must outlast the longest debug capture this
		// listener can stream: a /debug/pprof/profile CPU capture defaults
		// to 30s and callers may ask for more.
		WriteTimeout: 2 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}
	go srv.Serve(listener)
	return listener.Addr(), nil
}

// parsePerOpLatency parses "-slo-latency-op" values of the form
// "op=duration[,op=duration...]" into the SLO engine's override map.
func parsePerOpLatency(s string) (map[string]time.Duration, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]time.Duration)
	for _, pair := range strings.Split(s, ",") {
		op, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("slo-latency-op: %q is not op=duration", pair)
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return nil, fmt.Errorf("slo-latency-op %q: %w", op, err)
		}
		out[op] = d
	}
	return out, nil
}

// newLogger builds the request logger for the level name, or a
// discarding logger for "off". Request logs carry only op class, status,
// and duration — the same leak budget as the metrics.
func newLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "off", "none", "":
		return slog.New(slog.DiscardHandler), nil
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}
