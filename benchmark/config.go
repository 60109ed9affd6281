package main

import (
	"crypto/sha256"
	"io"
	"log/slog"
	"runtime"
	"time"

	"segshare"
	"segshare/internal/audit"
	"segshare/internal/obs"
)

// backends are the raw untrusted stores of one deployment. Dedup and
// Audit are nil when the workload leaves the feature off.
type backends struct {
	Content, Group, Dedup, Audit segshare.Backend
}

func (b backends) all() []segshare.Backend {
	out := []segshare.Backend{b.Content, b.Group}
	if b.Dedup != nil {
		out = append(out, b.Dedup)
	}
	if b.Audit != nil {
		out = append(out, b.Audit)
	}
	return out
}

// shippingConfig assembles the ServerConfig cmd/segshare-server builds
// when started with no flags beyond the feature switches: journal,
// admission, store resilience, SLO, watchdog, hot-k, request registry and
// wide events all ON. internal/bench.NewEnv leaves most of these off,
// which is why it is not reused here. Two deliberate differences from the
// binary, both stated in every result: memory stores instead of disk, and
// the info-level request log is formatted but written to io.Discard
// instead of stderr.
func shippingConfig(caPEM []byte, spec workloadSpec, st backends, reg *obs.Registry) segshare.ServerConfig {
	cfg := segshare.ServerConfig{
		CACertPEM:    caPEM,
		ContentStore: st.Content,
		GroupStore:   st.Group,
		DedupStore:   st.Dedup,
		AuditStore:   st.Audit,
		Features:     spec.Features,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
		Obs:          reg,
		SamplePolicy: &obs.SamplePolicy{
			SlowNs:       (50 * time.Millisecond).Nanoseconds(),
			ErrorStatus:  500,
			ContentionNs: (10 * time.Millisecond).Nanoseconds(),
			KeepOneIn:    100,
		},
		Watchdog: segshare.WatchdogConfig{
			Enable:          true,
			Interval:        time.Second,
			RequestDeadline: 30 * time.Second,
			RecoveryOverrun: 30 * time.Second,
			ShardSkew:       100 * time.Millisecond,
		},
		HotGroups:  -1, // default bound (32)
		Admission:  &segshare.AdmissionConfig{Enable: true},
		Resilience: &segshare.ResilientOptions{},
		SLO:        &obs.SLOConfig{Objective: 0.999, LatencyThreshold: 250 * time.Millisecond},
	}
	if st.Audit != nil {
		cfg.Audit.Overflow = audit.OverflowDrop
	}
	return cfg
}

// effectiveConfig is the configuration statement printed into every
// result, so runs of unlike configurations or hosts are never compared.
type effectiveConfig struct {
	Journal         bool              `json:"journal"`
	Admission       bool              `json:"admission"`
	StoreResilience bool              `json:"store_resilience"`
	SLO             bool              `json:"slo"`
	Watchdog        bool              `json:"watchdog"`
	HotK            int               `json:"hot_k"`
	RequestRegistry bool              `json:"request_registry"`
	WideEvents      bool              `json:"wide_events"`
	RequestLog      string            `json:"request_log"`
	Stores          string            `json:"stores"`
	Network         string            `json:"network"`
	Features        segshare.Features `json:"features"`
	Audit           bool              `json:"audit"`
}

func describeConfig(cfg segshare.ServerConfig, spec workloadSpec) effectiveConfig {
	network := "loopback mTLS (enctls + switchless bridge)"
	if spec.Direct {
		network = "none (in-process Server.Direct sessions)"
	}
	hotK := cfg.HotGroups
	if hotK < 0 {
		hotK = obs.DefaultHotK
	}
	return effectiveConfig{
		Journal:         !cfg.DisableJournal,
		Admission:       cfg.Admission != nil && cfg.Admission.Enable,
		StoreResilience: cfg.Resilience != nil,
		SLO:             cfg.SLO != nil,
		Watchdog:        cfg.Watchdog.Enable,
		HotK:            hotK,
		RequestRegistry: !cfg.DisableRequestRegistry,
		WideEvents:      !cfg.DisableWideEvents,
		RequestLog:      "info, text handler, discarded",
		Stores:          "memory stores",
		Network:         network,
		Features:        cfg.Features,
		Audit:           cfg.AuditStore != nil,
	}
}

// hostShape records what the numbers were measured on.
type hostShape struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Clients    int     `json:"clients"`
	SHA256Pre  float64 `json:"sha256_mib_per_s_before"`
	SHA256Post float64 `json:"sha256_mib_per_s_after"`
}

func newHostShape(clients int) hostShape {
	return hostShape{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Clients:    clients,
	}
}

// calibrate hashes with stdlib SHA-256 on one goroutine (0.25 s in a full
// run, less in a smoke test) and returns MiB/s: a host-speed reading taken
// before and after every run, so a result measured while the host was slow
// can be told from a regression.
func calibrate(runSeconds float64) float64 {
	d := time.Duration(min(1, runSeconds/fullRunSeconds) * float64(250*time.Millisecond))
	buf := make([]byte, 64<<10)
	start := time.Now()
	var n int
	for time.Since(start) < d {
		sha256.Sum256(buf)
		n++
	}
	return float64(n) * float64(len(buf)) / (1 << 20) / time.Since(start).Seconds()
}
