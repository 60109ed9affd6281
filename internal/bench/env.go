// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§VII-B). Each experiment has a
// Run function returning structured rows; cmd/segshare-bench prints them
// as the paper-style series, and bench_test.go wraps them as testing.B
// benchmarks. DESIGN.md §4 maps experiments to paper artifacts.
package bench

import (
	"context"
	"crypto/tls"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"

	"segshare"
	"segshare/internal/audit"
	"segshare/internal/baseline/plaindav"
	"segshare/internal/core"
	"segshare/internal/netsim"
	"segshare/internal/obs"
	"segshare/internal/store"
)

// Stat summarises repeated latency measurements.
type Stat struct {
	Mean time.Duration
	Std  time.Duration
	N    int
}

func (s Stat) String() string {
	return fmt.Sprintf("%v ±%v (n=%d)", s.Mean.Round(time.Microsecond), s.Std.Round(time.Microsecond), s.N)
}

// measure runs f `runs` times (after one warm-up call) and aggregates the
// wall-clock latencies.
func measure(runs int, f func() error) (Stat, error) {
	if runs <= 0 {
		runs = 1
	}
	if err := f(); err != nil {
		return Stat{}, err
	}
	samples := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return Stat{}, err
		}
		samples = append(samples, float64(time.Since(start)))
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(len(samples))
	var varsum float64
	for _, s := range samples {
		varsum += (s - mean) * (s - mean)
	}
	std := math.Sqrt(varsum / float64(len(samples)))
	return Stat{Mean: time.Duration(mean), Std: time.Duration(std), N: len(samples)}, nil
}

// EnvConfig configures a SeGShare deployment for an experiment.
type EnvConfig struct {
	Features segshare.Features
	Bridge   segshare.BridgeConfig
	// Network optionally simulates WAN conditions on the server listener.
	Network netsim.Profile
	// Audit enables the tamper-evident audit log on a memory backend.
	Audit bool
	// AuditOverflow selects the writer's full-queue policy when Audit is
	// on.
	AuditOverflow audit.Overflow
	// SamplePolicy overrides the tail-sampling policy (nil keeps the
	// server default).
	SamplePolicy *obs.SamplePolicy
	// Exporter, when non-nil, receives the deployment's wide events and
	// sampled traces. The caller owns it (Close after Env.Close). When
	// nil and trace capture is enabled (EnableTraceCapture), the env
	// creates its own exporter into the shared capture sink.
	Exporter *obs.Exporter
}

// Env is a full in-process SeGShare deployment listening on loopback.
type Env struct {
	Authority *segshare.CertAuthority
	Platform  *segshare.Platform
	Server    *segshare.Server
	Addr      string

	cfg     segshare.ServerConfig
	network netsim.Profile
	clients []*segshare.Client
	// exporter is the env-owned exporter feeding the shared capture sink
	// (nil when the caller supplied its own or capture is off).
	exporter *obs.Exporter
}

// NewEnv builds and starts a deployment.
func NewEnv(cfg EnvConfig) (*Env, error) {
	authority, err := segshare.NewCA("bench CA")
	if err != nil {
		return nil, err
	}
	platform, err := segshare.NewPlatform(segshare.PlatformConfig{})
	if err != nil {
		return nil, err
	}
	features := cfg.Features
	serverCfg := segshare.ServerConfig{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: segshare.NewMemoryStore(),
		GroupStore:   segshare.NewMemoryStore(),
		Features:     features,
		Bridge:       cfg.Bridge,
		SamplePolicy: cfg.SamplePolicy,
		Exporter:     cfg.Exporter,
	}
	var ownExporter *obs.Exporter
	if serverCfg.Exporter == nil {
		if sink := captureSinkIfEnabled(); sink != nil {
			ownExporter = obs.NewExporter(sink, obs.ExporterOptions{})
			serverCfg.Exporter = ownExporter
		}
	}
	if features.Dedup {
		serverCfg.DedupStore = segshare.NewMemoryStore()
	}
	if cfg.Audit {
		serverCfg.AuditStore = segshare.NewMemoryStore()
		serverCfg.Audit = audit.Options{Overflow: cfg.AuditOverflow}
	}
	closeOwn := func() {
		if ownExporter != nil {
			ownExporter.Close()
		}
	}
	server, err := segshare.NewServer(platform, serverCfg)
	if err != nil {
		closeOwn()
		return nil, err
	}
	if err := segshare.Provision(authority, platform, server, serverCfg, []string{"localhost"}); err != nil {
		server.Close()
		closeOwn()
		return nil, err
	}
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		server.Close()
		closeOwn()
		return nil, err
	}
	if err := server.Serve(netsim.WrapListener(listener, cfg.Network)); err != nil {
		listener.Close()
		server.Close()
		closeOwn()
		return nil, err
	}
	return &Env{
		Authority: authority,
		Platform:  platform,
		Server:    server,
		Addr:      listener.Addr().String(),
		cfg:       serverCfg,
		network:   cfg.Network,
		exporter:  ownExporter,
	}, nil
}

// NewClient issues a credential for user and connects a client.
func (e *Env) NewClient(user string) (*segshare.Client, error) {
	cred, err := e.Authority.IssueClientCertificate(segshare.Identity{UserID: user}, 24*time.Hour)
	if err != nil {
		return nil, err
	}
	c, err := segshare.NewClient(segshare.ClientConfig{
		Addr:        e.Addr,
		CACertPEM:   e.Authority.CertificatePEM(),
		Credential:  cred,
		DialContext: netsimDialer(e.network),
	})
	if err != nil {
		return nil, err
	}
	e.clients = append(e.clients, c)
	return c, nil
}

// Direct returns an in-process session for fast corpus setup.
func (e *Env) Direct(user string) *core.DirectSession {
	return e.Server.Direct(user)
}

// DedupStore exposes the dedup backend for storage accounting.
func (e *Env) DedupStore() segshare.Backend { return e.cfg.DedupStore }

// ContentStore exposes the content backend for storage accounting.
func (e *Env) ContentStore() segshare.Backend { return e.cfg.ContentStore }

// Close tears the deployment down. The env-owned capture exporter is
// closed after the server so the final telemetry batch drains into the
// capture sink.
func (e *Env) Close() {
	for _, c := range e.clients {
		c.Close()
	}
	e.Server.Close()
	if e.exporter != nil {
		e.exporter.Close()
	}
}

// PlainDAVEnv is one plaintext baseline server with an HTTPS client.
type PlainDAVEnv struct {
	Base   string
	Client *http.Client
	server *plaindav.Server
}

// NewPlainDAV starts a baseline server with the given profile, under the
// same CA infrastructure as SeGShare. The network profile matches the
// SeGShare environment's.
func NewPlainDAV(profile plaindav.Profile, network netsim.Profile) (*PlainDAVEnv, error) {
	authority, err := segshare.NewCA("bench baseline CA")
	if err != nil {
		return nil, err
	}
	cert, err := plaindav.IssueServerCert(authority, []string{"localhost"})
	if err != nil {
		return nil, err
	}
	srv, err := plaindav.New(plaindav.Config{
		Profile:     profile,
		Backend:     store.NewMemory(),
		Certificate: cert,
	})
	if err != nil {
		return nil, err
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr, err := srv.StartOn(netsim.WrapListener(tcp, network))
	if err != nil {
		return nil, err
	}
	client := &http.Client{
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{
				RootCAs:    authority.CertPool(),
				ServerName: "localhost",
			},
			DialContext: netsimDialer(network),
		},
		Timeout: 5 * time.Minute,
	}
	return &PlainDAVEnv{
		Base:   "https://" + addr.String(),
		Client: client,
		server: srv,
	}, nil
}

// Close stops the baseline server.
func (p *PlainDAVEnv) Close() { p.server.Close() }

// NewPlainDAVByName starts a baseline by profile name ("apache" or
// "nginx") without network simulation.
func NewPlainDAVByName(name string) (*PlainDAVEnv, error) {
	switch name {
	case "apache":
		return NewPlainDAV(plaindav.ProfileApache, netsim.Profile{})
	case "nginx":
		return NewPlainDAV(plaindav.ProfileNginx, netsim.Profile{})
	default:
		return nil, fmt.Errorf("bench: unknown baseline profile %q", name)
	}
}

func netsimDialer(profile netsim.Profile) func(ctx context.Context, network, addr string) (net.Conn, error) {
	if profile.IsZero() {
		return nil
	}
	dialer := &net.Dialer{}
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := dialer.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return netsim.Wrap(conn, profile), nil
	}
}
