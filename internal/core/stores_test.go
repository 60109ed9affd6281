package core

import (
	"testing"
	"time"

	"segshare/internal/audit"
	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/obs"
	"segshare/internal/store"
)

// TestServerStoresAlwaysResilient pins that NewServer leaves no store
// unwrapped: with a zero Config.Resilience every store still gets its
// store.Resilient, which exports both the breaker and the per-operation
// metrics under its role.
func TestServerStoresAlwaysResilient(t *testing.T) {
	reg := obs.NewRegistry()
	authority, err := ca.New("resilient stores CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	content := store.NewMemory()
	server, err := NewServer(platform, Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: content,
		GroupStore:   store.NewMemory(),
		DedupStore:   store.NewMemory(),
		AuditStore:   store.NewMemory(),
		Features:     Features{Dedup: true},
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	if err := server.Direct("alice").Upload("/f.txt", []byte("payload")); err != nil {
		t.Fatal(err)
	}

	for _, role := range []string{"content", "group", "dedup", "audit"} {
		labels := map[string]string{"store": role}
		if v := brownoutMetric(t, reg, "segshare_store_breaker_state", labels); v != 0 {
			t.Errorf("%s breaker state = %d, want 0 (closed)", role, v)
		}
		brownoutMetric(t, reg, "segshare_store_op_ns", labels) // fails the test when absent
	}

	rw, ok := server.fm.content.backend.(*store.Resilient)
	if !ok {
		t.Fatalf("content backend = %T, want *store.Resilient", server.fm.content.backend)
	}
	if rw.Unwrap() != store.Backend(content) {
		t.Fatalf("content wrapper unwraps to %T, want the raw store", rw.Unwrap())
	}
}

// TestBrownoutAuditStoreOutsideGate checks the audit store's wrapper: a
// one-shot fault on a segment write is retried and lands, and an open
// audit breaker never flips the server into degraded read-only mode —
// audit failures never gated mutations.
func TestBrownoutAuditStoreOutsideGate(t *testing.T) {
	reg := obs.NewRegistry()
	authority, err := ca.New("audit store CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plan := store.NewFaultPlan()
	server, err := NewServer(platform, Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: store.NewMemory(),
		GroupStore:   store.NewMemory(),
		AuditStore:   store.NewFaultyWithPlan(store.NewMemory(), plan),
		Audit:        audit.Options{Overflow: audit.OverflowBlock},
		Obs:          reg,
		Resilience: &store.ResilientOptions{
			BreakerThreshold: 1,
			Sleep:            func(time.Duration) {},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	d := server.Direct("alice")
	log := server.AuditLog()
	if err := d.Upload("/a.txt", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}

	auditLabel := map[string]string{"store": "audit"}
	plan.FailAtOp(1, errBrownout)
	if err := d.Upload("/b.txt", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := log.Flush(); err != nil {
		t.Fatalf("segment write with one transient fault = %v, want success via retry", err)
	}
	if v := brownoutMetric(t, reg, "segshare_store_retries_total", auditLabel); v != 1 {
		t.Fatalf("audit retries_total = %d, want 1", v)
	}

	plan.KillAtOp(1, errBrownout)
	if err := d.Upload("/c.txt", []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := log.Flush(); err == nil {
		t.Fatal("segment write against a dead audit store succeeded")
	}
	if v := brownoutMetric(t, reg, "segshare_store_breaker_state", auditLabel); v != 2 {
		t.Fatalf("audit breaker state = %d, want 2 (open)", v)
	}
	for _, name := range []string{"/d.txt", "/a.txt"} {
		if err := d.Upload(name, []byte("during")); err != nil {
			t.Fatalf("upload %s with the audit breaker open = %v, want success", name, err)
		}
	}
	if err := server.CheckDegraded(); err != nil {
		t.Fatalf("CheckDegraded with only the audit breaker open = %v", err)
	}
	if server.obs.degraded() {
		t.Fatal("wide events flagged degraded with only the audit breaker open")
	}
}
