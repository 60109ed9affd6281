package core

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"segshare/internal/audit"
	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/fspath"
	"segshare/internal/journal"
	"segshare/internal/obs"
	"segshare/internal/store"
)

// newOverloadFixture builds a server with the observability registry
// exposed and optional config tweaks, for the admission, cancellation,
// and drain tests.
func newOverloadFixture(t *testing.T, mutate func(*Config)) (*handlerFixture, *obs.Registry) {
	t.Helper()
	authority, err := ca.New("overload test CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: store.NewMemory(),
		GroupStore:   store.NewMemory(),
		Obs:          reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	server, err := NewServer(platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return &handlerFixture{server: server, authority: authority, certs: make(map[string]*x509.Certificate)}, reg
}

// doCtx is handlerFixture.do with a caller-supplied request context.
func doCtx(f *handlerFixture, t *testing.T, ctx context.Context, user, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	req = req.WithContext(ctx)
	req.TLS = &tls.ConnectionState{PeerCertificates: []*x509.Certificate{f.cert(t, user)}}
	rec := httptest.NewRecorder()
	f.server.handler().ServeHTTP(rec, req)
	return rec
}

// TestCancelledRequestReturns499 verifies end-to-end cancellation on the
// read path: a GET whose client context is already gone must stop before
// doing crypto work, surface HTTP 499, and tick the cancelled counter.
func TestCancelledRequestReturns499(t *testing.T) {
	f, reg := newOverloadFixture(t, nil)
	if rec := f.do(t, "alice", "PUT", "/fs/a.txt", []byte("payload"), nil); rec.Code != 201 {
		t.Fatalf("PUT = %d: %s", rec.Code, rec.Body)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := doCtx(f, t, ctx, "alice", "GET", "/fs/a.txt", nil)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("canceled GET = %d, want %d: %s", rec.Code, StatusClientClosedRequest, rec.Body)
	}
	cancelled := reg.Counter("segshare_requests_cancelled_total", "", nil)
	if cancelled.Value() != 1 {
		t.Fatalf("segshare_requests_cancelled_total = %d, want 1", cancelled.Value())
	}

	// A live context still reads the same file fine.
	if rec := f.do(t, "alice", "GET", "/fs/a.txt", nil, nil); rec.Code != 200 {
		t.Fatalf("GET after cancellation = %d: %s", rec.Code, rec.Body)
	}
}

// TestCancelledMutationBeforeCommitLeavesNoState verifies the mutation
// cancellation contract: a PUT canceled before the journal intent
// commits must leave no trace — no file, no pending intent.
func TestCancelledMutationBeforeCommitLeavesNoState(t *testing.T) {
	f, _ := newOverloadFixture(t, nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := doCtx(f, t, ctx, "alice", "PUT", "/fs/never.txt", []byte("data"))
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("canceled PUT = %d, want %d: %s", rec.Code, StatusClientClosedRequest, rec.Body)
	}
	if rec := f.do(t, "alice", "GET", "/fs/never.txt", nil, nil); rec.Code != 404 {
		t.Fatalf("GET after canceled PUT = %d, want 404", rec.Code)
	}
	if n := f.server.fm.journal.PendingCount(); n != 0 {
		t.Fatalf("canceled PUT left %d pending intents", n)
	}
}

// cancelingStore counts Gets and, once armed, cancels a request context
// right after the Get that reaches the armed count (at once for 0).
type cancelingStore struct {
	store.Backend
	mu       sync.Mutex
	gets     int
	cancelAt int
	cancel   context.CancelFunc
}

func (c *cancelingStore) arm(cancelAt int, cancel context.CancelFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets, c.cancelAt, c.cancel = 0, cancelAt, cancel
	if cancelAt == 0 {
		cancel()
	}
}

func (c *cancelingStore) Get(name string) ([]byte, error) {
	raw, err := c.Backend.Get(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	if c.gets == c.cancelAt {
		c.cancel()
	}
	return raw, err
}

// TestCancelledReadIssuesNoFurtherGet verifies that every blob read of a
// GET honours the request context: wherever in its sequence of store
// Gets the client goes away — before the first, or right after any but
// the last — the request returns ErrCanceled and issues no further Get.
// With the relation caches warm, the Range GET (raw body, rollback off)
// is a single random-access read in rangeFast, and the rollback-mode GET
// reads the headers of the file's bucket siblings in validateNode — both
// used to read the store outside the request context and ran on.
func TestCancelledReadIssuesNoFurtherGet(t *testing.T) {
	tests := []struct {
		name     string
		features Features
		read     func(ac *accessControl, path fspath.Path) error
	}{
		{"range", Features{}, func(ac *accessControl, path fspath.Path) error {
			_, err := ac.GetFileRange("alice", path, ByteRange{Start: 5000, End: 5999})
			return err
		}},
		{"rollback", Features{RollbackProtection: true}, func(ac *accessControl, path fspath.Path) error {
			_, err := ac.GetFile("alice", path)
			return err
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cs := &cancelingStore{Backend: store.NewMemory()}
			f, _ := newOverloadFixture(t, func(cfg *Config) {
				cfg.ContentStore = cs
				cfg.Features = tc.features
			})
			// 48 siblings over 16 buckets: the target shares its bucket.
			for i := 0; i < 48; i++ {
				if rec := f.do(t, "alice", "PUT", fmt.Sprintf("/fs/f%02d.bin", i), make([]byte, 10000), nil); rec.Code != 201 {
					t.Fatalf("PUT %d = %d: %s", i, rec.Code, rec.Body)
				}
			}
			path := mustPath(t, "/f07.bin")

			// The first live read warms the caches, the second counts.
			for i := 0; i < 2; i++ {
				cs.arm(-1, nil)
				if err := tc.read(f.server.ac.withRequest(nil, context.Background()), path); err != nil {
					t.Fatalf("live read: %v", err)
				}
			}
			total := cs.gets
			if total < 1 {
				t.Fatalf("live read issued %d content-store Gets", total)
			}
			for at := 0; at < total; at++ {
				ctx, cancel := context.WithCancel(context.Background())
				cs.arm(at, cancel)
				err := tc.read(f.server.ac.withRequest(nil, ctx), path)
				cancel()
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("canceled after Get %d of %d: err = %v, want ErrCanceled", at, total, err)
				}
				if cs.gets != at {
					t.Fatalf("canceled after Get %d of %d: %d Gets issued", at, total, cs.gets)
				}
			}
		})
	}
}

// TestMaxBodyRejected413 verifies the request-body cap: an oversized PUT
// is rejected with 413 and leaves no partial state.
func TestMaxBodyRejected413(t *testing.T) {
	f, _ := newOverloadFixture(t, func(cfg *Config) {
		cfg.MaxBodyBytes = 16
	})
	big := bytes.Repeat([]byte("x"), 64)
	if rec := f.do(t, "alice", "PUT", "/fs/big.txt", big, nil); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT = %d, want 413: %s", rec.Code, rec.Body)
	}
	if rec := f.do(t, "alice", "GET", "/fs/big.txt", nil, nil); rec.Code != 404 {
		t.Fatalf("GET after rejected PUT = %d, want 404", rec.Code)
	}
	// A body within the cap still works.
	if rec := f.do(t, "alice", "PUT", "/fs/ok.txt", []byte("small"), nil); rec.Code != 201 {
		t.Fatalf("small PUT = %d: %s", rec.Code, rec.Body)
	}
}

// TestOverloadSheds503WithRetryAfter saturates a one-slot admission
// limiter over HTTP: overflow requests must shed as 503 with a
// Retry-After header while admitted requests still succeed.
func TestOverloadSheds503WithRetryAfter(t *testing.T) {
	plan := &store.FaultPlan{}
	f, reg := newOverloadFixture(t, func(cfg *Config) {
		cfg.ContentStore = store.NewFaultyWithPlan(store.NewMemory(), plan)
		cfg.Admission = &AdmissionConfig{
			MaxInFlight:  1,
			MinInFlight:  1,
			QueueLimit:   1,
			QueueTimeout: 5 * time.Millisecond,
		}
	})
	if rec := f.do(t, "alice", "PUT", "/fs/a.txt", []byte("payload"), nil); rec.Code != 201 {
		t.Fatalf("PUT = %d: %s", rec.Code, rec.Body)
	}
	f.cert(t, "alice") // warm the cert cache before concurrent use

	plan.SetLatency(20 * time.Millisecond)
	const clients = 16
	codes := make([]int, clients)
	headers := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := f.do(t, "alice", "GET", "/fs/a.txt", nil, nil)
			codes[i] = rec.Code
			headers[i] = rec.Header().Get("Retry-After")
		}(i)
	}
	wg.Wait()
	plan.Revive()

	var ok, shed int
	for i, code := range codes {
		switch code {
		case 200:
			ok++
		case http.StatusServiceUnavailable:
			shed++
			if headers[i] == "" {
				t.Errorf("503 response %d missing Retry-After header", i)
			}
		default:
			t.Errorf("unexpected status %d", code)
		}
	}
	if ok == 0 {
		t.Fatal("no request succeeded under overload (goodput collapsed)")
	}
	if shed == 0 {
		t.Fatal("no request was shed with a one-slot limiter and 16 clients")
	}
	if v := reg.Counter("segshare_admission_shed_total", "", obs.Labels{"class": "read"}).Value() +
		reg.Counter("segshare_admission_queue_timeout_total", "", obs.Labels{"class": "read"}).Value(); v == 0 {
		t.Fatal("shed/timeout counters did not move")
	}
}

// TestDrainLifecycle runs the full graceful-drain contract: in-flight
// requests complete, new requests bounce with 503 + Retry-After, the
// journal closes with an empty replay set, the audit chain verifies
// offline and contains the drain event, and readiness reports draining.
func TestDrainLifecycle(t *testing.T) {
	plan := &store.FaultPlan{}
	auditStore := store.NewMemory()
	f, reg := newOverloadFixture(t, func(cfg *Config) {
		cfg.ContentStore = store.NewFaultyWithPlan(store.NewMemory(), plan)
		cfg.AuditStore = auditStore
		cfg.Audit = audit.Options{CheckpointEvery: 4, Overflow: audit.OverflowBlock}
	})
	server := f.server

	if rec := f.do(t, "alice", "MKCOL", "/fs/docs/", nil, nil); rec.Code != 201 {
		t.Fatalf("MKCOL = %d: %s", rec.Code, rec.Body)
	}
	if rec := f.do(t, "alice", "PUT", "/fs/docs/a.txt", []byte("drain me"), nil); rec.Code != 201 {
		t.Fatalf("PUT = %d: %s", rec.Code, rec.Body)
	}
	f.cert(t, "alice")

	// One slow GET in flight while the drain starts.
	plan.SetLatency(50 * time.Millisecond)
	inflight := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		inflight <- f.do(t, "alice", "GET", "/fs/docs/a.txt", nil, nil)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for server.Traces().Active() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow GET never became visible in flight")
		}
		time.Sleep(time.Millisecond)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := server.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	plan.Revive()

	// The in-flight request completed rather than being dropped.
	if rec := <-inflight; rec.Code != 200 {
		t.Fatalf("in-flight GET during drain = %d: %s", rec.Code, rec.Body)
	}

	// New requests bounce with 503 + Retry-After; readiness says draining.
	rec := f.do(t, "alice", "GET", "/fs/docs/a.txt", nil, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("GET after drain = %d, want 503: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("post-drain 503 missing Retry-After")
	}
	if err := server.CheckDraining(); err == nil {
		t.Fatal("CheckDraining passed on a draining server")
	}

	// Journal: closed against new commits, nothing left to replay.
	jl := server.fm.journal
	if n := jl.PendingCount(); n != 0 {
		t.Fatalf("journal has %d pending intents after a clean drain", n)
	}
	if _, err := jl.Commit("fs_put", nil, nil); err != journal.ErrClosed {
		t.Fatalf("Commit after drain: err = %v, want ErrClosed", err)
	}

	// Drain gauges: a clean drain waited some time and left nothing behind.
	if v := reg.Gauge("segshare_drain_remaining", "", nil).Value(); v != 0 {
		t.Fatalf("segshare_drain_remaining = %d, want 0", v)
	}
	if v := reg.Gauge("segshare_drain_ns", "", nil).Value(); v <= 0 {
		t.Fatalf("segshare_drain_ns = %d, want > 0", v)
	}

	// Offline audit verification, exactly as an operator would run it.
	keys, err := audit.DeriveKeys(server.RootKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	liveCounter := server.Enclave().Counter("audit-log").Value()
	var dump bytes.Buffer
	if _, err := audit.Verify(auditStore, keys, audit.VerifyOptions{
		ExpectCounter: liveCounter,
		Dump:          &dump,
	}); err != nil {
		t.Fatalf("offline audit verification after drain: %v", err)
	}
	var sawDrain bool
	dec := json.NewDecoder(&dump)
	for dec.More() {
		var r audit.Record
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		if r.Event == audit.EventDrain {
			sawDrain = true
		}
	}
	if !sawDrain {
		t.Fatal("audit trail has no drain event")
	}
}

// TestDrainRejectsDirectSessions: once Drain returned, in-process
// sessions are refused as HTTP requests are — ErrOverloaded, a 503, one
// wide event per call — instead of reading on (200) or failing their
// intent commit against the closed journal (500).
func TestDrainRejectsDirectSessions(t *testing.T) {
	f, reg := newOverloadFixture(t, nil)
	alice := f.server.Direct("alice")
	if err := alice.Upload("/a.txt", []byte("before drain")); err != nil {
		t.Fatal(err)
	}
	if err := f.server.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	wide := reg.Counter("segshare_wide_events_total", "", nil)
	for name, call := range map[string]func() error{
		"download": func() error { _, err := alice.Download("/a.txt"); return err },
		"upload":   func() error { return alice.Upload("/a.txt", []byte("after drain")) },
	} {
		before := wide.Value()
		err := call()
		if !errors.Is(err, ErrOverloaded) || statusForErr(err) != http.StatusServiceUnavailable {
			t.Fatalf("%s after drain: %v (status %d), want ErrOverloaded and 503", name, err, statusForErr(err))
		}
		if n := wide.Value() - before; n != 1 {
			t.Fatalf("%s after drain emitted %d wide events, want 1", name, n)
		}
	}
}

// TestDrainDeadlineExpires verifies a drain that cannot finish: the
// deadline elapses with a request still in flight, Drain reports it, and
// the remaining gauge is non-zero.
func TestDrainDeadlineExpires(t *testing.T) {
	plan := &store.FaultPlan{}
	f, reg := newOverloadFixture(t, func(cfg *Config) {
		cfg.ContentStore = store.NewFaultyWithPlan(store.NewMemory(), plan)
	})
	server := f.server

	if rec := f.do(t, "alice", "PUT", "/fs/slow.txt", []byte("slow"), nil); rec.Code != 201 {
		t.Fatalf("PUT = %d: %s", rec.Code, rec.Body)
	}
	f.cert(t, "alice")

	plan.SetLatency(300 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.do(t, "alice", "GET", "/fs/slow.txt", nil, nil)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for server.Traces().Active() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow GET never became visible in flight")
		}
		time.Sleep(time.Millisecond)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := server.Drain(drainCtx)
	if err == nil {
		t.Fatal("Drain returned nil with a request still in flight")
	}
	if v := reg.Gauge("segshare_drain_remaining", "", nil).Value(); v == 0 {
		t.Fatal("segshare_drain_remaining = 0 after an expired drain")
	}
	plan.Revive()
	<-done
}
