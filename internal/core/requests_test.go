package core

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/obs"
	"segshare/internal/store"
)

// newRegistryObs builds a serverObs with the SLO engine and heavy-hitter
// accounting wired, as NewServer wires them, on a fresh metric registry —
// enough to exercise beginRequest/finishRequest and the recorder's live
// set without a full server.
func newRegistryObs(t *testing.T) *serverObs {
	t.Helper()
	o := newServerObs(obs.NewRegistry(), nil)
	p, err := obs.NewPseudonymizer()
	if err != nil {
		t.Fatal(err)
	}
	o.pseud = p
	o.hot = obs.NewTopK(4)
	o.slo = obs.NewSLOEngine(obs.SLOConfig{Obs: o.reg})
	return o
}

func TestRequestRegistryLifecycle(t *testing.T) {
	o := newRegistryObs(t)
	rs := &obs.ReqStats{}
	tr := o.beginRequest("fs_get", rs)
	if got := o.traces.Active(); got != 1 {
		t.Fatalf("live set after begin = %d, want 1", got)
	}

	closeSpan := tr.Span("store_get")
	rs.AddLockWait(3 * time.Millisecond)
	snap := o.traces.InFlight(0)
	if len(snap) != 1 {
		t.Fatalf("snapshot = %d entries, want 1", len(snap))
	}
	e := snap[0]
	if e.TraceID != tr.ID() || e.Op != "fs_get" || e.Span != "store_get" {
		t.Fatalf("snapshot entry = %+v", e)
	}
	if e.LockWaitNs < uint64(3*time.Millisecond) {
		t.Errorf("LockWaitNs = %d, want the request's live lock wait (>= 3ms)", e.LockWaitNs)
	}
	if err := obs.VerifyInFlightRequest(e); err != nil {
		t.Fatalf("VerifyInFlightRequest: %v", err)
	}
	if !obs.IsBucketBound(e.AgeNs) {
		t.Errorf("AgeNs = %d is not a bucket bound", e.AgeNs)
	}
	closeSpan()
	if got := o.traces.InFlight(0)[0].Span; got != "" {
		t.Errorf("span still open after close: %q", got)
	}

	// Group attribution pseudonymizes at tag time: the raw id is never
	// stored, and a later tag (group-targeted mutation) overwrites.
	o.tagRequestGroup(tr, "user:alice")
	o.tagRequestGroup(tr, "group:finance-team")
	if g := tr.Group(); len(g) != obs.PseudonymLen || strings.Contains(g, "finance") {
		t.Fatalf("stored group tag %q is not a pseudonym", g)
	}
	if tr.Group() != o.pseud.Pseudonym("group:finance-team") {
		t.Error("later tag did not overwrite the earlier one")
	}
	// The tag stays inside: no export form of the trace carries it.
	raw, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), tr.Group()) {
		t.Fatalf("trace snapshot carries the group pseudonym: %s", raw)
	}

	// finishRequest removes the trace from the live set and charges the
	// sketch.
	o.finishRequest("fs_get", 200, time.Millisecond, 10, 20, tr, rs)
	if got := o.traces.Active(); got != 0 {
		t.Fatalf("live set after finish = %d, want 0", got)
	}
	hot := o.hot.Snapshot()
	if len(hot.Entries) != 1 {
		t.Fatalf("hot entries = %d, want 1", len(hot.Entries))
	}
	if hot.Entries[0].BytesLe < 30 {
		t.Errorf("BytesLe = %d, want >= 30 (10 in + 20 out)", hot.Entries[0].BytesLe)
	}
	if err := obs.VerifyHotStatus(hot); err != nil {
		t.Fatalf("VerifyHotStatus: %v", err)
	}

	// An untagged request finishes without charging anyone.
	tr2 := o.beginRequest("fs_get", rs)
	o.finishRequest("fs_get", 200, time.Millisecond, 5, 5, tr2, rs)
	if got := len(o.hot.Snapshot().Entries); got != 1 {
		t.Fatalf("untagged request grew the sketch to %d entries", got)
	}
}

func TestRequestRegistryOverDeadline(t *testing.T) {
	o := newRegistryObs(t)
	rs := &obs.ReqStats{}
	tr := o.beginRequest("fs_move", rs)
	time.Sleep(2 * time.Millisecond)

	n, oldest, oldestID, op := o.traces.OverDeadline(time.Millisecond)
	if n != 1 || oldestID != tr.ID() || op != "fs_move" {
		t.Fatalf("OverDeadline = (%d, %v, %d, %q), want the live request", n, oldest, oldestID, op)
	}
	if oldest < time.Millisecond {
		t.Errorf("oldest = %v, want >= 1ms", oldest)
	}
	if n, _, _, _ := o.traces.OverDeadline(time.Hour); n != 0 {
		t.Fatalf("hour deadline flagged %d requests", n)
	}
	o.finishRequest("fs_move", 200, time.Millisecond, 0, 0, tr, rs)
	if n, _, _, _ := o.traces.OverDeadline(time.Nanosecond); n != 0 {
		t.Fatal("finished request still over deadline")
	}
}

func TestRequestsHandler(t *testing.T) {
	s := &Server{obs: newRegistryObs(t)}
	rs := &obs.ReqStats{}
	var open []*obs.Trace
	for i := 0; i < 3; i++ {
		open = append(open, s.obs.beginRequest("fs_get", rs))
	}

	rec := httptest.NewRecorder()
	s.RequestsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/requests = %d: %s", rec.Code, rec.Body)
	}
	var st inFlightStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Count != 3 || len(st.Requests) != 3 {
		t.Fatalf("status = count %d / %d listed, want 3/3", st.Count, len(st.Requests))
	}
	for i, r := range st.Requests {
		if err := obs.VerifyInFlightRequest(r); err != nil {
			t.Fatalf("VerifyInFlightRequest over the wire: %v", err)
		}
		if r.TraceID != open[i].ID() {
			t.Errorf("entry %d is trace %d, want %d (oldest first)", i, r.TraceID, open[i].ID())
		}
	}

	// ?n= limits the listing but the count stays total.
	rec = httptest.NewRecorder()
	s.RequestsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests?n=2", nil))
	var limited inFlightStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &limited); err != nil {
		t.Fatal(err)
	}
	if limited.Count != 3 || len(limited.Requests) != 2 {
		t.Fatalf("limited = count %d / %d listed, want 3/2", limited.Count, len(limited.Requests))
	}

	for _, tr := range open {
		s.obs.finishRequest("fs_get", 200, time.Millisecond, 0, 0, tr, rs)
	}

	// An idle server lists an empty array, not null.
	rec = httptest.NewRecorder()
	s.RequestsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
	if body := rec.Body.String(); !strings.Contains(body, `"requests":[]`) || !strings.Contains(body, `"count":0`) {
		t.Fatalf("idle /debug/requests = %s", body)
	}
}

// TestOneLiveSetForHTTPAndDirect parks one HTTP request and one
// DirectSession request mid-handler. Every in-flight reading — the
// /debug/requests count, segshare_requests_inflight and /debug/vars
// tracesActive — comes from the recorder's one live set and counts both,
// and Drain waits for both.
func TestOneLiveSetForHTTPAndDirect(t *testing.T) {
	gate := &gatedStore{Backend: store.NewMemory(), release: make(chan struct{})}
	f, reg := newOverloadFixture(t, func(cfg *Config) { cfg.ContentStore = gate })
	server := f.server
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	t.Cleanup(release)

	if rec := f.do(t, "alice", "PUT", "/fs/a.txt", []byte("parked"), nil); rec.Code != http.StatusCreated {
		t.Fatalf("PUT = %d: %s", rec.Code, rec.Body)
	}
	d := server.Direct("alice")

	gate.arm()
	var (
		wg        sync.WaitGroup
		httpCode  int
		directErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		httpCode = f.do(t, "alice", "GET", "/fs/a.txt", nil, nil).Code
	}()
	go func() {
		defer wg.Done()
		_, directErr = d.Download("/a.txt")
	}()
	for deadline := time.Now().Add(5 * time.Second); server.Traces().Active() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("live set = %d, want the two parked requests", server.Traces().Active())
		}
	}

	rec := httptest.NewRecorder()
	server.RequestsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
	var st inFlightStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Count != 2 || len(st.Requests) != 2 {
		t.Fatalf("/debug/requests = count %d / %d listed, want 2/2", st.Count, len(st.Requests))
	}
	inflight := reg.Gauge("segshare_requests_inflight", "", nil)
	if v := inflight.Value(); v != 2 {
		t.Fatalf("segshare_requests_inflight = %d, want 2", v)
	}
	if v := reg.Vars(server.Traces()).TracesActive; v != 2 {
		t.Fatalf("tracesActive = %d, want 2", v)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- server.Drain(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while both requests were parked", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	if httpCode != http.StatusOK || directErr != nil {
		t.Fatalf("parked requests finished with HTTP %d / direct %v", httpCode, directErr)
	}
	if v := inflight.Value(); v != 0 {
		t.Fatalf("segshare_requests_inflight = %d after drain, want 0", v)
	}
}

// warmDirectSession returns a direct session on a server built like the
// binary's (every store behind its store.Resilient) holding payload at
// /f.txt.
func warmDirectSession(t *testing.T, payload []byte) *DirectSession {
	t.Helper()
	authority, err := ca.New("alloc test CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(platform, Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: store.NewMemory(),
		GroupStore:   store.NewMemory(),
		Obs:          obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	d := server.Direct("alice")
	if err := d.Upload("/f.txt", payload); err != nil {
		t.Fatal(err)
	}
	return d
}

// warmAllocRows are the payloads the warm-request alloc tests run at, with
// each one's GET and PUT budgets: a few bytes, and 64 KiB — 16 chunks,
// sealed and opened in one pass on the request's goroutine.
var warmAllocRows = []struct {
	name     string
	payload  []byte
	get, put float64
}{
	{"7B", []byte("payload"), 21, 40},
	{"64KiB", bytes.Repeat([]byte("payload!"), 8<<10), 29, 48},
}

// TestWarmDirectGetAllocs pins what the cheapest request costs in heap
// objects. The per-request telemetry is one trace, one ReqStats and one
// wide event; a second in-flight record, or a store wrapper allocating
// per call, would show up here; so, in the 64 KiB row's 16 chunks, would
// an object per chunk or per goroutine of the chunk loop.
func TestWarmDirectGetAllocs(t *testing.T) {
	for _, row := range warmAllocRows {
		t.Run(row.name, func(t *testing.T) {
			d := warmDirectSession(t, row.payload)
			get := func() {
				if _, err := d.Download("/f.txt"); err != nil {
					t.Fatal(err)
				}
			}
			get() // warm the relation and key-schedule caches
			if n := testing.AllocsPerRun(200, get); n > row.get {
				t.Fatalf("warm direct GET = %.0f allocs, budget %.0f", n, row.get)
			}
		})
	}
}

// TestWarmDirectPutAllocs pins the same for an overwrite: the journaled
// mutation path, with its intent record, apply and retire, through the
// same store wrappers.
func TestWarmDirectPutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled key-derivation and hash scratch at random")
	}
	for _, row := range warmAllocRows {
		t.Run(row.name, func(t *testing.T) {
			d := warmDirectSession(t, row.payload)
			put := func() {
				if err := d.Upload("/f.txt", row.payload); err != nil {
					t.Fatal(err)
				}
			}
			// Warm the relation and key-schedule caches. A PUT invalidates
			// the file's cached keys and only a read refills them, so a GET
			// warms them first, as it does in a mixed workload.
			if _, err := d.Download("/f.txt"); err != nil {
				t.Fatal(err)
			}
			put()
			if n := testing.AllocsPerRun(200, put); n > row.put {
				t.Fatalf("warm direct PUT = %.0f allocs, budget %.0f", n, row.put)
			}
		})
	}
}
