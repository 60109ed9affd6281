package core

import (
	"crypto/x509"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/obs"
	"segshare/internal/store"
)

// newTelemetryFixture builds a server wired to an in-memory export sink
// with a sample-everything policy, so every request must surface as one
// wide event and one retained trace.
func newTelemetryFixture(t *testing.T, reg *obs.Registry, sink *obs.MemorySink) *handlerFixture {
	t.Helper()
	authority, err := ca.New("telemetry test CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	exporter := obs.NewExporter(sink, obs.ExporterOptions{FlushInterval: 5 * time.Millisecond})
	t.Cleanup(func() { exporter.Close() })
	server, err := NewServer(platform, Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: store.NewMemory(),
		GroupStore:   store.NewMemory(),
		AuditStore:   store.NewMemory(),
		Obs:          reg,
		Exporter:     exporter,
		// Everything takes longer than 1ns, so every request is sampled.
		SamplePolicy: &obs.SamplePolicy{SlowNs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return &handlerFixture{server: server, authority: authority, certs: make(map[string]*x509.Certificate)}
}

// TestWideEventPipelineEndToEnd drives the whole telemetry loop over
// real requests: handler chokepoint → wide event → bounded exporter →
// sink, tail-sampled trace alongside it, exemplar in the OpenMetrics
// export — with every exported field inside the leak budget.
func TestWideEventPipelineEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	sink := obs.NewMemorySink()
	f := newTelemetryFixture(t, reg, sink)

	steps := []struct {
		user, method, target string
		body                 []byte
		want                 int
	}{
		{"alice", "MKCOL", "/fs/top-secret-dir/", nil, 201},
		{"alice", "PUT", "/fs/top-secret-dir/payroll.txt", []byte("confidential numbers"), 201},
		{"alice", "GET", "/fs/top-secret-dir/payroll.txt", nil, 200},
		{"mallory", "GET", "/fs/top-secret-dir/payroll.txt", nil, 403},
		{"alice", "GET", "/fs/nope", nil, 404},
	}
	for _, s := range steps {
		if rec := f.do(t, s.user, s.method, s.target, s.body, nil); rec.Code != s.want {
			t.Fatalf("%s %s = %d (want %d): %s", s.method, s.target, rec.Code, s.want, rec.Body)
		}
	}

	// The exporter flushes on its own cadence; wait for everything.
	var events []obs.WideEvent
	var traces int
	deadline := time.Now().Add(5 * time.Second)
	for {
		events = events[:0]
		traces = 0
		for _, rec := range sink.Records() {
			switch {
			case rec.Kind == "wide_event" && rec.Event != nil:
				events = append(events, *rec.Event)
			case rec.Kind == "trace" && rec.Trace != nil:
				traces++
			}
		}
		if len(events) >= len(steps) && traces >= len(steps) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("export pipeline delivered %d events / %d traces, want %d each", len(events), traces, len(steps))
		}
		time.Sleep(10 * time.Millisecond)
	}

	wantOps := map[string]bool{"fs_mkcol": true, "fs_put": true, "fs_get": true}
	wantCodes := map[string]bool{"2xx": false, "4xx": false}
	for _, ev := range events {
		if err := obs.VerifyWideEvent(ev); err != nil {
			t.Errorf("wide event %+v violates the leak budget: %v", ev, err)
		}
		if !wantOps[ev.Op] {
			t.Errorf("unexpected op class %q", ev.Op)
		}
		if _, ok := wantCodes[ev.Code]; ok {
			wantCodes[ev.Code] = true
		}
		if ev.TraceID == 0 {
			t.Error("wide event carries no trace id")
		}
		if !ev.Sampled {
			t.Errorf("sample-everything policy left event %d unsampled", ev.TraceID)
		}
	}
	for code, seen := range wantCodes {
		if !seen {
			t.Errorf("no wide event with status class %s", code)
		}
	}

	// The GET must have charged store work to its stats.
	var anyStoreOps bool
	for _, ev := range events {
		if ev.Op == "fs_get" && ev.Code == "2xx" && ev.StoreOps > 0 {
			anyStoreOps = true
		}
	}
	if !anyStoreOps {
		t.Error("no successful GET event recorded store operations")
	}

	// Nothing request-identifying may appear in the serialized export.
	raw, err := json.Marshal(sink.Records())
	if err != nil {
		t.Fatal(err)
	}
	for _, leak := range []string{"alice", "mallory", "top-secret", "payroll", "confidential"} {
		if strings.Contains(string(raw), leak) {
			t.Fatalf("export stream leaks %q", leak)
		}
	}

	// The latency histograms must carry exemplars joinable to the traces.
	var sb strings.Builder
	if err := reg.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `# {trace_id="`) {
		t.Error("OpenMetrics export carries no exemplars")
	}

	// And the wide-event counter must account for every request.
	var wideTotal uint64
	for _, m := range reg.Snapshot() {
		if m.Name == "segshare_wide_events_total" {
			wideTotal = uint64(m.Value)
		}
	}
	if wideTotal < uint64(len(steps)) {
		t.Errorf("segshare_wide_events_total = %d, want >= %d", wideTotal, len(steps))
	}
}

// TestWatchdogSyntheticStall wires the watchdog into a full server and
// trips the request-deadline check with an artificially held-open trace:
// trigger, snapshot, /debug/watchdog visibility, then recovery once the
// request finishes.
func TestWatchdogSyntheticStall(t *testing.T) {
	reg := obs.NewRegistry()
	f := newWatchdogFixture(t, reg)
	wd := f.server.Watchdog()

	wd.Sweep()
	if got := wd.Stalled(); len(got) != 0 {
		t.Fatalf("idle server reports stalls: %v", got)
	}

	// Synthetic stall: a request that never finishes (entered through the
	// same beginRequest chokepoint real requests use, so the recorder's
	// live set holds it). With a 1ns deadline the next sweep must flag it.
	tr := f.server.obs.beginRequest("fs_get", &obs.ReqStats{})
	time.Sleep(time.Microsecond)
	wd.Sweep()
	stalled := wd.Stalled()
	found := false
	for _, name := range stalled {
		if name == "request_deadline" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Stalled() = %v, want request_deadline", stalled)
	}
	if snaps := wd.Snapshots(); len(snaps) == 0 {
		t.Fatal("stall captured no profile snapshot")
	} else if !strings.Contains(snaps[0].Goroutine, "goroutine") {
		t.Error("snapshot missing goroutine profile")
	}

	rec := httptest.NewRecorder()
	wd.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/watchdog", nil))
	if !strings.Contains(rec.Body.String(), "request_deadline") {
		t.Errorf("/debug/watchdog does not report the stall: %s", rec.Body.String())
	}

	// Finish the request; the check recovers on the next sweep.
	f.server.obs.finishRequest("fs_get", 200, time.Microsecond, 0, 0, tr, &obs.ReqStats{})
	wd.Sweep()
	for _, name := range wd.Stalled() {
		if name == "request_deadline" {
			t.Fatal("request_deadline still stalled after the request finished")
		}
	}
}

// newWatchdogFixture builds a server with the watchdog on manual-sweep
// settings: an hour-long interval (tests drive Sweep directly) and a
// 1ns request deadline so any in-flight request counts as stalled.
func newWatchdogFixture(t *testing.T, reg *obs.Registry) *handlerFixture {
	t.Helper()
	authority, err := ca.New("watchdog test CA")
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
		AuditStore:   store.NewMemory(),
		Obs:          reg,
		Watchdog: WatchdogConfig{
			Interval:        time.Hour,
			RequestDeadline: time.Nanosecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return &handlerFixture{server: server, authority: authority, certs: make(map[string]*x509.Certificate)}
}
