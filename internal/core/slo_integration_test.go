package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"segshare/internal/audit"
	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/obs"
	"segshare/internal/store"
)

// TestSLOBreachEvidenceTrail wires the full observability stack — SLO
// engine, in-flight set, heavy-hitter sketch, continuous profiler,
// audit log — into one server and drives a burn-rate breach through it.
// A breach must leave the complete evidence trail: an slo_breach audit
// record, force-sampled traces of the offending op class, and a profile
// pair captured with the breach reason. Run under -race, this is also
// the concurrency acceptance test for the new wiring.
func TestSLOBreachEvidenceTrail(t *testing.T) {
	reg := obs.NewRegistry()
	authority, err := ca.New("slo test CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	profiler, err := obs.NewContinuousProfiler(obs.ProfilerOptions{
		Dir:         t.TempDir(),
		Interval:    time.Hour, // captures come from triggers only
		CPUDuration: 20 * time.Millisecond,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer profiler.Stop()

	auditStore := store.NewMemory()
	server, err := NewServer(platform, Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: store.NewMemory(),
		GroupStore:   store.NewMemory(),
		Obs:          reg,
		AuditStore:   auditStore,
		Audit:        audit.Options{CheckpointEvery: 4, Overflow: audit.OverflowBlock},
		// Keep nothing on policy grounds, so every retained trace below is
		// provably the SLO engine's force-sampling at work.
		SamplePolicy: &obs.SamplePolicy{SlowNs: time.Hour.Nanoseconds(), ErrorStatus: 999, ContentionNs: time.Hour.Nanoseconds()},
		SLO: &obs.SLOConfig{
			Objective:        0.9,
			LatencyThreshold: time.Nanosecond, // every request is "bad"
			FastBurn:         1,
			SlowBurn:         1,
			FastShort:        50 * time.Millisecond,
			FastLong:         200 * time.Millisecond,
			SlowShort:        300 * time.Millisecond,
			SlowLong:         600 * time.Millisecond,
			EvalInterval:     time.Hour, // the test drives Evaluate directly
			MinEvents:        1,
		},
		Profiler: profiler,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })

	// A workload whose every request overruns the 1ns latency threshold.
	d := server.Direct("alice")
	if err := d.Mkdir("/reports/"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := d.Upload(fmt.Sprintf("/reports/q%d.txt", i), []byte("numbers")); err != nil {
			t.Fatal(err)
		}
	}

	sampledBefore := server.Traces().Sampled()
	server.SLO().Evaluate(time.Now())

	// /debug/slo reports the breach in leak-bounded form.
	st := server.SLO().Status()
	if err := obs.VerifySLOStatus(st); err != nil {
		t.Fatalf("VerifySLOStatus: %v", err)
	}
	breached := false
	for _, c := range st.Classes {
		if c.FastBurning {
			breached = true
		}
	}
	if !breached {
		t.Fatalf("no class fast-burning after an all-bad workload: %+v", st.Classes)
	}
	rec := httptest.NewRecorder()
	server.SLOHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/slo", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), obs.WindowFastShort) {
		t.Fatalf("/debug/slo = %d: %s", rec.Code, rec.Body)
	}

	// The breach armed force-sampling: subsequent requests of the
	// breached class are retained despite the keep-nothing policy.
	for i := 0; i < 5; i++ {
		if err := d.Upload("/reports/q0.txt", []byte("revised")); err != nil {
			t.Fatal(err)
		}
	}
	if got := server.Traces().Sampled(); got < sampledBefore+5 {
		t.Fatalf("sampled = %d after breach (was %d); force-sampling did not arm", got, sampledBefore)
	}

	// The fast burn triggered a profile pair tagged with the breach
	// reason.
	deadline := time.Now().Add(10 * time.Second)
	for {
		found := false
		for _, e := range profiler.Index().Entries {
			if e.Reason == "slo_"+obs.BreachFast {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no slo_fast_burn profile captured: %+v", profiler.Index().Entries)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// /debug/hot charges the workload to alice's pseudonymized default
	// group — and never the raw id.
	rec = httptest.NewRecorder()
	server.HotHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/hot", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/hot = %d", rec.Code)
	}
	var hot obs.HotStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &hot); err != nil {
		t.Fatal(err)
	}
	if len(hot.Entries) == 0 {
		t.Fatal("/debug/hot is empty after the workload")
	}
	if err := obs.VerifyHotStatus(hot); err != nil {
		t.Fatalf("VerifyHotStatus: %v", err)
	}
	if strings.Contains(rec.Body.String(), "alice") {
		t.Fatalf("/debug/hot leaks the user id: %s", rec.Body)
	}

	// /debug/requests answers (empty: nothing in flight between calls).
	rec = httptest.NewRecorder()
	server.RequestsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/requests = %d", rec.Code)
	}

	// The whole deployment — SLO gauges, profiler counters, hot sketch —
	// stays inside the leak budget.
	if got := reg.LeakBudgetViolations(); got != 0 {
		t.Fatalf("leak budget violations = %d", got)
	}
	if errs := reg.VerifyAll(); len(errs) != 0 {
		t.Fatalf("VerifyAll: %v", errs)
	}
	for _, m := range reg.Snapshot() {
		for _, l := range m.Labels {
			if strings.Contains(l.Value, "alice") || strings.Contains(l.Value, "reports") {
				t.Fatalf("metric %s label %s=%s leaks identity", m.Name, l.Key, l.Value)
			}
		}
	}

	// Offline audit verification: the breach is in the sealed log.
	keys, err := audit.DeriveKeys(server.RootKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	liveCounter := server.Enclave().Counter("audit-log").Value()
	var dump bytes.Buffer
	if _, err := audit.Verify(auditStore, keys, audit.VerifyOptions{ExpectCounter: liveCounter, Dump: &dump}); err != nil {
		t.Fatalf("offline verification failed: %v", err)
	}
	foundBreach := false
	dec := json.NewDecoder(&dump)
	for dec.More() {
		var r audit.Record
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		if r.Event == audit.EventSLOBreach && r.Detail == obs.BreachFast {
			foundBreach = true
		}
	}
	if !foundBreach {
		t.Fatal("no slo_breach/fast_burn record in the verified audit log")
	}
}
