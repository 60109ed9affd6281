package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

// sloBase is a fixed wall-clock origin for ring arithmetic; burn rings
// address buckets by absolute unix-nano index, so tests pin the clock.
var sloBase = time.Unix(1_700_000_000, 0)

func TestBurnRingSums(t *testing.T) {
	r := newBurnRing(time.Second, 10*time.Second)
	now := sloBase
	for i := 0; i < 5; i++ {
		r.add(now, i < 2) // 5 total, 2 bad
	}
	if total, bad := r.sums(now, 10*time.Second); total != 5 || bad != 2 {
		t.Fatalf("sums = (%d, %d), want (5, 2)", total, bad)
	}

	now = now.Add(3 * time.Second)
	r.add(now, true)
	if total, bad := r.sums(now, 10*time.Second); total != 6 || bad != 3 {
		t.Errorf("after advance sums = (%d, %d), want (6, 3)", total, bad)
	}
	// A one-second window covers only the current bucket.
	if total, bad := r.sums(now, time.Second); total != 1 || bad != 1 {
		t.Errorf("1s window sums = (%d, %d), want (1, 1)", total, bad)
	}
	// A two-second window reaches one bucket back (empty here).
	if total, _ := r.sums(now, 2*time.Second); total != 1 {
		t.Errorf("2s window total = %d, want 1", total)
	}

	// A gap wider than the ring zeroes everything: quiet periods self-heal.
	now = now.Add(time.Minute)
	if total, bad := r.sums(now, 10*time.Second); total != 0 || bad != 0 {
		t.Errorf("after long gap sums = (%d, %d), want (0, 0)", total, bad)
	}
}

func TestBurnRingShortGapZeroesOnlySkipped(t *testing.T) {
	r := newBurnRing(time.Second, 10*time.Second)
	now := sloBase
	r.add(now, true)
	now = now.Add(4 * time.Second) // skips 3 buckets, within the ring
	r.add(now, false)
	if total, bad := r.sums(now, 10*time.Second); total != 2 || bad != 1 {
		t.Fatalf("sums = (%d, %d), want (2, 1)", total, bad)
	}
	// The old bucket falls out once the window no longer reaches it.
	if total, bad := r.sums(now, 3*time.Second); total != 1 || bad != 0 {
		t.Fatalf("3s window sums = (%d, %d), want (1, 0)", total, bad)
	}
}

func TestBurnRateMilli(t *testing.T) {
	cases := []struct {
		total, bad uint64
		objective  float64
		want       int64
	}{
		{0, 0, 0.999, 0},
		{100, 0, 0.999, 0},
		{100, 10, 0.9, 1000},     // 10% bad against a 10% budget: burn 1.0
		{10, 10, 0.999, 1000000}, // everything bad against 0.1% budget
		{1000, 1, 0.999, 1000},   // exactly at budget
	}
	for _, c := range cases {
		if got := burnRateMilli(c.total, c.bad, c.objective); got != c.want {
			t.Errorf("burnRateMilli(%d, %d, %v) = %d, want %d", c.total, c.bad, c.objective, got, c.want)
		}
	}
}

// testSLOConfig returns a config with second-grain windows, a
// controllable clock, and the slow pair effectively disabled so tests
// exercise the fast pair in isolation.
func testSLOConfig(clock *time.Time, reg *Registry, onBreach func(op, speed string, burnMilli int64)) SLOConfig {
	return SLOConfig{
		Objective:        0.9,
		LatencyThreshold: time.Second,
		FastBurn:         2.0,
		SlowBurn:         1e9, // unreachable: isolate the fast pair
		FastShort:        5 * time.Second,
		FastLong:         50 * time.Second,
		SlowShort:        6 * time.Second,
		SlowLong:         60 * time.Second,
		MinEvents:        10,
		Obs:              reg,
		OnBreach:         onBreach,
		Now:              func() time.Time { return *clock },
	}
}

type breachCall struct {
	op, speed string
	burnMilli int64
}

func TestSLOEngineBreachLifecycle(t *testing.T) {
	clock := sloBase
	reg := NewRegistry()
	var calls []breachCall
	e := NewSLOEngine(testSLOConfig(&clock, reg, func(op, speed string, burnMilli int64) {
		calls = append(calls, breachCall{op, speed, burnMilli})
	}))

	// 20 server errors: 100% bad against a 10% budget → burn 10.0 in both
	// fast windows, past the 2.0 threshold, with MinEvents satisfied.
	for i := 0; i < 20; i++ {
		e.Record("fs_get", 500, time.Millisecond)
	}
	e.Evaluate(clock)
	if len(calls) != 1 {
		t.Fatalf("breach calls = %d, want 1 (%v)", len(calls), calls)
	}
	if calls[0].op != "fs_get" || calls[0].speed != BreachFast {
		t.Fatalf("breach = %+v", calls[0])
	}
	if calls[0].burnMilli < 2000 {
		t.Errorf("breach burnMilli = %d, want >= 2000", calls[0].burnMilli)
	}

	// Still burning: evaluating again is not a new transition.
	e.Evaluate(clock)
	if len(calls) != 1 {
		t.Fatalf("re-evaluation re-fired the breach: %d calls", len(calls))
	}

	st := e.Status()
	if len(st.Classes) != 1 || !st.Classes[0].FastBurning || st.Classes[0].SlowBurning {
		t.Fatalf("Status = %+v, want fs_get fast-burning only", st.Classes)
	}

	// The bad period ages out of both fast windows → recovery.
	clock = clock.Add(2 * time.Minute)
	e.Evaluate(clock)
	if st := e.Status(); st.Classes[0].FastBurning {
		t.Fatal("still breached after the windows emptied")
	}

	// A second bad period is a second transition.
	for i := 0; i < 20; i++ {
		e.Record("fs_get", 500, time.Millisecond)
	}
	e.Evaluate(clock)
	if len(calls) != 2 {
		t.Fatalf("breach calls after second incident = %d, want 2", len(calls))
	}

	// The breach counter carries the closed speed label.
	var breachCount int64
	for _, m := range reg.Snapshot() {
		if m.Name == "segshare_slo_breaches_total" {
			for _, l := range m.Labels {
				if l.Key == "speed" && l.Value == BreachFast {
					breachCount = m.Value
				}
			}
		}
	}
	if breachCount != 2 {
		t.Errorf("segshare_slo_breaches_total{speed=fast_burn} = %v, want 2", breachCount)
	}
}

func TestSLOEngineMinEventsGate(t *testing.T) {
	clock := sloBase
	fired := false
	e := NewSLOEngine(testSLOConfig(&clock, nil, func(string, string, int64) { fired = true }))
	// 5 disasters out of 5 requests — but below MinEvents (10), so an
	// idle server's failing probe cannot page.
	for i := 0; i < 5; i++ {
		e.Record("fs_get", 500, time.Millisecond)
	}
	e.Evaluate(clock)
	if fired {
		t.Fatal("breach fired below the MinEvents floor")
	}
}

func TestSLOEngineLatencyThresholdAndPerOpOverride(t *testing.T) {
	clock := sloBase
	var calls []breachCall
	cfg := testSLOConfig(&clock, nil, func(op, speed string, burnMilli int64) {
		calls = append(calls, breachCall{op, speed, burnMilli})
	})
	cfg.PerOpLatency = map[string]time.Duration{"fs_put": 10 * time.Second}
	e := NewSLOEngine(cfg)

	// 2xx but slower than the 1s default threshold: bad for fs_get...
	for i := 0; i < 20; i++ {
		e.Record("fs_get", 200, 2*time.Second)
		// ...but fine for fs_put, whose override allows 10s.
		e.Record("fs_put", 200, 2*time.Second)
	}
	e.Evaluate(clock)
	if len(calls) != 1 || calls[0].op != "fs_get" {
		t.Fatalf("breaches = %+v, want exactly one for fs_get", calls)
	}
}

func TestSLOStatusLeakBudgetAndHandler(t *testing.T) {
	clock := sloBase
	reg := NewRegistry()
	e := NewSLOEngine(testSLOConfig(&clock, reg, nil))
	for i := 0; i < 17; i++ { // deliberately not a bucket bound
		e.Record("fs_get", 500, time.Millisecond)
	}
	e.Record("api_permission", 200, time.Millisecond)
	e.Evaluate(clock)

	st := e.Status()
	if err := VerifySLOStatus(st); err != nil {
		t.Fatalf("VerifySLOStatus: %v", err)
	}
	if len(st.Classes) != 2 || st.Classes[0].Op != "api_permission" || st.Classes[1].Op != "fs_get" {
		t.Fatalf("classes not sorted by op: %+v", st.Classes)
	}
	for _, w := range st.Classes[1].Windows {
		if !IsBucketBound(w.TotalLe) || w.TotalLe < 17 {
			t.Errorf("window %s TotalLe = %d: want a bucket bound >= 17", w.Window, w.TotalLe)
		}
		switch w.Window {
		case WindowFastShort, WindowFastLong, WindowSlowShort, WindowSlowLong:
		default:
			t.Errorf("window name %q outside the closed set", w.Window)
		}
	}

	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var got SLOStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("handler body: %v", err)
	}
	if len(got.Classes) != 2 {
		t.Fatalf("handler classes = %d, want 2", len(got.Classes))
	}

	// The burn gauges carry only the closed op/win labels.
	sawGauge := false
	for _, m := range reg.Snapshot() {
		if m.Name != "segshare_slo_burn_rate_milli" {
			continue
		}
		sawGauge = true
		for _, l := range m.Labels {
			if l.Key != "op" && l.Key != "win" {
				t.Errorf("unexpected burn-gauge label %s", l.Key)
			}
		}
	}
	if !sawGauge {
		t.Error("segshare_slo_burn_rate_milli not registered")
	}
	if errs := reg.VerifyAll(); len(errs) != 0 {
		t.Fatalf("VerifyAll: %v", errs)
	}
}

func TestVerifySLOStatusRejectsRawCounts(t *testing.T) {
	bad := SLOStatus{Classes: []SLOClassStatus{{
		Op: "fs_get",
		Windows: []SLOWindowStatus{
			{Window: WindowFastShort, TotalLe: 17}, // raw, not a bucket bound
			{Window: WindowFastLong},
			{Window: WindowSlowShort},
			{Window: WindowSlowLong},
		},
	}}}
	if err := VerifySLOStatus(bad); err == nil {
		t.Error("raw TotalLe passed verification")
	}
	leaky := SLOStatus{Classes: []SLOClassStatus{{
		Op: "/users/alice/payroll", // path-shaped
		Windows: []SLOWindowStatus{
			{Window: WindowFastShort}, {Window: WindowFastLong},
			{Window: WindowSlowShort}, {Window: WindowSlowLong},
		},
	}}}
	if err := VerifySLOStatus(leaky); err == nil {
		t.Error("path-shaped op passed verification")
	}
}

func TestSLOEngineEmpty(t *testing.T) {
	clock := sloBase
	live := NewSLOEngine(testSLOConfig(&clock, nil, nil))
	if st := live.Status(); st.Classes == nil || len(st.Classes) != 0 {
		t.Fatalf("empty engine Status.Classes = %#v, want empty non-nil", st.Classes)
	}
}

func TestSLOEngineStartStop(t *testing.T) {
	clock := sloBase
	cfg := testSLOConfig(&clock, nil, nil)
	cfg.EvalInterval = time.Millisecond
	e := NewSLOEngine(cfg)
	e.Start()
	e.Record("fs_get", 200, time.Millisecond)
	time.Sleep(5 * time.Millisecond) // let the evaluator tick
	e.Stop()
	e.Stop() // idempotent

	// Stop before Start must not hang.
	idle := NewSLOEngine(testSLOConfig(&clock, nil, nil))
	idle.Stop()
}
