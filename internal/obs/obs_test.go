package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryDedup(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("segshare_requests_total", "h", Labels{"op": "fs_get"})
	b := reg.Counter("segshare_requests_total", "h", Labels{"op": "fs_get"})
	if a != b {
		t.Fatalf("same name+labels returned distinct counters")
	}
	c := reg.Counter("segshare_requests_total", "h", Labels{"op": "fs_put"})
	if a == c {
		t.Fatalf("different labels returned the same counter")
	}
	a.Add(2)
	if got := b.Value(); got != 2 {
		t.Fatalf("shared counter = %d, want 2", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("segshare_thing_total", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering as gauge did not panic")
		}
	}()
	reg.Gauge("segshare_thing_total", "", nil)
}

func TestRegistryConcurrentRegister(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				reg.Counter("segshare_concurrent_total", "", Labels{"op": "x"}).Inc()
			}
		}()
	}
	wg.Wait()
	snap := reg.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d metrics, want 1", len(snap))
	}
	if snap[0].Value != 1600 {
		t.Fatalf("counter = %d, want 1600", snap[0].Value)
	}
}

func TestPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("segshare_requests_total", "Requests by class.", Labels{"op": "fs_get"}).Add(3)
	reg.Gauge("segshare_active", "", nil).Set(-2)
	h := reg.Histogram("segshare_req_ns", "Latency.", Labels{"op": "fs_get"})
	h.Observe(0)
	h.Observe(3)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE segshare_requests_total counter",
		`segshare_requests_total{op="fs_get"} 3`,
		"segshare_active -2",
		// Nanosecond histograms export as base-unit seconds with float
		// le boundaries, per Prometheus convention.
		"# TYPE segshare_req_seconds histogram",
		`segshare_req_seconds_bucket{op="fs_get",le="0"} 1`,
		`segshare_req_seconds_bucket{op="fs_get",le="3e-09"} 2`,
		`segshare_req_seconds_bucket{op="fs_get",le="7e-09"} 3`,
		`segshare_req_seconds_bucket{op="fs_get",le="+Inf"} 3`,
		`segshare_req_seconds_sum{op="fs_get"} 8e-09`,
		`segshare_req_seconds_count{op="fs_get"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "segshare_req_ns") {
		t.Errorf("prometheus output still contains raw nanosecond series:\n%s", out)
	}
}

// TestPrometheusNonDurationHistogram checks that histograms without the
// _ns suffix keep their integer unit.
func TestPrometheusNonDurationHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("segshare_tree_depth", "Depth.", nil)
	h.Observe(3)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`segshare_tree_depth_bucket{le="3"} 1`,
		"segshare_tree_depth_sum 3",
		"segshare_tree_depth_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestVarsJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("segshare_requests_total", "", Labels{"op": "fs_get"}).Inc()
	reg.Histogram("segshare_req_ns", "", nil).Observe(100)
	rec := NewTraceRecorder(4)
	tr := rec.Start("fs_get", nil)
	tr.End()

	var b strings.Builder
	if err := reg.WriteJSON(&b, rec); err != nil {
		t.Fatal(err)
	}
	var vars VarsSnapshot
	if err := json.Unmarshal([]byte(b.String()), &vars); err != nil {
		t.Fatalf("vars output is not valid JSON: %v", err)
	}
	if len(vars.Metrics) != 2 {
		t.Fatalf("vars has %d metrics, want 2", len(vars.Metrics))
	}
	if vars.Violations != 0 {
		t.Fatalf("violations = %d, want 0", vars.Violations)
	}
}

func TestTimer(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("segshare_req_ns", "", nil)
	tm := StartTimer(h)
	if d := tm.Stop(); d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	if got := h.Count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}
