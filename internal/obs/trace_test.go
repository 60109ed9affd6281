package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceLifecycle(t *testing.T) {
	rec := NewTraceRecorder(8)
	tr := rec.Start("fs_put", nil)
	if got := rec.Active(); got != 1 {
		t.Fatalf("active = %d, want 1", got)
	}
	end := tr.Span("dispatch")
	end()
	tr.Annotate("bytes_in", 1024)
	tr.SetStatus(201)
	tr.End()
	tr.End() // idempotent
	if got := rec.Active(); got != 0 {
		t.Fatalf("active after End = %d, want 0", got)
	}

	traces := rec.Recent(10)
	if len(traces) != 1 {
		t.Fatalf("recent = %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Op != "fs_put" || got.Status != 201 || !got.Finished {
		t.Fatalf("trace = %+v", got)
	}
	if len(got.Spans) != 1 || got.Spans[0].Name != "dispatch" {
		t.Fatalf("spans = %+v", got.Spans)
	}
	if got.Annotations["bytes_in"] != 1024 {
		t.Fatalf("annotations = %+v", got.Annotations)
	}
}

func TestTraceLeakBudget(t *testing.T) {
	rec := NewTraceRecorder(4)
	tr := rec.Start("fs_get", nil)
	tr.Annotate("user_bytes", 1) // denied token in key: dropped
	tr.Span("load_path")()       // denied token in span name: dropped
	tr.Annotate("bytes_out", 2)
	tr.End()
	got := rec.Recent(1)[0]
	if len(got.Spans) != 0 {
		t.Fatalf("span with denied name recorded: %+v", got.Spans)
	}
	if _, ok := got.Annotations["user_bytes"]; ok {
		t.Fatalf("annotation with denied key recorded")
	}
	if got.Annotations["bytes_out"] != 2 {
		t.Fatalf("budgeted annotation missing: %+v", got.Annotations)
	}
}

func TestTraceRingEviction(t *testing.T) {
	rec := NewTraceRecorder(3)
	for i := 0; i < 5; i++ {
		rec.Start("fs_get", nil).End()
	}
	if got := rec.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	traces := rec.Recent(0)
	if len(traces) != 3 {
		t.Fatalf("recent = %d, want 3", len(traces))
	}
	// Newest first, oldest two evicted.
	if traces[0].ID != 5 || traces[2].ID != 3 {
		t.Fatalf("ring kept wrong traces: %+v", traces)
	}
}

func TestTraceConcurrent(t *testing.T) {
	rec := NewTraceRecorder(16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr := rec.Start("fs_get", nil)
				tr.Span("dispatch")()
				tr.Annotate("bytes_out", int64(j))
				_ = rec.InFlight(4)
				_, _, _, _ = rec.OverDeadline(0)
				tr.End()
				_ = rec.Recent(4)
			}
		}()
	}
	wg.Wait()
	if got := rec.Active(); got != 0 {
		t.Fatalf("active = %d, want 0", got)
	}
}

// TestUnsampledTraceTakesNoRecorderLock holds the recorder-wide ring
// lock while a request that is not sampled starts and ends: it must
// finish on its live-set shard lock alone.
func TestUnsampledTraceTakesNoRecorderLock(t *testing.T) {
	rec := NewTraceRecorder(4)
	rec.SetPolicy(strictPolicy())
	rec.mu.Lock()
	defer rec.mu.Unlock()
	done := make(chan bool)
	go func() {
		tr := rec.Start("fs_get", nil)
		tr.SetStatus(200)
		done <- tr.End()
	}()
	select {
	case sampled := <-done:
		if sampled {
			t.Error("strict policy sampled an unremarkable trace")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an unsampled Start/End blocked on the recorder-wide lock")
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.SetStatus(200)
	tr.Annotate("bytes_out", 1)
	tr.Span("dispatch")()
	tr.End()
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("segshare_requests_total", "", Labels{"op": "fs_get"}).Inc()
	rec := NewTraceRecorder(4)
	rec.Start("fs_get", nil).End()
	h := Handler(reg, rec)

	cases := []struct {
		path string
		want string
	}{
		{"/metrics", "segshare_requests_total"},
		{"/debug/vars", "leakBudgetViolations"},
		{"/debug/traces?n=2", `"op": "fs_get"`},
		{"/debug/pprof/", "profiles"},
	}
	for _, c := range cases {
		req := httptest.NewRequest("GET", c.path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			t.Errorf("GET %s = %d", c.path, w.Code)
			continue
		}
		if !strings.Contains(w.Body.String(), c.want) {
			t.Errorf("GET %s body missing %q:\n%.400s", c.path, c.want, w.Body.String())
		}
	}
}
