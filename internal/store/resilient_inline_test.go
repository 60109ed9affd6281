package store

import (
	"context"
	"errors"
	"testing"
	"time"

	"segshare/internal/obs"
)

// TestResilientInlineOnlyForMemory pins which backends skip the worker
// pool: Memory alone runs inline; Disk and every wrapper that can stall
// keep the bounded worker dispatch and with it the deadline. The
// conformance suite's chains cover one of each path.
func TestResilientInlineOnlyForMemory(t *testing.T) {
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inners := map[string]struct {
		b      Backend
		inline bool
	}{
		"memory":    {NewMemory(), true},
		"disk":      {disk, false},
		"faultplan": {NewFaultyWithPlan(NewMemory(), NewFaultPlan()), false},
		"adversary": {NewAdversary(NewMemory()), false},
		"resilient": {NewResilient(NewMemory(), "content", fastOpts(nil)), false},
		"foreign":   {&slowBackend{Backend: NewMemory()}, false},
	}
	for name, tc := range inners {
		if got := NewResilient(tc.b, "content", fastOpts(nil)).inline; got != tc.inline {
			t.Errorf("Resilient(%s).inline = %v, want %v", name, got, tc.inline)
		}
	}

	chains := conformanceBackends(t)
	for name, inline := range map[string]bool{
		"resilient_memory":           true,
		"resilient_disk":             false,
		"resilient_faultplan_memory": false,
	} {
		b := chains[name]
		if r := b.(*Resilient); r.inline != inline {
			t.Errorf("conformance chain %s: inline = %v, want %v", name, r.inline, inline)
		}
	}
}

// TestResilientInlineAllocs pins the inline path's cost: a Get or Put
// through Resilient(Memory) allocates exactly what the bare Memory call
// does — the call travels by value, and there is no closure, done
// channel, timer or goroutine.
func TestResilientInlineAllocs(t *testing.T) {
	mem := NewMemory()
	r := NewResilient(NewMemory(), "content", fastOpts(nil))
	data := make([]byte, 4096)
	allocs := func(b Backend) (put, get float64) {
		if err := b.Put("obj", data); err != nil {
			t.Fatal(err)
		}
		put = testing.AllocsPerRun(200, func() { _ = b.Put("obj", data) })
		get = testing.AllocsPerRun(200, func() { _, _ = b.Get("obj") })
		return put, get
	}
	barePut, bareGet := allocs(mem)
	wrappedPut, wrappedGet := allocs(r)
	if wrappedPut > barePut {
		t.Errorf("Resilient(Memory).Put = %.0f allocs, bare Memory.Put = %.0f", wrappedPut, barePut)
	}
	if wrappedGet > bareGet {
		t.Errorf("Resilient(Memory).Get = %.0f allocs, bare Memory.Get = %.0f", wrappedGet, bareGet)
	}
}

// TestResilientInlinePreCanceled verifies that the inline path refuses a
// context that already ended before calling the backend, counts it as a
// cancellation, and never lets it trip the breaker.
func TestResilientInlinePreCanceled(t *testing.T) {
	mem := NewMemory()
	if err := mem.Put("obj", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	opts := fastOpts(nil)
	opts.BreakerThreshold = 2
	r := NewResilient(mem, "content", opts)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for i := 0; i < 2*opts.BreakerThreshold; i++ {
		if _, err := r.GetContext(ctx, "obj"); !errors.Is(err, context.Canceled) {
			t.Fatalf("GetContext %d under a canceled context = %v, want context.Canceled", i, err)
		}
	}
	canceled := opts.Obs.Counter("segshare_store_canceled_total", "", obs.Labels{"store": "content"})
	if n := canceled.Value(); n != uint64(2*opts.BreakerThreshold) {
		t.Fatalf("canceled_total = %d, want %d", n, 2*opts.BreakerThreshold)
	}
	if st := r.State(); st != BreakerClosed {
		t.Fatalf("breaker %v after canceled reads, want closed", st)
	}
	if got, err := r.GetContext(context.Background(), "obj"); err != nil || string(got) != "payload" {
		t.Fatalf("GetContext = %q, %v", got, err)
	}
}

// TestResilientDeadlineFaultPlanChain runs the conformance suite's
// worker-path chain, Resilient(Faulty(Memory)), against injected
// latency: the deadline still cuts the wait, and the abandoned read is
// dispatched exactly once.
func TestResilientDeadlineFaultPlanChain(t *testing.T) {
	plan := NewFaultPlan()
	opts := fastOpts(nil)
	opts.ReadDeadline = 10 * time.Millisecond
	b := NewResilient(NewFaultyWithPlan(NewMemory(), plan), "content", opts)
	if err := b.Put("a", []byte("v")); err != nil {
		t.Fatal(err)
	}

	plan.SetLatency(300 * time.Millisecond)
	start := time.Now()
	if _, err := b.Get("a"); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Get past deadline = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("deadline did not cut the wait: %v", elapsed)
	}
	// Retries happen before Get returns, and the plan counts a read as it
	// enters, so the count is final here.
	if n := plan.ReadOps(); n != 1 {
		t.Fatalf("deadline-exceeded Get dispatched %d times, want exactly 1", n)
	}
}
