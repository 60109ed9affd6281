package store

import (
	"errors"
	"testing"

	"segshare/internal/obs"
)

func findSnap(t *testing.T, reg *obs.Registry, name string, labels obs.Labels) obs.MetricSnapshot {
	t.Helper()
outer:
	for _, m := range reg.Snapshot() {
		if m.Name != name {
			continue
		}
		for _, l := range m.Labels {
			if want, ok := labels[l.Key]; ok && want != l.Value {
				continue outer
			}
		}
		return m
	}
	t.Fatalf("metric %s%v not found", name, labels)
	return obs.MetricSnapshot{}
}

// opCounts reads one op's latency observations and error count.
func opCounts(t *testing.T, reg *obs.Registry, op string) (observed uint64, errs int64) {
	t.Helper()
	labels := obs.Labels{"store": "content", "op": op}
	h := findSnap(t, reg, "segshare_store_op_ns", labels).Histogram
	if h == nil {
		t.Fatalf("op_ns{op=%q} has no histogram", op)
	}
	return h.Count, findSnap(t, reg, "segshare_store_errors_total", labels).Value
}

func TestResilientRecordsOps(t *testing.T) {
	opts := fastOpts(nil)
	reg := opts.Obs
	b := NewResilient(NewMemory(), "content", opts)

	if err := b.Put("a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("absent"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Get(absent) = %v", err)
	}
	if err := b.Delete("a"); err != nil {
		t.Fatal(err)
	}

	get := findSnap(t, reg, "segshare_store_op_ns", obs.Labels{"store": "content", "op": "get"})
	if get.Histogram == nil || get.Histogram.Count != 2 {
		t.Fatalf("get histogram = %+v, want count 2", get.Histogram)
	}
	errs := findSnap(t, reg, "segshare_store_errors_total", obs.Labels{"store": "content", "op": "get"})
	if errs.Value != 1 {
		t.Fatalf("get errors = %d, want 1", errs.Value)
	}
	in := findSnap(t, reg, "segshare_store_write_bytes_total", obs.Labels{"store": "content"})
	if in.Value != 5 {
		t.Fatalf("write bytes = %d, want 5", in.Value)
	}
	out := findSnap(t, reg, "segshare_store_read_bytes_total", obs.Labels{"store": "content"})
	if out.Value != 5 {
		t.Fatalf("read bytes = %d, want 5", out.Value)
	}

	// One observation covers one logical call: a Put retried once is
	// one observation and no error...
	t.Run("retried", func(t *testing.T) {
		plan := NewFaultPlan()
		opts := fastOpts(nil)
		r := NewResilient(NewFaultyWithPlan(NewMemory(), plan), "content", opts)
		plan.FailAtOp(1, errTransient)
		if err := r.Put("a", []byte("v")); err != nil {
			t.Fatalf("Put with one transient fault = %v, want success via retry", err)
		}
		if n, errs := opCounts(t, opts.Obs, "put"); n != 1 || errs != 0 {
			t.Fatalf("retried Put: %d observations, %d errors; want 1, 0", n, errs)
		}
		if n := findSnap(t, opts.Obs, "segshare_store_retries_total", obs.Labels{"store": "content"}).Value; n != 1 {
			t.Fatalf("retries_total = %d, want 1", n)
		}
	})
	// ...and a fast ErrCircuitOpen rejection is one observation and one
	// error, though it never reaches the backend.
	t.Run("circuit_open", func(t *testing.T) {
		plan := NewFaultPlan()
		opts := fastOpts(nil)
		opts.Retries = -1
		opts.BreakerThreshold = 1
		r := NewResilient(NewFaultyWithPlan(NewMemory(), plan), "content", opts)
		plan.KillAtOp(1, errTransient)
		if err := r.Put("a", []byte("v")); !errors.Is(err, errTransient) {
			t.Fatalf("Put = %v, want the injected fault", err)
		}
		reached := plan.Ops()
		if err := r.Put("a", []byte("v")); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("Put while open = %v, want ErrCircuitOpen", err)
		}
		if plan.Ops() != reached {
			t.Fatal("open breaker dispatched the mutation")
		}
		if n, errs := opCounts(t, opts.Obs, "put"); n != 2 || errs != 2 {
			t.Fatalf("failed Put then rejected Put: %d observations, %d errors; want 2, 2", n, errs)
		}
	})
}

func TestResilientPassesLeakBudget(t *testing.T) {
	reg := obs.NewRegistry()
	for _, role := range []string{"content", "group", "dedup", "audit"} {
		b := NewResilient(NewMemory(), role, ResilientOptions{Obs: reg})
		_ = b.Put("x", nil)
	}
	if n := reg.LeakBudgetViolations(); n != 0 {
		t.Fatalf("resilient store registered %d leak-budget violations", n)
	}
	if errs := reg.VerifyAll(); len(errs) != 0 {
		t.Fatalf("VerifyAll = %v", errs)
	}
}

// TestWrapperComposition checks that the adversarial wrappers and the
// server's wrapper compose in any order: Unwrap chains resolve to the
// innermost backend, and the Adversary's whole-store attacks work
// through a Resilient wrapper.
func TestWrapperComposition(t *testing.T) {
	mem := NewMemory()
	adv := NewAdversary(NewResilient(mem, "content", fastOpts(nil)))
	top := NewResilient(NewFaultyWithPlan(adv, NewFaultPlan()), "content", fastOpts(nil))

	if got := Innermost(top); got != mem {
		t.Fatalf("Innermost = %T, want the Memory store", got)
	}

	if err := top.Put("obj", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	adv.SnapshotStore() // must unwrap through Resilient to Memory
	if err := top.Put("obj", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	adv.RollbackStore()
	data, err := top.Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v1" {
		t.Fatalf("after rollback got %q, want v1", data)
	}
}
