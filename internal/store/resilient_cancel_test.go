package store

import (
	"context"
	"errors"
	"testing"
	"time"
)

// slowBackend delays every Get long enough for a test context to fire
// mid-flight.
type slowBackend struct {
	Backend
	delay time.Duration
}

func (s *slowBackend) Get(name string) ([]byte, error) {
	time.Sleep(s.delay)
	return s.Backend.Get(name)
}

// TestGetContextCancelMidFlight verifies context-aware reads: a caller
// whose context ends while the backend round-trip is in flight gets a
// prompt context error, and repeated cancellations never count as
// backend failures (the circuit breaker must stay closed — a slow client
// is not a broken store).
func TestGetContextCancelMidFlight(t *testing.T) {
	mem := NewMemory()
	if err := mem.Put("obj", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	opts := fastOpts(nil)
	r := NewResilient(&slowBackend{Backend: mem, delay: 100 * time.Millisecond}, "content", opts)

	// More cancellations than the breaker threshold: none may trip it.
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		start := time.Now()
		_, err := r.GetContext(ctx, "obj")
		cancel()
		if err == nil {
			t.Fatalf("iteration %d: GetContext returned nil under an expired context", i)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("iteration %d: err = %v, want context.DeadlineExceeded in chain", i, err)
		}
		if waited := time.Since(start); waited > 80*time.Millisecond {
			t.Fatalf("iteration %d: caller blocked %v despite cancellation", i, waited)
		}
	}
	// Let the in-flight backend ops finish before inspecting the breaker.
	time.Sleep(150 * time.Millisecond)
	if st := r.State(); st != BreakerClosed {
		t.Fatalf("breaker %v after client cancellations, want closed", st)
	}

	// A patient caller still reads the object.
	got, err := r.GetContext(context.Background(), "obj")
	if err != nil {
		t.Fatalf("patient GetContext: %v", err)
	}
	if string(got) != "payload" {
		t.Fatalf("GetContext = %q", got)
	}
}

// TestGetContextNilMatchesGet pins the compatibility contract: a nil
// context degenerates to the plain Get path.
func TestGetContextNilMatchesGet(t *testing.T) {
	mem := NewMemory()
	if err := mem.Put("obj", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	r := NewResilient(mem, "content", fastOpts(nil))

	got, err := r.GetContext(nil, "obj") //nolint:staticcheck // nil ctx is the documented no-deadline path
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("GetContext(nil) = %q, Get = %q", got, want)
	}
}

// TestInstrumentedGetContextForwards pins the deprecated NewInstrumented
// shim: it returns its argument, so a Resilient passed through it is
// still the one wrapper, context-aware reads included.
func TestInstrumentedGetContextForwards(t *testing.T) {
	mem := NewMemory()
	if err := mem.Put("obj", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	r := NewResilient(&slowBackend{Backend: mem, delay: 50 * time.Millisecond}, "content", fastOpts(nil))
	inst := NewInstrumented(r, "content", nil)
	if inst != Backend(r) {
		t.Fatalf("NewInstrumented = %T, want its argument unchanged", inst)
	}
	got, err := inst.(ContextGetter).GetContext(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("GetContext via instrumented = %q", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inst.(ContextGetter).GetContext(ctx, "obj"); !errors.Is(err, context.Canceled) {
		t.Fatalf("instrumented over resilient: err = %v, want context.Canceled", err)
	}
}
