package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segshare/internal/obs"
)

var errTransient = errors.New("transient backend fault")

// fastOpts returns options tuned for deterministic tests: no real
// backoff sleeps, injectable clock.
func fastOpts(clock *fakeClock) ResilientOptions {
	o := ResilientOptions{
		RetryBase: time.Nanosecond,
		RetryMax:  time.Nanosecond,
		Obs:       obs.NewRegistry(),
		Sleep:     func(time.Duration) {},
	}
	if clock != nil {
		o.Now = clock.now
	}
	return o
}

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// countingBackend counts how often each op reached the real backend.
type countingBackend struct {
	Backend
	gets    atomic.Int32
	puts    atomic.Int32
	deletes atomic.Int32
}

func (c *countingBackend) Get(name string) ([]byte, error) {
	c.gets.Add(1)
	return c.Backend.Get(name)
}

func (c *countingBackend) Put(name string, data []byte) error {
	c.puts.Add(1)
	return c.Backend.Put(name, data)
}

func (c *countingBackend) Delete(name string) error {
	c.deletes.Add(1)
	return c.Backend.Delete(name)
}

func TestResilientRetriesTransientFaults(t *testing.T) {
	plan := NewFaultPlan()
	opts := fastOpts(nil)
	r := NewResilient(NewFaultyWithPlan(NewMemory(), plan), "content", opts)

	plan.FailAtOp(1, errTransient)
	if err := r.Put("a", []byte("v")); err != nil {
		t.Fatalf("Put with one transient fault = %v, want success via retry", err)
	}
	if got, err := r.Get("a"); err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}

	plan.FailReadsAtOp(1, errTransient)
	if got, err := r.Get("a"); err != nil || string(got) != "v" {
		t.Fatalf("Get with one transient fault = %q, %v", got, err)
	}
}

func TestResilientSemanticErrorsNotRetried(t *testing.T) {
	counting := &countingBackend{Backend: NewMemory()}
	r := NewResilient(counting, "content", fastOpts(nil))

	if _, err := r.Get("absent"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Get(absent) = %v, want ErrNotExist", err)
	}
	if n := counting.gets.Load(); n != 1 {
		t.Fatalf("ErrNotExist was retried: %d backend attempts", n)
	}
	if err := r.Delete("absent"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Delete(absent) = %v, want ErrNotExist", err)
	}
	if n := counting.deletes.Load(); n != 1 {
		t.Fatalf("Delete ErrNotExist was retried: %d backend attempts", n)
	}
}

func TestResilientDeadline(t *testing.T) {
	plan := NewFaultPlan()
	opts := fastOpts(nil)
	opts.ReadDeadline = 10 * time.Millisecond
	opts.MutationDeadline = 10 * time.Millisecond
	counting := &countingBackend{Backend: NewFaultyWithPlan(NewMemory(), plan)}
	r := NewResilient(counting, "content", opts)

	if err := r.Put("a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	plan.SetLatency(300 * time.Millisecond)
	start := time.Now()
	_, err := r.Get("a")
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Get past deadline = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("deadline did not cut the wait: %v", elapsed)
	}
	// A deadline expiry must not be retried: the abandoned attempt may
	// still apply in its worker. Wait for the hung worker to drain, then
	// confirm exactly one dispatch happened.
	time.Sleep(400 * time.Millisecond)
	if n := counting.gets.Load(); n != 1 {
		t.Fatalf("deadline-exceeded Get dispatched %d times, want exactly 1", n)
	}
}

func TestResilientDeleteRetryTreatsNotExistAsSuccess(t *testing.T) {
	// The backend applies the delete but loses the acknowledgment: the
	// retry sees ErrNotExist, which must be reported as success.
	inner := NewMemory()
	var failNext atomic.Bool
	hook := &hookBackend{Backend: inner, onDelete: func(name string) error {
		err := inner.Delete(name)
		if failNext.CompareAndSwap(true, false) && err == nil {
			return errTransient // applied, but the answer was lost
		}
		return err
	}}
	r := NewResilient(hook, "content", fastOpts(nil))

	if err := r.Put("a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	failNext.Store(true)
	if err := r.Delete("a"); err != nil {
		t.Fatalf("Delete whose first attempt applied = %v, want success", err)
	}
	if ok, _ := r.Exists("a"); ok {
		t.Fatal("object still present")
	}
	// A plain Delete of an absent object still reports ErrNotExist.
	if err := r.Delete("a"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Delete(absent) = %v, want ErrNotExist", err)
	}
}

type hookBackend struct {
	Backend
	onDelete func(name string) error
}

func (h *hookBackend) Delete(name string) error { return h.onDelete(name) }

func TestResilientBreakerLifecycle(t *testing.T) {
	clock := newFakeClock()
	plan := NewFaultPlan()
	counting := &countingBackend{Backend: NewFaultyWithPlan(NewMemory(), plan)}

	opts := fastOpts(clock)
	opts.Retries = -1 // no retries: each logical op is one attempt
	opts.BreakerThreshold = 3
	opts.BreakerCooldown = time.Second
	opts.BreakerProbes = 2

	var mu sync.Mutex
	var transitions []string
	opts.OnState = func(from, to BreakerState) {
		mu.Lock()
		defer mu.Unlock()
		transitions = append(transitions, fmt.Sprintf("%s->%s", from, to))
	}
	r := NewResilient(counting, "content", opts)

	if err := r.Put("a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if r.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed", r.State())
	}

	// Brownout: every mutation fails. Threshold consecutive failures trip
	// the breaker.
	plan.KillAtOp(1, errTransient)
	for i := 0; i < 3; i++ {
		if err := r.Put("a", []byte("x")); !errors.Is(err, errTransient) {
			t.Fatalf("Put %d = %v, want injected fault", i, err)
		}
	}
	if r.State() != BreakerOpen {
		t.Fatalf("state after %d failures = %v, want open", 3, r.State())
	}

	// Open: mutations fail fast without reaching the backend...
	before := counting.puts.Load()
	if err := r.Put("a", []byte("x")); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("Put while open = %v, want ErrCircuitOpen", err)
	}
	if counting.puts.Load() != before {
		t.Fatal("open breaker still dispatched the mutation")
	}
	if r.MutationsAllowed() {
		t.Fatal("MutationsAllowed while open before cooldown")
	}
	// ...but reads pass through.
	if got, err := r.Get("a"); err != nil || string(got) != "v" {
		t.Fatalf("Get while open = %q, %v", got, err)
	}

	// Cooldown elapses while the backend is still dead: the half-open
	// probe fails and the breaker re-opens.
	clock.advance(2 * time.Second)
	if !r.MutationsAllowed() {
		t.Fatal("MutationsAllowed after cooldown = false, want half-open probe admission")
	}
	if err := r.Put("a", []byte("x")); !errors.Is(err, errTransient) {
		t.Fatalf("probe against dead backend = %v, want injected fault", err)
	}
	if r.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", r.State())
	}

	// Backend recovers; after another cooldown, probe successes close it.
	plan.Revive()
	clock.advance(2 * time.Second)
	for i := 0; i < 2; i++ {
		if err := r.Put("a", []byte("y")); err != nil {
			t.Fatalf("probe %d = %v, want success", i, err)
		}
	}
	if r.State() != BreakerClosed {
		t.Fatalf("state after %d probe successes = %v, want closed", 2, r.State())
	}
	if err := r.Put("a", []byte("z")); err != nil {
		t.Fatalf("Put after recovery = %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []string{
		"closed->open",
		"open->half_open", "half_open->open",
		"open->half_open", "half_open->closed",
	}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestResilientWorkerPoolSaturation(t *testing.T) {
	plan := NewFaultPlan()
	opts := fastOpts(nil)
	opts.Workers = 1
	opts.Retries = -1
	opts.ReadDeadline = 5 * time.Millisecond
	r := NewResilient(NewFaultyWithPlan(NewMemory(), plan), "content", opts)

	if err := r.Put("a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Hang the single worker past its deadline, then race a second read
	// in while the first is still pinned.
	plan.SetLatency(300 * time.Millisecond)
	if _, err := r.Get("a"); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("first Get = %v, want ErrDeadlineExceeded", err)
	}
	if _, err := r.Get("a"); !errors.Is(err, ErrSaturated) {
		t.Fatalf("second Get = %v, want ErrSaturated", err)
	}
	// Once the hung op drains, the pool serves again.
	plan.SetLatency(0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := r.Get("a"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never drained")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestResilientConcurrentStress(t *testing.T) {
	plan := NewFaultPlan()
	opts := fastOpts(nil)
	opts.BreakerThreshold = 2
	opts.BreakerCooldown = time.Millisecond
	r := NewResilient(NewFaultyWithPlan(NewMemory(), plan), "content", opts)

	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%3 == 0 {
				plan.KillAtOp(1, errTransient)
			} else {
				plan.Revive()
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("obj-%d", g)
			for i := 0; i < 100; i++ {
				_ = r.Put(name, []byte("v"))
				_, _ = r.Get(name)
				_, _ = r.Exists(name)
				_ = r.Delete(name)
				_ = r.MutationsAllowed()
				_ = r.State()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
}
