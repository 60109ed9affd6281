package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segshare/internal/obs"
)

// fakeClock is a manually advanced clock so the AIMD tests are
// deterministic: adjustments happen exactly when the test advances time,
// never because the wall clock moved.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testLimiter builds a read limiter on a fake clock with the given AIMD
// latency target. Tests that never advance the clock never adjust the
// limit, so the target only matters to the AIMD tests.
func testLimiter(t *testing.T, target time.Duration, cfg AdmissionConfig) (*classLimiter, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	cfg.now = clk.now
	cfg = cfg.withDefaults()
	return newClassLimiter("read", cfg, target, obs.NewRegistry()), clk
}

func mustAcquire(t *testing.T, l *classLimiter) func(time.Duration) {
	t.Helper()
	rel, err := l.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	return rel
}

// waitQueued polls until the limiter reports n queued waiters.
func waitQueued(t *testing.T, l *classLimiter, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, queued := l.snapshot(); queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmitClassOf(t *testing.T) {
	cases := map[string]int{
		"fs_get":         admitRead,
		"fs_propfind":    admitRead,
		"api_whoami":     admitRead,
		"fs_put":         admitMutation,
		"fs_delete":      admitMutation,
		"fs_mkcol":       admitMutation,
		"fs_move":        admitMutation,
		"api_permission": admitMutation,
		"api_groups_add": admitMutation,
		"fs_options":     admitExempt,
		"other":          admitExempt,
	}
	for op, want := range cases {
		if got := admitClassOf(op); got != want {
			t.Errorf("admitClassOf(%q) = %d, want %d", op, got, want)
		}
	}
}

func TestLimiterMultiplicativeDecreaseOnSlowLatency(t *testing.T) {
	l, clk := testLimiter(t, 100*time.Millisecond, AdmissionConfig{
		MaxInFlight:    16,
		MinInFlight:    2,
		AdjustInterval: time.Second,
	})
	// Three slow samples, each a full adjust interval apart. The first
	// only seeds the EWMA (samples < 2 never adjusts); the next two each
	// halve the limit: 16 -> 8 -> 4.
	for i := 0; i < 3; i++ {
		rel := mustAcquire(t, l)
		clk.advance(1100 * time.Millisecond)
		rel(500 * time.Millisecond)
	}
	if limit, _, _ := l.snapshot(); limit != 4 {
		t.Fatalf("limit = %d after sustained slow latency, want 4", limit)
	}
}

func TestLimiterDecreaseFloorsAtMin(t *testing.T) {
	l, clk := testLimiter(t, 50*time.Millisecond, AdmissionConfig{
		MaxInFlight:    8,
		MinInFlight:    3,
		AdjustInterval: time.Second,
	})
	for i := 0; i < 10; i++ {
		rel := mustAcquire(t, l)
		clk.advance(1100 * time.Millisecond)
		rel(time.Second)
	}
	if limit, _, _ := l.snapshot(); limit != 3 {
		t.Fatalf("limit = %d, want floor 3", limit)
	}
}

func TestLimiterAdditiveIncreaseOnlyWhenBound(t *testing.T) {
	l, clk := testLimiter(t, 100*time.Millisecond, AdmissionConfig{
		MaxInFlight:    16,
		MinInFlight:    2,
		AdjustInterval: time.Second,
	})
	// Start from a previously shrunk limit with a warm, fast EWMA — the
	// state after an overload episode has cleared.
	l.mu.Lock()
	l.limit = 4
	l.ewma = time.Millisecond
	l.samples = 10
	l.peak = 0
	l.mu.Unlock()

	// Fast samples while concurrency never reaches the limit: the limit
	// must NOT grow open-loop.
	for i := 0; i < 20; i++ {
		rel := mustAcquire(t, l)
		clk.advance(1100 * time.Millisecond)
		rel(time.Millisecond)
	}
	if limit, _, _ := l.snapshot(); limit != 4 {
		t.Fatalf("limit = %d grew while under-utilized, want 4", limit)
	}

	// Same fast latency but with the limit actually bound (inflight ==
	// limit when the interval closes): one additive step per interval.
	rels := make([]func(time.Duration), 4)
	for i := range rels {
		rels[i] = mustAcquire(t, l)
	}
	clk.advance(1100 * time.Millisecond)
	for _, rel := range rels {
		rel(time.Millisecond)
	}
	if limit, _, _ := l.snapshot(); limit != 5 {
		t.Fatalf("limit = %d after bound+fast interval, want 5", limit)
	}
}

func TestLimiterShedsWhenQueueFull(t *testing.T) {
	l, _ := testLimiter(t, defaultSLOLatency, AdmissionConfig{
		MaxInFlight:  1,
		MinInFlight:  1,
		QueueLimit:   1,
		QueueTimeout: time.Minute,
	})
	rel := mustAcquire(t, l)
	defer rel(0)

	// One waiter fills the queue.
	done := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		defer close(done)
		if r, err := l.acquire(ctx); err == nil {
			r(0)
		}
	}()
	waitQueued(t, l, 1)

	// The next request must be shed immediately, not queued.
	start := time.Now()
	_, err := l.acquire(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquire with full queue: err = %v, want ErrOverloaded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("shed was not immediate")
	}
	cancel()
	<-done
}

func TestLimiterQueueTimeout(t *testing.T) {
	l, _ := testLimiter(t, defaultSLOLatency, AdmissionConfig{
		MaxInFlight:  1,
		MinInFlight:  1,
		QueueLimit:   4,
		QueueTimeout: 20 * time.Millisecond,
	})
	rel := mustAcquire(t, l)
	defer rel(0)

	_, err := l.acquire(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued acquire: err = %v, want ErrOverloaded (queue timeout)", err)
	}
	if _, _, queued := l.snapshot(); queued != 0 {
		t.Fatalf("timed-out waiter still queued: %d", queued)
	}
}

func TestLimiterSlotTransferToWaiter(t *testing.T) {
	l, _ := testLimiter(t, defaultSLOLatency, AdmissionConfig{
		MaxInFlight:  1,
		MinInFlight:  1,
		QueueLimit:   4,
		QueueTimeout: 5 * time.Second,
	})
	rel := mustAcquire(t, l)

	got := make(chan func(time.Duration), 1)
	go func() {
		r, err := l.acquire(context.Background())
		if err != nil {
			t.Errorf("queued acquire: %v", err)
			close(got)
			return
		}
		got <- r
	}()
	waitQueued(t, l, 1)

	rel(10 * time.Millisecond) // transfers the slot, inflight stays 1
	r, ok := <-got
	if !ok {
		t.Fatal("waiter never granted")
	}
	if _, inflight, _ := l.snapshot(); inflight != 1 {
		t.Fatalf("inflight = %d after slot transfer, want 1", inflight)
	}
	r(0)
	if _, inflight, _ := l.snapshot(); inflight != 0 {
		t.Fatalf("inflight = %d after final release, want 0", inflight)
	}
}

func TestLimiterCancelWhileQueued(t *testing.T) {
	l, _ := testLimiter(t, defaultSLOLatency, AdmissionConfig{
		MaxInFlight:  1,
		MinInFlight:  1,
		QueueLimit:   4,
		QueueTimeout: 5 * time.Second,
	})
	rel := mustAcquire(t, l)
	defer rel(0)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := l.acquire(ctx)
		errCh <- err
	}()
	waitQueued(t, l, 1)
	cancel()
	if err := <-errCh; !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled acquire: err = %v, want ErrCanceled", err)
	}
	if _, _, queued := l.snapshot(); queued != 0 {
		t.Fatalf("canceled waiter still queued: %d", queued)
	}
}

// TestAdmissionCanceledGrantRecordsNoSample: a waiter whose context ends
// after a grant already handed it the slot gives the slot back without a
// latency sample — its request never ran, so a 0 ns sample would drag the
// EWMA down and push the limiter toward raising its limit.
func TestAdmissionCanceledGrantRecordsNoSample(t *testing.T) {
	for attempt := 0; attempt < 20; attempt++ {
		l, _ := testLimiter(t, defaultSLOLatency, AdmissionConfig{
			MaxInFlight:  1,
			MinInFlight:  1,
			QueueLimit:   4,
			QueueTimeout: time.Minute,
		})
		mustAcquire(t, l)
		ctx, cancel := context.WithCancel(context.Background())
		errCh := make(chan error, 1)
		go func() {
			rel, err := l.acquire(ctx)
			if err == nil {
				rel(0)
			}
			errCh <- err
		}()
		waitQueued(t, l, 1)
		// Cancel under the limiter lock: a waiter parked in its select
		// wakes on ctx.Done and waits for the lock in cancelWaiter. Then
		// do what release(100ms) does, which grants it the slot.
		l.mu.Lock()
		cancel()
		l.recordLocked(100 * time.Millisecond)
		l.freeLocked()
		l.mu.Unlock()
		err := <-errCh
		if err == nil {
			continue // the waiter was not parked yet and took the grant
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("canceled acquire: err = %v, want ErrCanceled", err)
		}
		l.mu.Lock()
		samples, ewma := l.samples, l.ewma
		l.mu.Unlock()
		if samples != 1 || ewma != 100*time.Millisecond {
			t.Fatalf("after a canceled grant: %d samples, EWMA %v; want 1 sample of 100ms", samples, ewma)
		}
		if _, inflight, _ := l.snapshot(); inflight != 0 {
			t.Fatalf("inflight = %d after the canceled grant gave its slot back, want 0", inflight)
		}
		return
	}
	t.Fatal("the canceled waiter never lost the race to a grant")
}

func TestAdmissionControllerExemptBypass(t *testing.T) {
	ctrl := newAdmissionController(AdmissionConfig{
		MaxInFlight:  1,
		MinInFlight:  1,
		QueueLimit:   1,
		QueueTimeout: time.Millisecond,
	}, defaultSLOLatency, obs.NewRegistry())
	// Exhaust both limiters.
	relR, err := ctrl.acquire(context.Background(), "fs_get")
	if err != nil {
		t.Fatalf("fs_get: %v", err)
	}
	defer relR(0)
	relM, err := ctrl.acquire(context.Background(), "fs_put")
	if err != nil {
		t.Fatalf("fs_put: %v", err)
	}
	defer relM(0)

	// Exempt classes are never shed, even with every slot taken.
	for _, op := range []string{"fs_options", "other"} {
		rel, err := ctrl.acquire(context.Background(), op)
		if err != nil {
			t.Fatalf("exempt %s shed: %v", op, err)
		}
		rel(0)
	}
}

func TestAdmissionPrioritySeparation(t *testing.T) {
	// Mutations saturating their (smaller) limiter must not consume read
	// slots: reads keep flowing while every PUT sheds.
	ctrl := newAdmissionController(AdmissionConfig{
		MaxInFlight:  8, // mutations get 8/4 = 2
		MinInFlight:  1,
		QueueLimit:   4, // mutation queue: 1
		QueueTimeout: time.Millisecond,
	}, defaultSLOLatency, obs.NewRegistry())

	var mutRels []func(time.Duration)
	for {
		rel, err := ctrl.acquire(context.Background(), "fs_put")
		if err != nil {
			break // mutation limiter saturated
		}
		mutRels = append(mutRels, rel)
	}
	if len(mutRels) != 2 {
		t.Fatalf("mutation slots = %d, want 2 (quarter of 8)", len(mutRels))
	}

	for i := 0; i < 8; i++ {
		rel, err := ctrl.acquire(context.Background(), "fs_get")
		if err != nil {
			t.Fatalf("read %d shed while mutations saturated: %v", i, err)
		}
		defer rel(0)
	}
	for _, rel := range mutRels {
		rel(0)
	}
}

// TestLimiterSaturationStress drives a limiter at well over capacity
// under -race: goodput must be sustained (every admitted request
// completes), inflight never exceeds the limit, and accounting balances.
func TestLimiterSaturationStress(t *testing.T) {
	l, _ := testLimiter(t, defaultSLOLatency, AdmissionConfig{
		MaxInFlight:  8,
		MinInFlight:  2,
		QueueLimit:   8,
		QueueTimeout: 10 * time.Millisecond,
	})

	const clients = 32 // 2x capacity (8 slots + 8 queue) and then some
	const perClient = 25
	var admitted, shed, maxSeen atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rel, err := l.acquire(context.Background())
				if err != nil {
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("unexpected acquire error: %v", err)
					}
					shed.Add(1)
					continue
				}
				admitted.Add(1)
				limit, inflight, _ := l.snapshot()
				if int64(inflight) > maxSeen.Load() {
					maxSeen.Store(int64(inflight))
				}
				if inflight > limit {
					t.Errorf("inflight %d exceeds limit %d", inflight, limit)
				}
				time.Sleep(200 * time.Microsecond)
				rel(200 * time.Microsecond)
			}
		}()
	}
	wg.Wait()

	if _, inflight, queued := l.snapshot(); inflight != 0 || queued != 0 {
		t.Fatalf("leaked slots: inflight=%d queued=%d", inflight, queued)
	}
	if admitted.Load() == 0 {
		t.Fatal("no request was admitted under saturation")
	}
	if admitted.Load()+shed.Load() != clients*perClient {
		t.Fatalf("accounting: admitted %d + shed %d != %d",
			admitted.Load(), shed.Load(), clients*perClient)
	}
	t.Logf("admitted=%d shed=%d max inflight=%d", admitted.Load(), shed.Load(), maxSeen.Load())
}
