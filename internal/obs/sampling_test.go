package obs

import (
	"sync"
	"testing"
	"time"
)

// strictPolicy samples nothing on its own: every rule is set so far out
// of reach that only the dimension a test exercises can trip it.
func strictPolicy() *SamplePolicy {
	return &SamplePolicy{
		SlowNs:       time.Hour.Nanoseconds(),
		ErrorStatus:  500,
		ContentionNs: time.Hour.Nanoseconds(),
		KeepOneIn:    0,
	}
}

// TestTailSamplingDimensions verifies each retention rule independently:
// a boring fast request is discarded, while slow, errored, and
// lock-contended requests keep their full span trees.
func TestTailSamplingDimensions(t *testing.T) {
	t.Run("fast 2xx discarded", func(t *testing.T) {
		r := NewTraceRecorder(8)
		r.SetPolicy(strictPolicy())
		tr := r.Start("fs_get", nil)
		tr.SetStatus(200)
		if tr.End() {
			t.Fatal("unremarkable trace was sampled")
		}
		if got := len(r.Recent(8)); got != 0 {
			t.Fatalf("ring holds %d traces, want 0", got)
		}
		if r.Examined() != 1 || r.Sampled() != 0 {
			t.Fatalf("examined/sampled = %d/%d, want 1/0", r.Examined(), r.Sampled())
		}
	})

	t.Run("slow sampled", func(t *testing.T) {
		r := NewTraceRecorder(8)
		p := strictPolicy()
		p.SlowNs = 1 // any measurable duration is "slow"
		r.SetPolicy(p)
		tr := r.Start("fs_get", nil)
		tr.SetStatus(200)
		time.Sleep(time.Microsecond)
		if !tr.End() {
			t.Fatal("slow trace was not sampled")
		}
		if got := len(r.Recent(8)); got != 1 {
			t.Fatalf("ring holds %d traces, want 1", got)
		}
	})

	t.Run("error sampled", func(t *testing.T) {
		r := NewTraceRecorder(8)
		r.SetPolicy(strictPolicy())
		tr := r.Start("fs_put", nil)
		tr.SetStatus(503)
		if !tr.End() {
			t.Fatal("5xx trace was not sampled")
		}
	})

	t.Run("contention sampled", func(t *testing.T) {
		r := NewTraceRecorder(8)
		p := strictPolicy()
		p.ContentionNs = 1000
		r.SetPolicy(p)
		tr := r.Start("fs_move", nil)
		tr.SetStatus(200)
		tr.Annotate(LockWaitAnnotation, 5000)
		if !tr.End() {
			t.Fatal("contended trace was not sampled")
		}
	})

	t.Run("keep one in n floor", func(t *testing.T) {
		r := NewTraceRecorder(16)
		p := strictPolicy()
		p.KeepOneIn = 3
		r.SetPolicy(p)
		var kept int
		for i := 0; i < 9; i++ {
			tr := r.Start("fs_get", nil)
			tr.SetStatus(200)
			if tr.End() {
				kept++
			}
		}
		if kept != 3 {
			t.Fatalf("kept %d of 9 traces, want 3 (one in 3)", kept)
		}
	})

	t.Run("nil policy retains all", func(t *testing.T) {
		r := NewTraceRecorder(8)
		tr := r.Start("fs_get", nil)
		tr.SetStatus(200)
		if !tr.End() {
			t.Fatal("nil policy discarded a trace (v1 behavior is retain-all)")
		}
	})

	t.Run("force sample overrides policy", func(t *testing.T) {
		r := NewTraceRecorder(8)
		r.SetPolicy(strictPolicy())
		tr := r.Start("fs_get", nil)
		tr.SetStatus(200)
		tr.ForceSample()
		if !tr.End() {
			t.Fatal("forced trace was not sampled")
		}
	})
}

// TestSamplingOnEndFeed: the finished-trace observer receives every
// trace with its sampling verdict — the exporter wiring depends on it.
func TestSamplingOnEndFeed(t *testing.T) {
	r := NewTraceRecorder(8)
	p := strictPolicy()
	p.SlowNs = 1
	r.SetPolicy(p)

	var mu sync.Mutex
	verdicts := map[uint64]bool{}
	r.SetOnEnd(func(tr *Trace, sampled bool) {
		mu.Lock()
		verdicts[tr.ID()] = sampled
		mu.Unlock()
	})

	slow := r.Start("fs_get", nil)
	time.Sleep(time.Microsecond)
	slow.SetStatus(200)
	slow.End()

	// Swap in a policy nothing can satisfy for the fast trace.
	r.SetPolicy(strictPolicy())
	fast := r.Start("fs_get", nil)
	fast.SetStatus(200)
	fast.End()

	mu.Lock()
	defer mu.Unlock()
	if len(verdicts) != 2 {
		t.Fatalf("observer saw %d traces, want 2", len(verdicts))
	}
	if !verdicts[slow.ID()] {
		t.Error("observer reported the slow trace unsampled")
	}
	if verdicts[fast.ID()] {
		t.Error("observer reported the fast trace sampled")
	}
}

// TestDefaultSamplePolicy pins the default thresholds the server
// installs when the config leaves SamplePolicy nil.
func TestDefaultSamplePolicy(t *testing.T) {
	p := DefaultSamplePolicy()
	if p.SlowNs != (50 * time.Millisecond).Nanoseconds() {
		t.Errorf("SlowNs = %d", p.SlowNs)
	}
	if p.ErrorStatus != 500 {
		t.Errorf("ErrorStatus = %d", p.ErrorStatus)
	}
	if p.ContentionNs != (10 * time.Millisecond).Nanoseconds() {
		t.Errorf("ContentionNs = %d", p.ContentionNs)
	}
	if p.KeepOneIn != 100 {
		t.Errorf("KeepOneIn = %d", p.KeepOneIn)
	}
}

// TestKeepOneInFloorConcurrent drives the 1-in-N floor from many
// goroutines under the race detector: examined counts are atomic, so
// exactly one in every KeepOneIn finished traces must be retained — no
// double-counting, no lost floor samples.
func TestKeepOneInFloorConcurrent(t *testing.T) {
	const (
		workers = 8
		each    = 250
		n       = 10
	)
	r := NewTraceRecorder(workers * each)
	p := strictPolicy()
	p.KeepOneIn = n
	r.SetPolicy(p)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr := r.Start("fs_get", nil)
				tr.SetStatus(200)
				tr.End()
			}
		}()
	}
	wg.Wait()

	total := uint64(workers * each)
	if r.Examined() != total {
		t.Fatalf("examined = %d, want %d", r.Examined(), total)
	}
	if want := total / n; r.Sampled() != want {
		t.Fatalf("sampled = %d, want exactly the %d floor keeps", r.Sampled(), want)
	}
}

// TestForceSampleOpConcurrent arms force-sampling while traces start and
// end concurrently: the credit counter is atomic, so exactly the armed
// number of subsequent starts must be retained under a keep-nothing
// policy.
func TestForceSampleOpConcurrent(t *testing.T) {
	const (
		workers = 4
		each    = 100
		armed   = 50
	)
	r := NewTraceRecorder(workers * each)
	r.SetPolicy(strictPolicy())

	// An in-flight trace of the class is forced immediately and reported
	// as the oldest.
	live := r.Start("fs_get", nil)
	inFlight, oldestID := r.ForceSampleOp("fs_get", armed)
	if inFlight != 1 || oldestID != live.ID() {
		t.Fatalf("ForceSampleOp = (%d, %d), want (1, %d)", inFlight, oldestID, live.ID())
	}
	live.SetStatus(200)
	if !live.End() {
		t.Fatal("in-flight trace was not force-sampled")
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr := r.Start("fs_get", nil)
				tr.SetStatus(200)
				tr.End()
			}
		}()
	}
	wg.Wait()

	// The live trace plus exactly the armed credits, no matter how the
	// workers interleaved.
	if got := r.Sampled(); got != armed+1 {
		t.Fatalf("sampled = %d, want %d", got, armed+1)
	}

	// Other op classes are unaffected by the arming.
	other := r.Start("fs_put", nil)
	other.SetStatus(200)
	if other.End() {
		t.Fatal("arming fs_get force-sampled an fs_put trace")
	}
}

// TestForceSampleRearmNotLost races a re-arm against the Start that runs
// the previous arming's counter out. That Start may delete only the
// counter it exhausted: the new arming must survive to force the next
// Start, unless the racing Start took the new credit itself.
func TestForceSampleRearmNotLost(t *testing.T) {
	// The window is a few instructions wide: a plain run needs ~10^5
	// iterations to hit it; the race detector hits it far more often but
	// runs slower, so the time cap keeps that run to two seconds.
	const maxIterations = 200_000
	stop := time.Now().Add(2 * time.Second)
	r := NewTraceRecorder(4)
	r.SetPolicy(strictPolicy())
	forced := func() bool {
		tr := r.Start("fs_get", nil)
		tr.SetStatus(200)
		return tr.End()
	}
	raced := make(chan bool)
	lost, i := 0, 0
	for ; i < maxIterations && time.Now().Before(stop); i++ {
		r.ForceSampleOp("fs_get", 1)
		if !forced() {
			t.Fatal("an armed credit did not force the next start")
		}
		// The counter is at zero: the racing Start drives it negative and
		// deletes it while the re-arm installs a fresh one.
		go func() { raced <- forced() }()
		r.ForceSampleOp("fs_get", 1)
		tookNew := <-raced
		if !forced() && !tookNew {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("re-arming was lost %d times in %d iterations", lost, i)
	}
}
