package obs

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWatchdogStallSnapshotRecover drives the full detection loop: a
// synthetic stall trips the check on the next sweep, a goroutine+mutex
// profile snapshot is captured, the trigger hook fires, /debug/watchdog
// reports the stall — and when the condition clears, the check recovers
// and the counters record both transitions.
func TestWatchdogStallSnapshotRecover(t *testing.T) {
	reg := NewRegistry()
	var stalled atomic.Bool
	var triggered []string
	var mu sync.Mutex
	wd := NewWatchdog(WatchdogOptions{
		Interval: time.Hour, // sweeps driven manually
		Obs:      reg,
		OnTrigger: func(check string) {
			mu.Lock()
			triggered = append(triggered, check)
			mu.Unlock()
		},
	})
	if err := wd.AddCheck("request_deadline", func() error {
		if stalled.Load() {
			return errInjectedStall
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	wd.Sweep()
	if got := wd.Stalled(); len(got) != 0 {
		t.Fatalf("healthy watchdog reports stalls: %v", got)
	}

	stalled.Store(true)
	wd.Sweep()
	if got := wd.Stalled(); len(got) != 1 || got[0] != "request_deadline" {
		t.Fatalf("Stalled() = %v, want [request_deadline]", got)
	}
	snaps := wd.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snaps))
	}
	if snaps[0].Check != "request_deadline" {
		t.Errorf("snapshot check = %q", snaps[0].Check)
	}
	if !strings.Contains(snaps[0].Goroutine, "goroutine") {
		t.Error("snapshot is missing the goroutine profile")
	}
	mu.Lock()
	if len(triggered) != 1 || triggered[0] != "request_deadline" {
		t.Errorf("OnTrigger calls = %v", triggered)
	}
	mu.Unlock()

	// A still-stalled check must not re-trigger or re-capture.
	wd.Sweep()
	if got := len(wd.Snapshots()); got != 1 {
		t.Fatalf("re-sweep of a stalled check captured again: %d snapshots", got)
	}

	rec := httptest.NewRecorder()
	wd.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/watchdog", nil))
	var status struct {
		Stalled   []string           `json:"stalled"`
		Snapshots []WatchdogSnapshot `json:"snapshots"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatalf("/debug/watchdog body: %v", err)
	}
	if len(status.Stalled) != 1 || status.Stalled[0] != "request_deadline" {
		t.Errorf("/debug/watchdog stalled = %v", status.Stalled)
	}
	if len(status.Snapshots) != 1 {
		t.Errorf("/debug/watchdog snapshots = %d, want 1", len(status.Snapshots))
	}

	stalled.Store(false)
	wd.Sweep()
	if got := wd.Stalled(); len(got) != 0 {
		t.Fatalf("recovered check still reported: %v", got)
	}

	counters := map[string]uint64{}
	for _, m := range reg.Snapshot() {
		counters[m.Name] = uint64(m.Value)
	}
	if counters["segshare_watchdog_triggers_total"] != 1 {
		t.Errorf("triggers counter = %d, want 1", counters["segshare_watchdog_triggers_total"])
	}
	if counters["segshare_watchdog_recoveries_total"] != 1 {
		t.Errorf("recoveries counter = %d, want 1", counters["segshare_watchdog_recoveries_total"])
	}
	if counters["segshare_watchdog_stalled_checks"] != 0 {
		t.Errorf("stalled gauge = %d, want 0", counters["segshare_watchdog_stalled_checks"])
	}
}

// TestWatchdogMutexSnapshotNeedsSampler: with the runtime's mutex
// sampler off the mutex profile is a bare header, so a stall snapshot
// leaves Mutex empty rather than passing the header off as evidence;
// with the sampler on it carries the rendered profile.
func TestWatchdogMutexSnapshotNeedsSampler(t *testing.T) {
	prev := runtime.SetMutexProfileFraction(-1)
	t.Cleanup(func() { runtime.SetMutexProfileFraction(prev) })
	stallOnce := func() WatchdogSnapshot {
		wd := NewWatchdog(WatchdogOptions{Interval: time.Hour})
		if err := wd.AddCheck("request_deadline", func() error { return errInjectedStall }); err != nil {
			t.Fatal(err)
		}
		wd.Sweep()
		snaps := wd.Snapshots()
		if len(snaps) != 1 {
			t.Fatalf("got %d snapshots, want 1", len(snaps))
		}
		return snaps[0]
	}

	runtime.SetMutexProfileFraction(0)
	if got := stallOnce().Mutex; got != "" {
		t.Errorf("sampler off: Mutex = %q, want empty", got)
	}
	runtime.SetMutexProfileFraction(100)
	if got := stallOnce().Mutex; !strings.Contains(got, "sampling period=") {
		t.Errorf("sampler on: Mutex = %q, want the rendered mutex profile", got)
	}
}

// TestWatchdogStress exercises the watchdog under -race: the background
// sweeper runs at a tight interval while probes flip between healthy and
// stalled and readers poll every exported surface concurrently. Tier-1
// runs this package with the race detector, so any unsynchronized access
// in the sweep/capture/read paths fails here.
func TestWatchdogStress(t *testing.T) {
	reg := NewRegistry()
	var stalls [3]atomic.Bool
	wd := NewWatchdog(WatchdogOptions{Interval: time.Millisecond, MaxSnapshots: 4, Obs: reg, OnTrigger: func(string) {}})
	names := []string{"request_deadline", "audit_backlog", "journal_recovery"}
	for i, name := range names {
		i := i
		if err := wd.AddCheck(name, func() error {
			if stalls[i].Load() {
				return errInjectedStall
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	wd.Start()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := range stalls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					stalls[i].Store(!stalls[i].Load())
					wd.Sweep()
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = wd.Stalled()
				_ = wd.Snapshots()
				rec := httptest.NewRecorder()
				wd.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/watchdog", nil))
			}
		}
	}()

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	wd.Stop()

	if snaps := wd.Snapshots(); len(snaps) > 4 {
		t.Errorf("snapshot ring exceeded its bound: %d", len(snaps))
	}
}

// TestWatchdogRejectsLeakyCheckName: check names surface on the admin
// listener, so they pass the same denylist as metric names.
func TestWatchdogRejectsLeakyCheckName(t *testing.T) {
	wd := NewWatchdog(WatchdogOptions{})
	if err := wd.AddCheck("user_request_stall", func() error { return nil }); err == nil {
		t.Fatal("identity-bearing check name accepted")
	}
}

// TestStartUptime: the gauge registers and the stop function is
// idempotent.
func TestStartUptime(t *testing.T) {
	reg := NewRegistry()
	stop := StartUptime(reg)
	found := false
	for _, m := range reg.Snapshot() {
		if m.Name == "segshare_uptime_seconds" {
			found = true
		}
	}
	if !found {
		t.Fatal("segshare_uptime_seconds not registered")
	}
	stop()
	stop()
}

var errInjectedStall = &injectedStall{}

type injectedStall struct{}

func (*injectedStall) Error() string { return "injected stall" }
