package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// Watchdog periodically runs named stall checks — over-deadline requests,
// audit-writer backlog, journal recovery overrun — and on a
// healthy→stalled transition captures a goroutine profile snapshot, plus
// the mutex profile when the runtime's mutex sampler is on, so the wedge
// can be diagnosed after the fact.
// Check names pass the leak-budget name rules; check errors are reduced
// to the name on every exported surface, so probe error text (which may
// quote internal state) never leaves the process.
type Watchdog struct {
	interval time.Duration
	maxSnaps int

	mu      sync.Mutex
	checks  []watchdogCheck
	snaps   []WatchdogSnapshot
	started bool
	stop    chan struct{}
	stopped chan struct{}

	triggers   *Counter
	recoveries *Counter
	stalledG   *Gauge

	// onTrigger runs on every healthy→stalled transition (audit emit,
	// trace force-sampling). Set before Start.
	onTrigger func(check string)
}

type watchdogCheck struct {
	name    string
	probe   func() error
	stalled bool
}

// WatchdogSnapshot is one captured stall: which check fired, when, and
// the profile text at that moment. Mutex is empty unless the runtime's
// mutex sampler was on (segshare-server turns it on with -profile-dir):
// with it off the profile is a bare header with no samples.
type WatchdogSnapshot struct {
	Check     string    `json:"check"`
	Time      time.Time `json:"time"`
	Goroutine string    `json:"goroutine"`
	Mutex     string    `json:"mutex"`
}

// WatchdogOptions configures a Watchdog.
type WatchdogOptions struct {
	// Interval between check sweeps. Default 1s.
	Interval time.Duration
	// MaxSnapshots bounds the retained snapshot ring. Default 8.
	MaxSnapshots int
	// Obs, when set, registers trigger/recovery counters and the
	// stalled-checks gauge.
	Obs *Registry
	// OnTrigger, when set, runs on each healthy→stalled transition with
	// the check name.
	OnTrigger func(check string)
}

// NewWatchdog builds a watchdog; call AddCheck then Start.
func NewWatchdog(opt WatchdogOptions) *Watchdog {
	if opt.Interval <= 0 {
		opt.Interval = time.Second
	}
	if opt.MaxSnapshots <= 0 {
		opt.MaxSnapshots = 8
	}
	w := &Watchdog{
		interval:  opt.Interval,
		maxSnaps:  opt.MaxSnapshots,
		stop:      make(chan struct{}),
		stopped:   make(chan struct{}),
		onTrigger: opt.OnTrigger,
	}
	if opt.Obs != nil {
		w.triggers = opt.Obs.Counter("segshare_watchdog_triggers_total",
			"Watchdog checks that transitioned from healthy to stalled.", nil)
		w.recoveries = opt.Obs.Counter("segshare_watchdog_recoveries_total",
			"Watchdog checks that transitioned from stalled back to healthy.", nil)
		w.stalledG = opt.Obs.Gauge("segshare_watchdog_stalled_checks",
			"Number of watchdog checks currently reporting a stall.", nil)
	}
	return w
}

// AddCheck registers a named stall probe: nil means healthy, an error
// means stalled. The name must pass the leak-budget name rules. Must be
// called before Start.
func (w *Watchdog) AddCheck(name string, probe func() error) error {
	if err := verifyName(name, "watchdog check name"); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.checks = append(w.checks, watchdogCheck{name: name, probe: probe})
	return nil
}

// Start launches the sweep goroutine. Stop it with Stop.
func (w *Watchdog) Start() {
	w.mu.Lock()
	if w.started {
		w.mu.Unlock()
		return
	}
	w.started = true
	w.mu.Unlock()
	go w.run()
}

// Stop halts the sweep goroutine and waits for it to exit.
func (w *Watchdog) Stop() {
	w.mu.Lock()
	if !w.started {
		w.mu.Unlock()
		return
	}
	w.started = false
	w.mu.Unlock()
	close(w.stop)
	<-w.stopped
}

func (w *Watchdog) run() {
	defer close(w.stopped)
	ticker := time.NewTicker(w.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			w.Sweep()
		case <-w.stop:
			return
		}
	}
}

// Sweep runs every check once, handling transitions. Exported so tests
// (and a SIGQUIT-style manual trigger) can force a sweep without waiting
// for the ticker.
func (w *Watchdog) Sweep() {
	w.mu.Lock()
	checks := make([]*watchdogCheck, len(w.checks))
	for i := range w.checks {
		checks[i] = &w.checks[i]
	}
	w.mu.Unlock()

	for _, c := range checks {
		err := c.probe()
		w.mu.Lock()
		was := c.stalled
		c.stalled = err != nil
		transitionedUp := !was && c.stalled
		transitionedDown := was && !c.stalled
		w.mu.Unlock()
		switch {
		case transitionedUp:
			if w.triggers != nil {
				w.triggers.Inc()
			}
			if w.stalledG != nil {
				w.stalledG.Add(1)
			}
			w.capture(c.name)
			if w.onTrigger != nil {
				w.onTrigger(c.name)
			}
		case transitionedDown:
			if w.recoveries != nil {
				w.recoveries.Inc()
			}
			if w.stalledG != nil {
				w.stalledG.Add(-1)
			}
		}
	}
}

// capture stores a goroutine (and, when sampled, mutex) profile
// snapshot, evicting the oldest beyond the ring bound.
func (w *Watchdog) capture(check string) {
	snap := WatchdogSnapshot{
		Check:     check,
		Time:      time.Now(),
		Goroutine: profileText("goroutine"),
	}
	// A negative fraction reads the current rate without changing it.
	if runtime.SetMutexProfileFraction(-1) > 0 {
		snap.Mutex = profileText("mutex")
	}
	w.mu.Lock()
	w.snaps = append(w.snaps, snap)
	if len(w.snaps) > w.maxSnaps {
		w.snaps = w.snaps[len(w.snaps)-w.maxSnaps:]
	}
	w.mu.Unlock()
}

func profileText(name string) string {
	p := pprof.Lookup(name)
	if p == nil {
		return ""
	}
	var buf bytes.Buffer
	// debug=1 renders the symbolized text form, the one a human reads
	// when diagnosing a wedge.
	if err := p.WriteTo(&buf, 1); err != nil {
		return ""
	}
	return buf.String()
}

// Snapshots returns the retained stall snapshots, oldest first.
func (w *Watchdog) Snapshots() []WatchdogSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]WatchdogSnapshot, len(w.snaps))
	copy(out, w.snaps)
	return out
}

// Stalled returns the names of checks currently reporting a stall.
func (w *Watchdog) Stalled() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	for _, c := range w.checks {
		if c.stalled {
			out = append(out, c.name)
		}
	}
	return out
}

// watchdogStatus is the /debug/watchdog JSON body.
type watchdogStatus struct {
	Stalled   []string           `json:"stalled"`
	Snapshots []WatchdogSnapshot `json:"snapshots"`
}

// Handler serves /debug/watchdog: current stalled checks plus retained
// profile snapshots. Admin-listener only; the profile text describes the
// untrusted host runtime, consistent with the existing pprof endpoints.
func (w *Watchdog) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		st := watchdogStatus{Stalled: w.Stalled(), Snapshots: w.Snapshots()}
		if st.Stalled == nil {
			st.Stalled = []string{}
		}
		if st.Snapshots == nil {
			st.Snapshots = []WatchdogSnapshot{}
		}
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
}

// StartUptime registers segshare_uptime_seconds on reg and keeps it
// current from a background goroutine until the returned stop func runs.
func StartUptime(reg *Registry) (stop func()) {
	start := time.Now()
	g := reg.Gauge("segshare_uptime_seconds",
		"Seconds since the server process finished startup.", nil)
	done := make(chan struct{})
	var once sync.Once
	go func() {
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				g.Set(int64(time.Since(start).Seconds()))
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
