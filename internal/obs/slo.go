package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// SLOEngine evaluates per-op-class service-level objectives over the
// request stream: a latency threshold (a request slower than it is
// "bad" even when it succeeds) and an error-rate target (the
// objective). Burn rate — how fast the error budget is being consumed
// relative to the rate that exactly exhausts it — is computed over the
// Google-SRE multi-window pairs: a breach requires BOTH windows of a
// pair over threshold, so a short spike (fails the long window) and a
// slowly-built backlog (fails the short window once the incident ends)
// both resolve correctly.
//
// Leak budget: the engine sees only (op class, status code, duration) —
// the same inputs the request counters already export. Its outputs are
// per-op-class gauges, log2-bucketed counts, and milli-scaled ratios of
// those counts; no request identity enters or leaves.

// The closed set of burn-rate window names. These are labels and JSON
// field values, deliberately NOT the configured durations: windows are
// tunable (tests shrink them to milliseconds) but the exported
// vocabulary stays constant.
const (
	WindowFastShort = "fast_short" // default 5m
	WindowFastLong  = "fast_long"  // default 1h
	WindowSlowShort = "slow_short" // default 6h
	WindowSlowLong  = "slow_long"  // default 3d
)

// The closed set of breach speeds, used as a metric label, audit
// detail, and profiler trigger reason.
const (
	BreachFast = "fast_burn"
	BreachSlow = "slow_burn"
)

// SLOConfig parameterizes the engine. Zero fields take the documented
// defaults.
type SLOConfig struct {
	// Objective is the good-request fraction target (default 0.999,
	// i.e. a 0.1% error budget).
	Objective float64
	// LatencyThreshold marks a request bad when it runs longer, even if
	// it succeeded (default 250ms).
	LatencyThreshold time.Duration
	// PerOpLatency overrides LatencyThreshold for specific op classes.
	PerOpLatency map[string]time.Duration
	// FastBurn is the paging threshold for the fast window pair
	// (default 14.4: the budget would be gone in ~2% of the SLO period).
	FastBurn float64
	// SlowBurn is the ticket threshold for the slow window pair
	// (default 1.0: budget consumed exactly at exhaustion rate).
	SlowBurn float64
	// FastShort, FastLong, SlowShort, SlowLong are the four window
	// durations (defaults 5m, 1h, 6h, 72h). Tests shrink them.
	FastShort, FastLong, SlowShort, SlowLong time.Duration
	// EvalInterval is the background evaluation cadence (default 10s).
	EvalInterval time.Duration
	// MinEvents gates breach detection: a window pair with fewer total
	// requests in its short window never breaches, so an idle server's
	// single failing probe cannot page (default 20).
	MinEvents uint64
	// Obs, when set, registers the segshare_slo_* instruments.
	Obs *Registry
	// OnBreach runs on every healthy-to-breached transition of a window
	// pair with the op class, the breach speed (BreachFast/BreachSlow),
	// and the short window's burn rate in millis. It runs on the
	// evaluation goroutine.
	OnBreach func(op, speed string, burnMilli int64)
	// Now overrides the clock, for tests. Default time.Now.
	Now func() time.Time
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Objective <= 0 || c.Objective >= 1 {
		c.Objective = 0.999
	}
	if c.LatencyThreshold <= 0 {
		c.LatencyThreshold = 250 * time.Millisecond
	}
	if c.FastBurn <= 0 {
		c.FastBurn = 14.4
	}
	if c.SlowBurn <= 0 {
		c.SlowBurn = 1.0
	}
	if c.FastShort <= 0 {
		c.FastShort = 5 * time.Minute
	}
	if c.FastLong <= 0 {
		c.FastLong = time.Hour
	}
	if c.SlowShort <= 0 {
		c.SlowShort = 6 * time.Hour
	}
	if c.SlowLong <= 0 {
		c.SlowLong = 72 * time.Hour
	}
	if c.EvalInterval <= 0 {
		c.EvalInterval = 10 * time.Second
	}
	if c.MinEvents == 0 {
		c.MinEvents = 20
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// SLOEngine holds one tracker per op class seen on the request stream.
type SLOEngine struct {
	cfg SLOConfig

	mu       sync.Mutex
	trackers map[string]*sloTracker
	// byOp shadows trackers for the request hot path: Record hits an
	// existing op class with one lock-free load instead of taking e.mu.
	// Op classes are a closed compile-time set, so the map is bounded.
	byOp sync.Map // op string -> *sloTracker

	total    *Counter
	breaches map[string]*Counter // by speed

	stopOnce sync.Once
	stop     chan struct{}
	stopped  chan struct{}
	started  bool
}

// sloTracker is one op class's windows and breach state. Burn gauges
// and breach flags are written only by Evaluate (single goroutine);
// rings are written by Record under their own mutexes.
type sloTracker struct {
	op          string
	thresholdNs int64
	fast        *burnRing // width FastShort/5, span FastLong
	slow        *burnRing // width SlowShort/6, span SlowLong
	burn        map[string]*Gauge
	burnMilli   map[string]int64
	breached    map[string]bool // by speed
}

// NewSLOEngine builds the engine; call Start to launch the background
// evaluator (tests may drive Evaluate directly instead).
func NewSLOEngine(cfg SLOConfig) *SLOEngine {
	cfg = cfg.withDefaults()
	e := &SLOEngine{
		cfg:      cfg,
		trackers: make(map[string]*sloTracker),
		breaches: make(map[string]*Counter),
		stop:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	if cfg.Obs != nil {
		e.total = cfg.Obs.Counter("segshare_slo_requests_total",
			"Requests evaluated against the SLO (good + bad).", nil)
		for _, speed := range []string{BreachFast, BreachSlow} {
			e.breaches[speed] = cfg.Obs.Counter("segshare_slo_breaches_total",
				"Burn-rate window pairs that transitioned into breach.", Labels{"speed": speed})
		}
	}
	return e
}

// Start launches the evaluation goroutine; Stop halts it.
func (e *SLOEngine) Start() {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return
	}
	e.started = true
	e.mu.Unlock()
	go e.run()
}

// Stop halts the evaluation goroutine, if started.
func (e *SLOEngine) Stop() {
	e.stopOnce.Do(func() {
		e.mu.Lock()
		started := e.started
		e.mu.Unlock()
		close(e.stop)
		if started {
			<-e.stopped
		}
	})
}

func (e *SLOEngine) run() {
	defer close(e.stopped)
	ticker := time.NewTicker(e.cfg.EvalInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			e.Evaluate(e.cfg.Now())
		case <-e.stop:
			return
		}
	}
}

// thresholdFor returns op's bad-latency threshold in nanoseconds.
func (e *SLOEngine) thresholdFor(op string) int64 {
	if d, ok := e.cfg.PerOpLatency[op]; ok && d > 0 {
		return d.Nanoseconds()
	}
	return e.cfg.LatencyThreshold.Nanoseconds()
}

func (e *SLOEngine) tracker(op string) *sloTracker {
	if t, ok := e.byOp.Load(op); ok {
		return t.(*sloTracker)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if t, ok := e.trackers[op]; ok {
		return t
	}
	t := &sloTracker{
		op:          op,
		thresholdNs: e.thresholdFor(op),
		fast:        newBurnRing(e.cfg.FastShort/5, e.cfg.FastLong),
		slow:        newBurnRing(e.cfg.SlowShort/6, e.cfg.SlowLong),
		burnMilli:   make(map[string]int64, 4),
		breached:    map[string]bool{BreachFast: false, BreachSlow: false},
	}
	if e.cfg.Obs != nil {
		t.burn = make(map[string]*Gauge, 4)
		for _, win := range []string{WindowFastShort, WindowFastLong, WindowSlowShort, WindowSlowLong} {
			t.burn[win] = e.cfg.Obs.Gauge("segshare_slo_burn_rate_milli",
				"Error-budget burn rate x1000 by op class and window.",
				Labels{"op": op, "win": win})
		}
	}
	e.trackers[op] = t
	e.byOp.Store(op, t)
	return t
}

// Record feeds one finished request into op's windows. A request is bad
// when it failed server-side (5xx) or overran the latency threshold.
// This is the request hot path: two short mutexed ring writes.
func (e *SLOEngine) Record(op string, status int, dur time.Duration) {
	t := e.tracker(op)
	bad := status >= 500 || dur.Nanoseconds() > t.thresholdNs
	now := e.cfg.Now()
	t.fast.add(now, bad)
	t.slow.add(now, bad)
	if e.total != nil {
		e.total.Inc()
	}
}

// windowSpec pairs a window name with where its counts come from.
type windowSpec struct {
	name string
	ring func(t *sloTracker) *burnRing
	dur  func(c *SLOConfig) time.Duration
}

var sloWindows = []windowSpec{
	{WindowFastShort, func(t *sloTracker) *burnRing { return t.fast }, func(c *SLOConfig) time.Duration { return c.FastShort }},
	{WindowFastLong, func(t *sloTracker) *burnRing { return t.fast }, func(c *SLOConfig) time.Duration { return c.FastLong }},
	{WindowSlowShort, func(t *sloTracker) *burnRing { return t.slow }, func(c *SLOConfig) time.Duration { return c.SlowShort }},
	{WindowSlowLong, func(t *sloTracker) *burnRing { return t.slow }, func(c *SLOConfig) time.Duration { return c.SlowLong }},
}

// Evaluate recomputes every tracker's burn rates and runs the breach
// state machine. The background goroutine calls it on EvalInterval;
// tests call it directly with a controlled clock.
func (e *SLOEngine) Evaluate(now time.Time) {
	e.mu.Lock()
	trackers := make([]*sloTracker, 0, len(e.trackers))
	for _, t := range e.trackers {
		trackers = append(trackers, t)
	}
	e.mu.Unlock()

	for _, t := range trackers {
		totals := make(map[string]uint64, 4)
		for _, w := range sloWindows {
			total, bad := w.ring(t).sums(now, w.dur(&e.cfg))
			milli := burnRateMilli(total, bad, e.cfg.Objective)
			totals[w.name] = total
			e.mu.Lock()
			t.burnMilli[w.name] = milli
			e.mu.Unlock()
			if t.burn != nil {
				t.burn[w.name].Set(milli)
			}
		}
		e.judge(t, BreachFast, WindowFastShort, WindowFastLong,
			int64(e.cfg.FastBurn*1000), totals[WindowFastShort])
		e.judge(t, BreachSlow, WindowSlowShort, WindowSlowLong,
			int64(e.cfg.SlowBurn*1000), totals[WindowSlowShort])
	}
}

// judge runs one window pair's breach state machine: both windows over
// the threshold AND enough traffic in the short window → breached.
func (e *SLOEngine) judge(t *sloTracker, speed, shortWin, longWin string, thresholdMilli int64, shortTotal uint64) {
	e.mu.Lock()
	over := t.burnMilli[shortWin] >= thresholdMilli && t.burnMilli[longWin] >= thresholdMilli &&
		shortTotal >= e.cfg.MinEvents
	was := t.breached[speed]
	t.breached[speed] = over
	burnMilli := t.burnMilli[shortWin]
	e.mu.Unlock()
	if over && !was {
		if c := e.breaches[speed]; c != nil {
			c.Inc()
		}
		if e.cfg.OnBreach != nil {
			e.cfg.OnBreach(t.op, speed, burnMilli)
		}
	}
}

// SLOWindowStatus is one window's exported state. Counts are log2
// bucket bounds; the burn rate is a milli-scaled ratio of two such
// aggregate counts.
type SLOWindowStatus struct {
	// Window names the window (class: enum, one of the Window* consts).
	Window string `json:"window"`
	// TotalLe / BadLe are the windowed request counts (class: bucketed).
	TotalLe uint64 `json:"totalLe"`
	BadLe   uint64 `json:"badLe"`
	// BurnMilli is the burn rate x1000 (class: rate — a ratio of the two
	// aggregate counts above, carrying no more than they do).
	BurnMilli int64 `json:"burnMilli"`
}

// SLOClassStatus is one op class's exported SLO state.
type SLOClassStatus struct {
	// Op is the operation class (class: enum).
	Op string `json:"op"`
	// ObjectiveMilli is the configured good-fraction target x1000
	// (class: config).
	ObjectiveMilli int64 `json:"objectiveMilli"`
	// LatencyThresholdNs is the configured bad-latency threshold
	// (class: config).
	LatencyThresholdNs int64 `json:"latencyThresholdNs"`
	// Windows holds the four burn-rate windows, in sloWindows order.
	Windows []SLOWindowStatus `json:"windows"`
	// FastBurning / SlowBurning report the window pairs' breach state
	// (class: flag).
	FastBurning bool `json:"fastBurning"`
	SlowBurning bool `json:"slowBurning"`
}

// SLOStatus is the /debug/slo JSON body.
type SLOStatus struct {
	// EvalUnixMs is when this snapshot was taken (class: time).
	EvalUnixMs int64 `json:"ts"`
	// Classes holds one entry per op class, sorted by op.
	Classes []SLOClassStatus `json:"classes"`
}

// SLOClassStatusFields / SLOWindowStatusFields classify every exported
// field for the leak-budget meta-test, like WideEventFields.
var SLOClassStatusFields = map[string]FieldClass{
	"Op":                 FieldEnum,
	"ObjectiveMilli":     FieldConfig,
	"LatencyThresholdNs": FieldConfig,
	"Windows":            FieldNested,
	"FastBurning":        FieldFlag,
	"SlowBurning":        FieldFlag,
}

var SLOWindowStatusFields = map[string]FieldClass{
	"Window":    FieldEnum,
	"TotalLe":   FieldBucketed,
	"BadLe":     FieldBucketed,
	"BurnMilli": FieldRate,
}

// Status snapshots every tracker for /debug/slo. All counts are
// re-bucketed through BucketCeil on the way out.
func (e *SLOEngine) Status() SLOStatus {
	now := e.cfg.Now()
	st := SLOStatus{EvalUnixMs: now.UnixMilli()}
	e.mu.Lock()
	trackers := make([]*sloTracker, 0, len(e.trackers))
	for _, t := range e.trackers {
		trackers = append(trackers, t)
	}
	e.mu.Unlock()
	sort.Slice(trackers, func(i, j int) bool { return trackers[i].op < trackers[j].op })
	for _, t := range trackers {
		cs := SLOClassStatus{
			Op:                 t.op,
			ObjectiveMilli:     int64(e.cfg.Objective * 1000),
			LatencyThresholdNs: t.thresholdNs,
		}
		for _, w := range sloWindows {
			total, bad := w.ring(t).sums(now, w.dur(&e.cfg))
			cs.Windows = append(cs.Windows, SLOWindowStatus{
				Window:    w.name,
				TotalLe:   BucketCeil(int64(total)),
				BadLe:     BucketCeil(int64(bad)),
				BurnMilli: burnRateMilli(total, bad, e.cfg.Objective),
			})
		}
		e.mu.Lock()
		cs.FastBurning = t.breached[BreachFast]
		cs.SlowBurning = t.breached[BreachSlow]
		e.mu.Unlock()
		st.Classes = append(st.Classes, cs)
	}
	if st.Classes == nil {
		st.Classes = []SLOClassStatus{}
	}
	return st
}

// VerifySLOStatus checks a status snapshot against the leak budget:
// enum fields must satisfy the label-value rules, counts must be log2
// bucket bounds, and window names must come from the closed set.
func VerifySLOStatus(st SLOStatus) error {
	for _, c := range st.Classes {
		if err := verifyLabelValue(c.Op); err != nil {
			return err
		}
		if len(c.Windows) != len(sloWindows) {
			return &wideFieldError{field: "Windows"}
		}
		for i, w := range c.Windows {
			if w.Window != sloWindows[i].name {
				return &wideFieldError{field: "Window"}
			}
			if !IsBucketBound(w.TotalLe) {
				return &wideFieldError{field: "TotalLe"}
			}
			if !IsBucketBound(w.BadLe) {
				return &wideFieldError{field: "BadLe"}
			}
		}
	}
	return nil
}

// Handler serves the /debug/slo JSON view.
func (e *SLOEngine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(e.Status())
	})
}
