package enclave

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"segshare/internal/obs"
)

// CallMode selects how calls cross the enclave boundary.
type CallMode int

const (
	// ModeSwitchless hands calls to persistent worker threads (SGX SDK
	// switchless calls, paper §II-A, §VI), or blocks when none is idle.
	ModeSwitchless CallMode = iota + 1
	// ModeBlocking performs a synchronous enclave transition per call,
	// paying the configured switch latency. Used for the ablation bench.
	ModeBlocking
)

// Bridge errors.
var (
	// ErrBridgeClosed is returned for calls on a closed bridge.
	ErrBridgeClosed = errors.New("enclave: bridge closed")
	// ErrUnknownOp is returned when no handler is registered for an op.
	ErrUnknownOp = errors.New("enclave: unknown bridge op")
)

// Handler is a function exposed across the enclave boundary.
type Handler func(payload []byte) ([]byte, error)

// BridgeConfig tunes the call bridge.
type BridgeConfig struct {
	// Mode selects switchless or blocking transitions. Defaults to
	// ModeSwitchless.
	Mode CallMode
	// Workers is the number of worker goroutines per direction in
	// switchless mode. Defaults to 4.
	Workers int
	// SwitchLatency is the simulated cost of one enclave transition (enter
	// or exit) of a blocking call, switchless fallbacks included. Defaults
	// to 6µs, in the range reported for SGX ecall round trips.
	SwitchLatency time.Duration
	// Obs is the metric registry the bridge reports into. Defaults to
	// obs.Default(). Bridge telemetry is aggregate by design: call counts
	// and bucketed durations per direction, never op names or payloads —
	// the untrusted host observes every transition anyway (paper §III-B),
	// so exporting their aggregate timing stays inside the leak budget.
	Obs *obs.Registry
}

func (c BridgeConfig) withDefaults() BridgeConfig {
	if c.Mode == 0 {
		c.Mode = ModeSwitchless
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.SwitchLatency <= 0 {
		c.SwitchLatency = 6 * time.Microsecond
	}
	if c.Obs == nil {
		c.Obs = obs.Default()
	}
	return c
}

// bridgeInstruments are the per-direction obs instruments of one bridge
// direction (ecall or ocall), plus the direction's busy-worker count.
type bridgeInstruments struct {
	calls     *obs.Counter
	callNS    *obs.Histogram // handler execution time
	queueNS   *obs.Histogram // wait between enqueue and worker pickup
	errsTotal *obs.Counter
	busy      atomic.Int32 // workers claimed by a caller and not yet free again
}

func newBridgeInstruments(reg *obs.Registry, call string) bridgeInstruments {
	labels := obs.Labels{"call": call}
	return bridgeInstruments{
		calls:     reg.Counter("segshare_bridge_calls_total", "Calls across the enclave boundary by direction.", labels),
		callNS:    reg.Histogram("segshare_bridge_call_ns", "Handler execution time per boundary call (ns).", labels),
		queueNS:   reg.Histogram("segshare_bridge_queue_wait_ns", "Switchless task-queue wait before worker pickup (ns).", labels),
		errsTotal: reg.Counter("segshare_bridge_errors_total", "Boundary calls whose handler returned an error.", labels),
	}
}

// BridgeMetrics reports call traffic across the boundary.
type BridgeMetrics struct {
	ECalls      uint64
	OCalls      uint64
	Transitions uint64
}

type bridgeTask struct {
	handler  Handler
	payload  []byte
	resp     chan bridgeResult
	enqueued time.Time
	inst     *bridgeInstruments
}

type bridgeResult struct {
	data []byte
	err  error
}

// Bridge is the interface between the untrusted host process and the
// trusted enclave code. The untrusted side invokes trusted functions via
// ECall; trusted code invokes untrusted functions (storage, network) via
// OCall. All SeGShare network and file traffic crosses a Bridge, mirroring
// the prototype's use of switchless calls for its TLS library and the
// protected file system (paper §VI).
type Bridge struct {
	cfg BridgeConfig

	mu     sync.RWMutex
	ecalls map[string]Handler
	ocalls map[string]Handler

	etasks chan bridgeTask
	otasks chan bridgeTask
	done   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	nECalls      atomic.Uint64
	nOCalls      atomic.Uint64
	nTransitions atomic.Uint64
	inflight     atomic.Int64

	einst       bridgeInstruments
	oinst       bridgeInstruments
	transitions *obs.Counter
}

// NewBridge creates a bridge and, in switchless mode, starts its worker
// goroutines. The caller must Close the bridge to stop them.
func NewBridge(cfg BridgeConfig) *Bridge {
	cfg = cfg.withDefaults()
	b := &Bridge{
		cfg:         cfg,
		ecalls:      make(map[string]Handler),
		ocalls:      make(map[string]Handler),
		done:        make(chan struct{}),
		einst:       newBridgeInstruments(cfg.Obs, "ecall"),
		oinst:       newBridgeInstruments(cfg.Obs, "ocall"),
		transitions: cfg.Obs.Counter("segshare_bridge_transitions_total", "Synchronous enclave enter/exit transitions (blocking mode and switchless fallbacks).", nil),
	}
	if cfg.Mode == ModeSwitchless {
		b.etasks = make(chan bridgeTask)
		b.otasks = make(chan bridgeTask)
		for i := 0; i < cfg.Workers; i++ {
			b.wg.Add(2)
			go b.worker(b.etasks)
			go b.worker(b.otasks)
		}
	}
	return b
}

func (b *Bridge) worker(tasks <-chan bridgeTask) {
	defer b.wg.Done()
	for {
		select {
		case <-b.done:
			return
		case t := <-tasks:
			t.inst.queueNS.ObserveDuration(time.Since(t.enqueued))
			start := time.Now()
			data, err := t.handler(t.payload)
			t.inst.callNS.ObserveDuration(time.Since(start))
			if err != nil {
				t.inst.errsTotal.Inc()
			}
			t.inst.busy.Add(-1) // free before the caller resumes, so its next call finds this worker
			t.resp <- bridgeResult{data: data, err: err}
		}
	}
}

// RegisterECall exposes a trusted function to the untrusted side.
func (b *Bridge) RegisterECall(op string, fn Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ecalls[op] = fn
}

// RegisterOCall exposes an untrusted function to trusted code.
func (b *Bridge) RegisterOCall(op string, fn Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ocalls[op] = fn
}

// ECall invokes the trusted handler registered for op.
func (b *Bridge) ECall(op string, payload []byte) ([]byte, error) {
	b.nECalls.Add(1)
	b.einst.calls.Inc()
	return b.call(b.ecalls, b.etasks, &b.einst, op, payload)
}

// OCall invokes the untrusted handler registered for op.
func (b *Bridge) OCall(op string, payload []byte) ([]byte, error) {
	b.nOCalls.Add(1)
	b.oinst.calls.Inc()
	return b.call(b.ocalls, b.otasks, &b.oinst, op, payload)
}

func (b *Bridge) call(table map[string]Handler, tasks chan bridgeTask, inst *bridgeInstruments, op string, payload []byte) ([]byte, error) {
	if b.closed.Load() {
		return nil, ErrBridgeClosed
	}
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.mu.RLock()
	fn, ok := table[op]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownOp, op)
	}
	if b.cfg.Mode == ModeSwitchless {
		if inst.busy.Add(1) <= int32(b.cfg.Workers) {
			t := bridgeTask{handler: fn, payload: payload, resp: make(chan bridgeResult, 1), enqueued: time.Now(), inst: inst}
			select {
			case <-b.done:
				return nil, ErrBridgeClosed
			case tasks <- t:
			}
			select {
			case <-b.done:
				return nil, ErrBridgeClosed
			case r := <-t.resp:
				return r.data, r.err
			}
		}
		inst.busy.Add(-1) // none idle: fall back like the SGX SDK, never wait on a parked handler
	}
	// One transition to enter, one to leave.
	b.nTransitions.Add(2)
	b.transitions.Add(2)
	time.Sleep(2 * b.cfg.SwitchLatency)
	start := time.Now()
	data, err := fn(payload)
	inst.callNS.ObserveDuration(time.Since(start))
	if err != nil {
		inst.errsTotal.Inc()
	}
	return data, err
}

// Pending returns the number of boundary calls currently in flight
// (dispatched but not yet returned). The stall watchdog reads it to tell
// a wedged bridge from an idle one.
func (b *Bridge) Pending() int64 { return b.inflight.Load() }

// Metrics returns a snapshot of call counters.
func (b *Bridge) Metrics() BridgeMetrics {
	return BridgeMetrics{
		ECalls:      b.nECalls.Load(),
		OCalls:      b.nOCalls.Load(),
		Transitions: b.nTransitions.Load(),
	}
}

// Close stops the worker goroutines and fails all subsequent calls with
// ErrBridgeClosed. Close is idempotent.
func (b *Bridge) Close() {
	if b.closed.Swap(true) {
		return
	}
	close(b.done)
	b.wg.Wait()
}
