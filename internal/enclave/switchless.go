package enclave

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"segshare/internal/obs"
)

// CallMode selects how calls cross the enclave boundary.
type CallMode int

const (
	// ModeSwitchless runs calls on the caller's goroutine without an
	// enclave transition, as SGX SDK switchless calls hand them over
	// shared memory to a thread already on the other side (paper §II-A,
	// §VI) without descheduling the caller.
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

// bulkPayload is the payload size, a full TLS record, from which a
// switchless call yields the processor when it returns.
const bulkPayload = 16 << 10

// Handler is a function exposed across the enclave boundary. The payload
// belongs to the caller and may be reused once the handler returns, so a
// handler that keeps bytes past its return copies them first.
type Handler func(payload []byte) ([]byte, error)

// BridgeConfig tunes the call bridge.
type BridgeConfig struct {
	// Mode selects switchless or blocking transitions. Defaults to
	// ModeSwitchless.
	Mode CallMode
	// SwitchLatency is the simulated cost of one enclave transition (enter
	// or exit) of a blocking call. Defaults to 6µs, in the range reported
	// for SGX ecall round trips.
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
	if c.SwitchLatency <= 0 {
		c.SwitchLatency = 6 * time.Microsecond
	}
	if c.Obs == nil {
		c.Obs = obs.Default()
	}
	return c
}

// bridgeInstruments are the call count and obs instruments of one
// bridge direction (ecall or ocall).
type bridgeInstruments struct {
	n         atomic.Uint64 // calls on this bridge, for Metrics
	calls     *obs.Counter
	callNS    *obs.Histogram // handler execution time
	errsTotal *obs.Counter
}

func newBridgeInstruments(reg *obs.Registry, call string) bridgeInstruments {
	labels := obs.Labels{"call": call}
	return bridgeInstruments{
		calls:     reg.Counter("segshare_bridge_calls_total", "Calls across the enclave boundary by direction.", labels),
		callNS:    reg.Histogram("segshare_bridge_call_ns", "Handler execution time per boundary call (ns).", labels),
		errsTotal: reg.Counter("segshare_bridge_errors_total", "Boundary calls whose handler returned an error.", labels),
	}
}

// BridgeMetrics reports call traffic across the boundary.
type BridgeMetrics struct {
	ECalls      uint64
	OCalls      uint64
	Transitions uint64
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

	closed atomic.Bool

	nTransitions atomic.Uint64
	inflight     atomic.Int64

	einst       bridgeInstruments
	oinst       bridgeInstruments
	transitions *obs.Counter
}

// NewBridge creates a bridge. It starts no goroutines.
func NewBridge(cfg BridgeConfig) *Bridge {
	cfg = cfg.withDefaults()
	return &Bridge{
		cfg:         cfg,
		ecalls:      make(map[string]Handler),
		ocalls:      make(map[string]Handler),
		einst:       newBridgeInstruments(cfg.Obs, "ecall"),
		oinst:       newBridgeInstruments(cfg.Obs, "ocall"),
		transitions: cfg.Obs.Counter("segshare_bridge_transitions_total", "Synchronous enclave enter/exit transitions (blocking mode).", nil),
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
	return b.call(b.ecalls, &b.einst, op, payload)
}

// OCall invokes the untrusted handler registered for op.
func (b *Bridge) OCall(op string, payload []byte) ([]byte, error) {
	return b.call(b.ocalls, &b.oinst, op, payload)
}

// call runs the handler on the caller's goroutine. A switchless call
// crosses for free; a blocking one pays an enter and an exit transition.
func (b *Bridge) call(table map[string]Handler, inst *bridgeInstruments, op string, payload []byte) ([]byte, error) {
	inst.n.Add(1)
	inst.calls.Inc()
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
	if b.cfg.Mode == ModeBlocking {
		b.nTransitions.Add(2)
		b.transitions.Add(2)
		time.Sleep(2 * b.cfg.SwitchLatency)
	}
	start := time.Now()
	data, err := fn(payload)
	inst.callNS.ObserveDuration(time.Since(start))
	if err != nil {
		inst.errsTotal.Inc()
	}
	if b.cfg.Mode == ModeSwitchless && len(payload) >= bulkPayload {
		// The handler ran on the caller's goroutine, which a stream of
		// bulk calls would hold without blocking until preemption (10 ms):
		// yield, so goroutines woken meanwhile run. A blocking call
		// already parks in its transition.
		runtime.Gosched()
	}
	return data, err
}

// Pending returns the number of boundary calls currently in flight
// (dispatched but not yet returned).
func (b *Bridge) Pending() int64 { return b.inflight.Load() }

// Metrics returns a snapshot of call counters.
func (b *Bridge) Metrics() BridgeMetrics {
	return BridgeMetrics{
		ECalls:      b.einst.n.Load(),
		OCalls:      b.oinst.n.Load(),
		Transitions: b.nTransitions.Load(),
	}
}

// Close fails all subsequent calls with ErrBridgeClosed. Calls already in
// a handler run to completion and return its result. Close is idempotent.
func (b *Bridge) Close() { b.closed.Store(true) }
