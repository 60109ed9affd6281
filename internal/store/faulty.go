package store

import (
	"sync"
	"time"
)

// FaultPlan is a deterministic failure schedule shared by every Faulty
// backend of one store under test. It counts mutating backend operations
// (put, delete, rename) across all attached backends and fires at a
// chosen point, either once (a transient fault) or permanently (a
// simulated process kill: from the n-th mutation on, every mutation
// fails until Revive). Crash-consistency tests dry-run an operation to
// learn its mutation count, then replay it once per failure point.
//
// Two further injection modes model a browning-out backend rather than a
// crashed one: SetLatency delays every operation (reads included) so
// deadline enforcement is testable, and FailReadsAtOp/KillReadsAtOp run
// an independent schedule over read operations (get, exists, list) so
// flaky reads can trip the circuit breaker deterministically.
type FaultPlan struct {
	mu        sync.Mutex
	ops       int
	countdown int // fire on the countdown-th next mutation; 0 = disarmed
	kill      bool
	killed    bool
	err       error

	latency time.Duration

	readOps       int
	readCountdown int
	readKill      bool
	readKilled    bool
	readErr       error
}

// NewFaultPlan returns a disarmed plan.
func NewFaultPlan() *FaultPlan { return &FaultPlan{} }

// FailAtOp arranges for the n-th subsequent mutating operation (counting
// from 1) to fail once with err; later mutations succeed again.
func (p *FaultPlan) FailAtOp(n int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.countdown = n
	p.kill = false
	p.killed = false
	p.err = err
}

// KillAtOp arranges for the n-th subsequent mutating operation and every
// one after it to fail with err, simulating a process kill mid-operation.
func (p *FaultPlan) KillAtOp(n int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.countdown = n
	p.kill = true
	p.killed = false
	p.err = err
}

// FailReadsAtOp arranges for the n-th subsequent read operation (get,
// exists, list; counting from 1) to fail once with err. The read
// schedule is independent of the mutation schedule.
func (p *FaultPlan) FailReadsAtOp(n int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.readCountdown = n
	p.readKill = false
	p.readKilled = false
	p.readErr = err
}

// KillReadsAtOp arranges for the n-th subsequent read operation and
// every one after it to fail with err, simulating a backend whose read
// path has browned out.
func (p *FaultPlan) KillReadsAtOp(n int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.readCountdown = n
	p.readKill = true
	p.readKilled = false
	p.readErr = err
}

// SetLatency delays every subsequent operation — reads and mutations —
// by d before it executes (or fails). Zero removes the delay.
func (p *FaultPlan) SetLatency(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.latency = d
}

// Revive disarms the plan ("restart the process"): mutations and reads
// succeed again and injected latency is cleared. The operation counters
// keep running.
func (p *FaultPlan) Revive() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.countdown = 0
	p.kill = false
	p.killed = false
	p.readCountdown = 0
	p.readKill = false
	p.readKilled = false
	p.latency = 0
}

// Ops returns the number of mutating operations observed so far,
// including ones that were failed.
func (p *FaultPlan) Ops() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ops
}

// ReadOps returns the number of read operations observed so far,
// including ones that were failed.
func (p *FaultPlan) ReadOps() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.readOps
}

func (p *FaultPlan) check(op string) error {
	var mutation bool
	switch op {
	case "put", "delete", "rename":
		mutation = true
	case "get", "exists", "list":
	default:
		return nil
	}
	p.mu.Lock()
	latency := p.latency
	var err error
	if mutation {
		p.ops++
		switch {
		case p.killed:
			err = p.err
		case p.countdown > 0:
			p.countdown--
			if p.countdown == 0 {
				if p.kill {
					p.killed = true
				}
				err = p.err
			}
		}
	} else {
		p.readOps++
		switch {
		case p.readKilled:
			err = p.readErr
		case p.readCountdown > 0:
			p.readCountdown--
			if p.readCountdown == 0 {
				if p.readKill {
					p.readKilled = true
				}
				err = p.readErr
			}
		}
	}
	p.mu.Unlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	return err
}

// Faulty wraps a Backend and injects the failures its FaultPlan
// schedules. It is the failure-injection harness used by tests to verify
// that I/O faults surface as errors instead of corrupting trusted state.
type Faulty struct {
	inner Backend
	plan  *FaultPlan
}

var (
	_ Backend   = (*Faulty)(nil)
	_ Unwrapper = (*Faulty)(nil)
)

// Unwrap returns the wrapped backend.
func (f *Faulty) Unwrap() Backend { return f.inner }

// NewFaultyWithPlan wraps inner and attaches a shared FaultPlan. Several
// backends (content, group, dedup stores) can share one plan so that a
// schedule covers an operation's writes wherever they land. Until the
// plan is armed the wrapper is transparent.
func NewFaultyWithPlan(inner Backend, plan *FaultPlan) *Faulty {
	return &Faulty{inner: inner, plan: plan}
}

// Put implements Backend.
func (f *Faulty) Put(name string, data []byte) error {
	if err := f.plan.check("put"); err != nil {
		return err
	}
	return f.inner.Put(name, data)
}

// Get implements Backend.
func (f *Faulty) Get(name string) ([]byte, error) {
	if err := f.plan.check("get"); err != nil {
		return nil, err
	}
	return f.inner.Get(name)
}

// Delete implements Backend.
func (f *Faulty) Delete(name string) error {
	if err := f.plan.check("delete"); err != nil {
		return err
	}
	return f.inner.Delete(name)
}

// Rename implements Backend.
func (f *Faulty) Rename(oldName, newName string) error {
	if err := f.plan.check("rename"); err != nil {
		return err
	}
	return f.inner.Rename(oldName, newName)
}

// Exists implements Backend.
func (f *Faulty) Exists(name string) (bool, error) {
	if err := f.plan.check("exists"); err != nil {
		return false, err
	}
	return f.inner.Exists(name)
}

// List implements Backend.
func (f *Faulty) List() ([]string, error) {
	if err := f.plan.check("list"); err != nil {
		return nil, err
	}
	return f.inner.List()
}

// TotalBytes implements Backend.
func (f *Faulty) TotalBytes() (int64, error) {
	return f.inner.TotalBytes()
}
