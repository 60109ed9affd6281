package store

import (
	"fmt"
	"sync"
)

// Adversary wraps a Backend with the capabilities the paper's malicious
// cloud provider has (§III-B): it can read everything, silently modify
// objects on disk, and roll back individual objects or the whole store to
// an earlier state. Tests and the security evaluation use it to show that
// the enclave detects every such action.
type Adversary struct {
	inner Backend

	mu            sync.Mutex
	objectCopies  map[string][]byte
	storeSnapshot map[string][]byte
	dropWrites    bool
}

var (
	_ Backend   = (*Adversary)(nil)
	_ Unwrapper = (*Adversary)(nil)
)

// Unwrap returns the wrapped backend.
func (a *Adversary) Unwrap() Backend { return a.inner }

// NewAdversary wraps inner.
func NewAdversary(inner Backend) *Adversary {
	return &Adversary{
		inner:        inner,
		objectCopies: make(map[string][]byte),
	}
}

// Put implements Backend. If DropWrites has been enabled, the write is
// silently discarded — a lying storage provider.
func (a *Adversary) Put(name string, data []byte) error {
	a.mu.Lock()
	drop := a.dropWrites
	a.mu.Unlock()
	if drop {
		return nil
	}
	return a.inner.Put(name, data)
}

// Get implements Backend.
func (a *Adversary) Get(name string) ([]byte, error) { return a.inner.Get(name) }

// Delete implements Backend.
func (a *Adversary) Delete(name string) error { return a.inner.Delete(name) }

// Rename implements Backend.
func (a *Adversary) Rename(oldName, newName string) error { return a.inner.Rename(oldName, newName) }

// Exists implements Backend.
func (a *Adversary) Exists(name string) (bool, error) { return a.inner.Exists(name) }

// List implements Backend.
func (a *Adversary) List() ([]string, error) { return a.inner.List() }

// TotalBytes implements Backend.
func (a *Adversary) TotalBytes() (int64, error) { return a.inner.TotalBytes() }

// Corrupt applies mutate to the stored ciphertext of the named object.
func (a *Adversary) Corrupt(name string, mutate func([]byte) []byte) error {
	data, err := a.inner.Get(name)
	if err != nil {
		return err
	}
	return a.inner.Put(name, mutate(data))
}

// FlipBit flips one bit of the named object — the minimal integrity
// violation.
func (a *Adversary) FlipBit(name string, byteIndex int) error {
	return a.Corrupt(name, func(data []byte) []byte {
		if len(data) == 0 {
			return data
		}
		data[byteIndex%len(data)] ^= 1
		return data
	})
}

// RememberObject records the current version of the named object so it can
// later be rolled back with RollbackObject.
func (a *Adversary) RememberObject(name string) error {
	data, err := a.inner.Get(name)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.objectCopies[name] = data
	return nil
}

// RollbackObject replaces the named object with the version recorded by
// RememberObject — the individual-file rollback attack of paper §V-D.
func (a *Adversary) RollbackObject(name string) error {
	a.mu.Lock()
	data, ok := a.objectCopies[name]
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("store: no remembered copy of %q", name)
	}
	return a.inner.Put(name, data)
}

// SnapshotStore records the full current store state for a later
// whole-store rollback. It requires a *Memory store at the bottom of the
// wrapper chain (tests) and panics otherwise, because a partial snapshot
// would silently weaken adversary tests. Intermediate wrappers (e.g.
// Resilient) are walked through, so the server's wrapped store can still
// be attacked.
func (a *Adversary) SnapshotStore() {
	mem, ok := Innermost(a.inner).(*Memory)
	if !ok {
		panic("store: SnapshotStore requires a Memory backend")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.storeSnapshot = mem.snapshot()
}

// RollbackStore restores the state recorded by SnapshotStore — the
// whole-file-system rollback attack of paper §V-E.
func (a *Adversary) RollbackStore() {
	mem, ok := Innermost(a.inner).(*Memory)
	if !ok {
		panic("store: RollbackStore requires a Memory backend")
	}
	a.mu.Lock()
	snap := a.storeSnapshot
	a.mu.Unlock()
	if snap == nil {
		panic("store: RollbackStore before SnapshotStore")
	}
	mem.restore(snap)
}

// SetDropWrites toggles silent discarding of all subsequent writes.
func (a *Adversary) SetDropWrites(drop bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dropWrites = drop
}
