// Package store provides SeGShare's untrusted storage: the raw byte
// stores the untrusted file manager writes encrypted objects into (paper
// §IV-B). SeGShare keeps three separate stores — content store, group
// store, and deduplication store — each of which is one Backend instance
// here.
//
// Because this layer is *untrusted* in the threat model, the package also
// ships adversarial wrappers used by tests and the security evaluation: a
// tampering/rollback adversary and a fault injector.
package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Store errors.
var (
	// ErrNotExist is returned when the named object is absent.
	ErrNotExist = errors.New("store: object does not exist")
	// ErrExist is returned by Rename when the target name exists.
	ErrExist = errors.New("store: object already exists")
)

// Backend is untrusted flat object storage keyed by opaque names. All
// values crossing this interface are ciphertext (or adversary-visible by
// design); implementations are free to inspect or mangle them — the
// trusted side must detect it.
//
// Implementations must be safe for concurrent use.
type Backend interface {
	// Put creates or replaces the named object.
	Put(name string, data []byte) error
	// Get returns the named object's content. The returned slice is owned
	// by the caller.
	Get(name string) ([]byte, error)
	// Delete removes the named object. Deleting an absent object returns
	// ErrNotExist.
	Delete(name string) error
	// Rename atomically renames an object. It returns ErrNotExist if
	// oldName is absent and ErrExist if newName is present — except when
	// both names hold identical payloads, which is a crash- or
	// retry-interrupted rename that every implementation must complete
	// idempotently (remove oldName, report success). The conformance
	// suite pins this table for all backends.
	Rename(oldName, newName string) error
	// Exists reports whether the named object is present.
	Exists(name string) (bool, error)
	// List returns all object names in lexicographic order.
	List() ([]string, error)
	// TotalBytes returns the total stored payload size. The storage-
	// overhead experiment (paper §VII-B) reads it.
	TotalBytes() (int64, error)
}

// ContextGetter is implemented by backends whose Get can stop waiting
// when the caller's context ends (Resilient). GetContext with a nil context behaves exactly like Get. Callers
// type-assert: plain backends without the method are simply read
// uninterruptibly.
type ContextGetter interface {
	GetContext(ctx context.Context, name string) ([]byte, error)
}

// Unwrapper is implemented by every Backend wrapper (Resilient, Faulty,
// Adversary), exposing the wrapped backend so that wrappers
// compose in any order and capability probes (like the Adversary's
// whole-store snapshot, which needs the underlying Memory store) can walk
// the chain.
type Unwrapper interface {
	Unwrap() Backend
}

// Innermost walks the Unwrap chain to the underlying non-wrapper Backend.
func Innermost(b Backend) Backend {
	for {
		u, ok := b.(Unwrapper)
		if !ok {
			return b
		}
		b = u.Unwrap()
	}
}

// Memory is an in-memory Backend.
type Memory struct {
	mu      sync.RWMutex
	objects map[string][]byte
}

var (
	_ Backend     = (*Memory)(nil)
	_ nonBlocking = (*Memory)(nil)
)

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{objects: make(map[string][]byte)}
}

// nonBlocking implements nonBlocking: every call is in-memory work under
// m.mu (a map access plus a copy on the data path), with no I/O to wait on.
func (*Memory) nonBlocking() {}

// Put implements Backend.
func (m *Memory) Put(name string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.objects[name] = cp
	return nil
}

// Get implements Backend.
func (m *Memory) Get(name string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.objects[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Delete implements Backend.
func (m *Memory) Delete(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.objects[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	delete(m.objects, name)
	return nil
}

// Rename implements Backend with the same collision semantics as Disk
// (the reference implementation): the target name is checked first, and
// a collision where both names hold identical payloads is an
// interrupted rename that is completed idempotently — journal
// roll-forward replays the same Rename and must succeed on every
// backend.
func (m *Memory) Rename(oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.objects[oldName]
	if existing, collides := m.objects[newName]; collides {
		if ok && bytes.Equal(data, existing) {
			delete(m.objects, oldName)
			return nil
		}
		return fmt.Errorf("%w: %q", ErrExist, newName)
	}
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, oldName)
	}
	m.objects[newName] = data
	delete(m.objects, oldName)
	return nil
}

// Exists implements Backend.
func (m *Memory) Exists(name string) (bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.objects[name]
	return ok, nil
}

// List implements Backend.
func (m *Memory) List() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.objects))
	for name := range m.objects {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// TotalBytes implements Backend.
func (m *Memory) TotalBytes() (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var total int64
	for _, data := range m.objects {
		total += int64(len(data))
	}
	return total, nil
}

// snapshot returns a deep copy of the current object map. Used by the
// adversary wrapper to mount whole-store rollback attacks.
func (m *Memory) snapshot() map[string][]byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	cp := make(map[string][]byte, len(m.objects))
	for name, data := range m.objects {
		d := make([]byte, len(data))
		copy(d, data)
		cp[name] = d
	}
	return cp
}

// restore replaces the object map with the given snapshot.
func (m *Memory) restore(snap map[string][]byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.objects = make(map[string][]byte, len(snap))
	for name, data := range snap {
		d := make([]byte, len(data))
		copy(d, data)
		m.objects[name] = d
	}
}
