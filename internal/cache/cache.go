// Package cache is a size-bounded, generation-tagged in-enclave cache
// with CLOCK (second-chance) eviction. SeGShare uses it to keep
// *decrypted and validated* relation objects — the group list, member
// lists, ACLs, directory bodies — and derived per-file keys inside the
// enclave, so repeat authorization checks do not re-fetch and re-decrypt
// the same small files from untrusted storage (cf. IBBE-SGX, which makes
// the same observation for SGX group access control).
//
// # Safety model
//
// Enclave memory is trusted: a value that was loaded, decrypted, and
// rollback-validated once may be served again without re-validation
// until a mutation invalidates it. Two mechanisms keep stale state out:
//
//  1. Write-through invalidation. Every mutation path deletes the keys
//     it rewrote *after* the backing store write completes, so the next
//     read misses and reloads the new state.
//  2. Generation tags. Loaders capture Gen() before touching the backing
//     store and pass it to Put; Put rejects the insert if any
//     invalidation happened in between. A slow reader that decrypted a
//     pre-mutation value can therefore never resurrect it into the
//     cache after the mutation's invalidation ran.
//
// Values are shared between callers and must be treated as immutable: a
// caller that wants to edit a loaded object clones it first.
//
// The cache is safe for concurrent use. Get takes only a read lock —
// the CLOCK reference bit is atomic — so concurrent readers never
// serialize against each other on the hot hit path.
package cache

import (
	"sync"
	"sync/atomic"
)

// entry is one cached value with its CLOCK state.
type entry[V any] struct {
	key  string
	val  V
	cost int64
	ref  atomic.Bool // CLOCK second-chance bit, set on Get
	dead bool        // invalidated or overwritten; value cleared, slot awaiting compaction
}

// Hooks are optional event callbacks, e.g. to feed metric counters.
// Any field may be nil. Hit and Miss run outside the cache's locks;
// Evict and Size run under the write lock and must be cheap and must
// not call back into the cache.
type Hooks struct {
	Hit   func()
	Miss  func()
	Evict func()
	// Size receives the occupancy after every mutating call.
	Size func(entries int, cost int64)
}

// Cache is a size-bounded map from string keys to values of type V.
// The zero value is not usable; call New. A nil *Cache is valid and
// behaves as an always-miss cache, so callers can disable caching
// without branching.
type Cache[V any] struct {
	mu       sync.RWMutex
	capacity int64
	used     int64
	entries  map[string]*entry[V]
	ring     []*entry[V] // CLOCK ring; may contain dead entries
	dead     int         // dead entries still in ring
	hand     int
	gen      atomic.Uint64
	hooks    Hooks

	hits, misses, evictions atomic.Uint64
}

// New returns a cache bounded to capacity cost units (typically bytes of
// decoded value). A capacity <= 0 returns nil: the always-miss cache.
// At most one Hooks value may be passed.
func New[V any](capacity int64, hooks ...Hooks) *Cache[V] {
	if capacity <= 0 {
		return nil
	}
	c := &Cache[V]{
		capacity: capacity,
		entries:  make(map[string]*entry[V]),
	}
	if len(hooks) > 0 {
		c.hooks = hooks[0]
	}
	return c
}

// Gen returns the current generation. Capture it *before* reading the
// backing store and pass it to Put; see the package doc.
func (c *Cache[V]) Gen() uint64 {
	if c == nil {
		return 0
	}
	return c.gen.Load()
}

// Get returns the cached value for key. The returned value is shared;
// a caller that edits it must clone first.
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.RLock()
	e, ok := c.entries[key]
	var val V
	if ok {
		e.ref.Store(true)
		val = e.val // under the lock: removeEntry clears it
	}
	c.mu.RUnlock()
	if !ok {
		c.misses.Add(1)
		if c.hooks.Miss != nil {
			c.hooks.Miss()
		}
		return zero, false
	}
	c.hits.Add(1)
	if c.hooks.Hit != nil {
		c.hooks.Hit()
	}
	return val, true
}

// Put inserts key with the given cost, evicting CLOCK victims as needed.
// The insert is rejected (returning false) when gen is stale — an
// invalidation ran after the caller captured it — or when a single value
// exceeds the whole capacity.
func (c *Cache[V]) Put(key string, val V, cost int64, gen uint64) bool {
	if c == nil || cost > c.capacity {
		return false
	}
	if cost < 1 {
		cost = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen.Load() {
		return false
	}
	if old, ok := c.entries[key]; ok {
		c.removeEntry(old)
	}
	for c.used+cost > c.capacity {
		if !c.evictOne() {
			return false // no live entry left to evict
		}
	}
	e := &entry[V]{key: key, val: val, cost: cost}
	c.entries[key] = e
	c.ring = append(c.ring, e)
	c.used += cost
	c.compact()
	c.notifySize()
	return true
}

// Invalidate removes key and bumps the generation so in-flight loads of
// the old value cannot be inserted afterwards. It must be called after
// the backing-store mutation completed (invalidate-last ordering).
func (c *Cache[V]) Invalidate(key string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.removeEntry(e)
		c.compact()
	}
	c.gen.Add(1)
	c.notifySize()
	c.mu.Unlock()
}

// Flush drops every entry and bumps the generation. Whole-tree
// operations (backup restoration, group deletion sweeps) use it instead
// of enumerating keys.
func (c *Cache[V]) Flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.entries = make(map[string]*entry[V])
	clear(c.ring)
	c.ring = c.ring[:0]
	c.dead = 0
	c.hand = 0
	c.used = 0
	c.gen.Add(1)
	c.notifySize()
	c.mu.Unlock()
}

// notifySize reports occupancy to the Size hook. Caller holds mu.
func (c *Cache[V]) notifySize() {
	if c.hooks.Size != nil {
		c.hooks.Size(len(c.entries), c.used)
	}
}

// removeEntry unlinks e from the map and accounting and drops its value;
// the ring slot stays until the next compaction. Caller holds mu.
func (c *Cache[V]) removeEntry(e *entry[V]) {
	delete(c.entries, e.key)
	if !e.dead {
		var zero V
		e.dead, e.val = true, zero
		c.used -= e.cost
		c.dead++
	}
}

// compactSlack is how many dead slots beyond the live count the ring
// tolerates before compacting, so a small cache does not rebuild its
// ring on every invalidation.
const compactSlack = 16

// compact drops the ring's dead slots in one pass once they outnumber
// the live entries by more than compactSlack. The ring therefore stays
// within twice the live count plus the slack however long the cache
// churns below its capacity, and each dead slot costs amortized O(1) to
// reclaim. The hand keeps pointing at the same live entry. Caller holds
// mu.
func (c *Cache[V]) compact() {
	if c.dead <= len(c.entries)+compactSlack {
		return
	}
	n, hand := 0, 0
	for i, e := range c.ring {
		if e.dead {
			continue
		}
		if i < c.hand {
			hand++
		}
		c.ring[n] = e
		n++
	}
	clear(c.ring[n:])
	c.ring = c.ring[:n]
	c.hand = hand
	c.dead = 0
}

// evictOne advances the CLOCK hand: dead slots are skipped, referenced
// entries get a second chance, and the first unreferenced live entry is
// evicted. Caller holds mu. Returns false when no live entry is left.
func (c *Cache[V]) evictOne() bool {
	for sweep := 0; len(c.entries) > 0; {
		if c.hand >= len(c.ring) {
			c.hand = 0
			sweep++
			if sweep > 2 { // all live entries referenced twice over: give up
				return false
			}
		}
		e := c.ring[c.hand]
		c.hand++
		if e.dead || e.ref.Swap(false) {
			continue
		}
		c.removeEntry(e)
		c.evictions.Add(1)
		if c.hooks.Evict != nil {
			c.hooks.Evict()
		}
		return true
	}
	return false
}

// Stats is a point-in-time snapshot of the cache's counters and size.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	Cost      int64
	Capacity  int64
}

// HitRate returns Hits/(Hits+Misses) in [0,1], or 0 with no lookups.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns the current counters and occupancy.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   len(c.entries),
		Cost:      c.used,
		Capacity:  c.capacity,
	}
}
