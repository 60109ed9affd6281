package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"segshare/internal/acl"
	"segshare/internal/fspath"
	"segshare/internal/obs"
)

// The request path used to serialize through one global RWMutex. This
// file replaces it with a three-level lock manager so requests on
// disjoint paths proceed concurrently (paper Tables III–IV assume many
// parallel TLS clients):
//
//	barrier  — a whole-tree RWMutex. Every request holds it shared;
//	           whole-tree operations (backup restoration, directory
//	           moves, first-contact user provisioning) and — when
//	           rollback protection couples every write to the store
//	           root — all content mutations hold it exclusively.
//	group    — one RWMutex over the group store (member lists, group
//	           list). Authorization reads share it; membership and
//	           group mutations exclude each other and all readers.
//	shards   — N RWMutexes; a path hashes to one shard. An operation
//	           locks the shards of every path it touches (the path and
//	           its parent — creates, deletes and moves rewrite the
//	           parent's directory body, and a reader of a directory must
//	           be excluded from concurrent mutations of its entries) in
//	           ascending shard order, so overlapping multi-shard
//	           acquisitions cannot deadlock.
//
// Acquisition order is fixed: barrier, then group, then shards
// ascending. Unlock runs in reverse. Lock-wait time is observed per
// scope under the leak budget (durations only, no request identity).
//
// Why writes escalate to the barrier under rollback protection: every
// mutation then propagates hashes up to the namespace *root* and every
// read validates through ancestors up to the same root (§V-D/§V-E), so
// two writes — or a write and a read — on disjoint paths still share
// the root node. Per-path exclusion would be incorrect; reads still
// scale because they share the barrier.

// defaultLockShards is the server's shard count. 64 keeps the chance of
// two concurrently-hot disjoint paths colliding low (< 2 % at 16 active
// requests against 2×64 slots) at the cost of 64 RWMutexes (~1.5 KiB) of
// enclave memory; it is deliberately far above typical core counts so
// the shard array, not the scheduler, stays out of the way.
const defaultLockShards = 64

// lockScopes is the closed set of acquisition scopes reported to the
// lock-wait histogram; serverObs pre-registers one series per scope.
var lockScopes = []string{"fs_read", "fs_write", "grp_read", "grp_write", "barrier"}

// lockManager implements the scheme above.
type lockManager struct {
	barrier sync.RWMutex
	group   sync.RWMutex
	shards  []sync.RWMutex
	// shardWait accumulates nanoseconds spent blocked per shard. The
	// watchdog's skew probe compares deltas between sweeps: one shard
	// absorbing most of the fleet's wait time means hot paths are
	// colliding on a single shard (or a holder is wedged).
	shardWait []atomic.Int64
	// coupled marks rollback-protection mode: content mutations escalate
	// to the exclusive barrier (see package comment above).
	coupled bool

	obs *serverObs
}

func newLockManager(shards int, coupled bool, obs *serverObs) *lockManager {
	return &lockManager{
		shards:    make([]sync.RWMutex, shards),
		shardWait: make([]atomic.Int64, shards),
		coupled:   coupled,
		obs:       obs,
	}
}

// shardIndex hashes a path's canonical string to a shard.
func (lm *lockManager) shardIndex(p fspath.Path) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(p.String()))
	return int(h.Sum32() % uint32(len(lm.shards)))
}

// shardPlan is the deduplicated, ascending shard indices of one lock
// plan, held by value so that building one allocates nothing. A plan
// covers at most two paths (a request names one; two leaves room for a
// source/destination pair), each with its parent.
type shardPlan struct {
	n  int
	at [4]int
}

// insert adds shard index i, keeping at[:n] ascending and duplicate-free.
func (sp *shardPlan) insert(i int) {
	j := sp.n
	for j > 0 && sp.at[j-1] > i {
		j--
	}
	if j > 0 && sp.at[j-1] == i {
		return
	}
	copy(sp.at[j+1:sp.n+1], sp.at[j:sp.n])
	sp.at[j] = i
	sp.n++
}

// shardSet returns the deduplicated, ascending shard indices of the
// given paths together with each path's parent (the parent's directory
// body and rollback buckets change with the child, and a directory
// reader must exclude entry mutations).
func (lm *lockManager) shardSet(paths ...fspath.Path) (sp shardPlan) {
	for _, p := range paths {
		if p.IsZero() {
			continue
		}
		sp.insert(lm.shardIndex(p))
		if !p.IsRoot() {
			sp.insert(lm.shardIndex(p.Parent()))
		}
	}
	return sp
}

// observeWait records how long an acquisition (all levels together)
// blocked, labeled by scope only, and attributes it to the request's
// stats collector for the wide event.
func (lm *lockManager) observeWait(rs *obs.ReqStats, scope string, start time.Time) {
	d := time.Since(start)
	if lm.obs != nil {
		lm.obs.lockWait(scope, d)
	}
	rs.AddLockWait(d)
}

// lockShard acquires shard i (exclusive or shared) and charges the time
// blocked to the per-shard wait accumulator.
func (lm *lockManager) lockShard(i int, exclusive bool) {
	start := time.Now()
	if exclusive {
		lm.shards[i].Lock()
	} else {
		lm.shards[i].RLock()
	}
	if d := time.Since(start); d > 0 {
		lm.shardWait[i].Add(int64(d))
	}
}

// shardWaits snapshots the cumulative per-shard wait nanoseconds.
func (lm *lockManager) shardWaits() []int64 {
	out := make([]int64, len(lm.shardWait))
	for i := range lm.shardWait {
		out[i] = lm.shardWait[i].Load()
	}
	return out
}

// skewProbe returns a watchdog probe that flags sustained contention
// skew: between two sweeps, one shard absorbed more than threshold of
// new wait time AND more than 4x the mean across shards. Both
// conditions must hold — absolute, so an idle server never trips, and
// relative, so uniformly heavy load (which sharding handles) does not.
func (lm *lockManager) skewProbe(threshold time.Duration) func() error {
	prev := lm.shardWaits()
	return func() error {
		cur := lm.shardWaits()
		var max, sum int64
		hot := -1
		for i := range cur {
			d := cur[i] - prev[i]
			sum += d
			if d > max {
				max, hot = d, i
			}
		}
		prev = cur
		if len(cur) < 2 || max < int64(threshold) {
			return nil
		}
		mean := sum / int64(len(cur))
		if mean > 0 && max > 4*mean {
			return fmt.Errorf("lock shard %d absorbed %v of wait (mean %v across %d shards)",
				hot, time.Duration(max), time.Duration(mean), len(cur))
		}
		return nil
	}
}

// fsRead locks for a read-only file-system operation touching the given
// paths: shared barrier, shared group (authorization reads member and
// group lists), shared shards.
func (lm *lockManager) fsRead(rs *obs.ReqStats, paths ...fspath.Path) (unlock func()) {
	start := time.Now()
	lm.barrier.RLock()
	lm.group.RLock()
	sp := lm.shardSet(paths...)
	for _, i := range sp.at[:sp.n] {
		lm.lockShard(i, false)
	}
	lm.observeWait(rs, "fs_read", start)
	return func() {
		for j := sp.n - 1; j >= 0; j-- {
			lm.shards[sp.at[j]].RUnlock()
		}
		lm.group.RUnlock()
		lm.barrier.RUnlock()
	}
}

// fsWrite locks for a content mutation on the given paths. groupWrite
// additionally takes the group lock exclusively, for operations that may
// create group records while rewriting an ACL (set_p, rFO).
func (lm *lockManager) fsWrite(rs *obs.ReqStats, groupWrite bool, paths ...fspath.Path) (unlock func()) {
	start := time.Now()
	if lm.coupled {
		lm.barrier.Lock()
		lm.observeWait(rs, "fs_write", start)
		return func() { lm.barrier.Unlock() }
	}
	lm.barrier.RLock()
	if groupWrite {
		lm.group.Lock()
	} else {
		lm.group.RLock()
	}
	sp := lm.shardSet(paths...)
	for _, i := range sp.at[:sp.n] {
		lm.lockShard(i, true)
	}
	lm.observeWait(rs, "fs_write", start)
	return func() {
		for j := sp.n - 1; j >= 0; j-- {
			lm.shards[sp.at[j]].Unlock()
		}
		if groupWrite {
			lm.group.Unlock()
		} else {
			lm.group.RUnlock()
		}
		lm.barrier.RUnlock()
	}
}

// groupRead locks for a read-only group-store operation (whoami,
// membership listings).
func (lm *lockManager) groupRead(rs *obs.ReqStats) (unlock func()) {
	start := time.Now()
	lm.barrier.RLock()
	lm.group.RLock()
	lm.observeWait(rs, "grp_read", start)
	return func() {
		lm.group.RUnlock()
		lm.barrier.RUnlock()
	}
}

// groupWrite locks for a group-store mutation (add_u, rmv_u, rGO,
// group deletion). Content shards are untouched: these operations only
// rewrite member-list and group-list files.
func (lm *lockManager) groupWrite(rs *obs.ReqStats) (unlock func()) {
	start := time.Now()
	lm.barrier.RLock()
	lm.group.Lock()
	lm.observeWait(rs, "grp_write", start)
	return func() {
		lm.group.Unlock()
		lm.barrier.RUnlock()
	}
}

// wholeTree locks the barrier exclusively: backup restoration, directory
// moves (the subtree's shard set is unbounded), and first-contact user
// provisioning (which may bootstrap the root ACL in the content store).
func (lm *lockManager) wholeTree(rs *obs.ReqStats) (unlock func()) {
	start := time.Now()
	lm.barrier.Lock()
	lm.observeWait(rs, "barrier", start)
	return func() { lm.barrier.Unlock() }
}

// --- server-level lock plans -----------------------------------------

// provisionUser makes sure u's member list and default group exist
// before the caller takes its operation locks, so the operation itself
// only ever *reads* identity relations. First contact is a whole-tree
// event: it writes the group store and, for the FSO, the root ACL in
// the content store.
func (s *Server) provisionUser(rs *obs.ReqStats, users ...acl.UserID) error {
	ac := s.ac.withRequest(rs, nil)
	for _, u := range users {
		unlock := s.locks.groupRead(rs)
		_, err := ac.fm.readMemberList(u)
		unlock()
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrNotFound) {
			return err
		}
		unlock = s.locks.wholeTree(rs)
		err = ac.fm.mutate("provision", func() error {
			_, perr := ac.ensureUser(u)
			return perr
		})
		unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// moveLocks returns the unlock for a MOVE: file moves take the ordered
// multi-shard write plan over source and destination; directory moves
// recurse over an unbounded subtree and escalate to the barrier.
func (lm *lockManager) moveLocks(rs *obs.ReqStats, src, dst fspath.Path) (unlock func()) {
	if src.IsDir() || dst.IsDir() {
		return lm.wholeTree(rs)
	}
	return lm.fsWrite(rs, false, src, dst)
}
