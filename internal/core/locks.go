package core

import (
	"errors"
	"sync"
	"time"

	"segshare/internal/acl"
	"segshare/internal/obs"
)

// Two RWMutexes order every request: barrier (the whole tree) and group
// (member lists and the group list), acquired in that order and released
// in reverse. Each request class in request.go takes exactly one of
// three plans:
//
//	read        barrier shared, group shared: content reads, listings,
//	            whoami.
//	groupWrite  barrier shared, group exclusive: add_u, rmv_u, rGO,
//	            group deletion.
//	exclusive   barrier exclusive: every content-store mutation (file and
//	            directory writes, moves, ACL writes), backup restoration
//	            and first-contact provisioning.
//
// Every content mutation excludes everything because the journal
// (txn.go) relies on at most one mutation in flight: intents apply in
// commit order, and a recovery pass inside mutate replays the whole
// journal. Under rollback protection a write also rehashes the path up
// to the namespace root every read validates against (§V-D/§V-E). Reads
// still scale, because they share both locks. Letting readers or writers
// overlap a writer needs path-exclusive locks under a new journal
// protocol (ROADMAP items 1(a) and 16).

// The closed set of scopes reported to the lock-wait histogram (durations
// only, no request identity); serverObs pre-registers one series each.
const (
	scopeFSRead     = "fs_read"
	scopeFSWrite    = "fs_write"
	scopeGroupRead  = "grp_read"
	scopeGroupWrite = "grp_write"
	scopeBarrier    = "barrier"
)

var lockScopes = []string{scopeFSRead, scopeFSWrite, scopeGroupRead, scopeGroupWrite, scopeBarrier}

// lockManager implements the scheme above.
type lockManager struct {
	barrier sync.RWMutex
	group   sync.RWMutex

	// Each plan's unlock, bound once so that releasing allocates nothing.
	unlockRead, unlockGroupWrite, unlockExclusive func()

	obs *serverObs
}

func newLockManager(obs *serverObs) *lockManager {
	lm := &lockManager{obs: obs}
	lm.unlockRead = func() {
		lm.group.RUnlock()
		lm.barrier.RUnlock()
	}
	lm.unlockGroupWrite = func() {
		lm.group.Unlock()
		lm.barrier.RUnlock()
	}
	lm.unlockExclusive = lm.barrier.Unlock
	return lm
}

// observeWait records how long an acquisition blocked, labeled by scope
// only, and attributes it to the request's stats collector for the wide
// event.
func (lm *lockManager) observeWait(rs *obs.ReqStats, scope string, start time.Time) {
	d := time.Since(start)
	if lm.obs != nil {
		lm.obs.lockWait(scope, d)
	}
	rs.AddLockWait(d)
}

// read locks for a read-only operation: the barrier and the group store
// shared (authorization reads member and group lists).
func (lm *lockManager) read(rs *obs.ReqStats, scope string) (unlock func()) {
	start := time.Now()
	lm.barrier.RLock()
	lm.group.RLock()
	lm.observeWait(rs, scope, start)
	return lm.unlockRead
}

// groupWrite locks for a group-store mutation. It rewrites only member
// lists and the group list, which every reader reads under the shared
// group lock, so the barrier stays shared.
func (lm *lockManager) groupWrite(rs *obs.ReqStats) (unlock func()) {
	start := time.Now()
	lm.barrier.RLock()
	lm.group.Lock()
	lm.observeWait(rs, scopeGroupWrite, start)
	return lm.unlockGroupWrite
}

// exclusive locks the whole tree: no other request runs until unlock.
func (lm *lockManager) exclusive(rs *obs.ReqStats, scope string) (unlock func()) {
	start := time.Now()
	lm.barrier.Lock()
	lm.observeWait(rs, scope, start)
	return lm.unlockExclusive
}

// provisionUser makes sure u's member list and default group exist
// before the caller takes its operation locks, so the operation itself
// only ever *reads* identity relations. First contact is a whole-tree
// event: it writes the group store and, for the FSO, the root ACL in
// the content store.
func (s *Server) provisionUser(rs *obs.ReqStats, users ...acl.UserID) error {
	ac := s.ac.withRequest(rs, nil)
	for _, u := range users {
		unlock := s.locks.read(rs, scopeGroupRead)
		_, err := ac.fm.readMemberList(u)
		unlock()
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrNotFound) {
			return err
		}
		unlock = s.locks.exclusive(rs, scopeBarrier)
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
