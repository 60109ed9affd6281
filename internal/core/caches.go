package core

import (
	"strings"

	"segshare/internal/acl"
	"segshare/internal/cache"
	"segshare/internal/pfs"
	"segshare/internal/rollback"
)

// The in-enclave relation caches (IBBE-SGX makes the same observation:
// caching trusted group state inside the enclave is what makes SGX
// access control practical at scale). Every authorization check walks
// the same few small relation files — the group list, the caller's
// member list, the target's ACL and possibly its parent's — and each
// walk previously cost one untrusted-store fetch, one HKDF derivation,
// one AES-GCM open, and (with rollback protection) a validation pass
// per file. The caches keep the *decoded, validated* objects in enclave
// memory instead; see package cache for the generation-tag safety model.
//
// Invalidation is centralized in fileManager.putBlob/deleteBlob — the
// single chokepoints every mutation (ACL updates, membership changes,
// moves, removals, rollback-tree propagation) funnels through — so no
// write path can miss an invalidation. Values are invalidate-only,
// never updated in place: the next read goes back to the untrusted
// store and re-validates, which keeps rollback detection for freshly
// written files exactly as strong as without the cache.
//
// Hits are shared, writers clone: readACL, readMemberList, readGroupList
// and readDir hand every caller the one cached object, so a hit costs a
// map lookup whatever the object's size. Nobody may modify what those
// accessors returned; the operations that edit a relation Clone it
// first, at the writer. An edit in place would show other requests a
// grant before — or without — its intent committing.

// defaultCacheBytes bounds the relation caches to a deliberately small
// slice of the EPC budget (the paper's enclave keeps ~dozens of MiB of
// heap); relation files are tiny, so 8 MiB holds tens of thousands.
const defaultCacheBytes = 8 << 20

// derived is what every fetch or seal of a logical file needs and SK_r
// and the name fully determine: the opened pfs key schedule of the
// per-file key, and the file ID that binds the chunks to the name.
// Caching the opened AEAD is the same trust statement as caching the
// 16-byte file key it expands: both live only in enclave memory, and
// either one opens the file.
type derived struct {
	keys *pfs.Keys
	id   []byte // namespace kind ‖ ":" ‖ name — the bytes of the cache key
}

// derivedOverhead is what a derived-cache entry retains besides its
// pfs.Keys and the two copies of the file ID (cache key, id), at its
// worst, just after the containers grew: the derived struct (32), the
// cache's entry (48), a CLOCK ring slot in a slice that doubled (16) and
// a 25-byte map slot in a map that doubled at 7/8 full (64).
// TestDerivedCacheChargesRetainedSize measures it.
const derivedOverhead = 32 + 48 + 16 + 64

// derivedCost is the accounted size of one derived-cache entry: about
// 1 KiB, so the derived share of defaultCacheBytes holds ~800 hot names.
func derivedCost(id string) int64 {
	return pfs.KeysSize + derivedOverhead + 2*int64(len(id))
}

// The verified-main cache maps a rollback-tree node's treeID to the main
// hash the enclave last proved current, so reading a cached node needs
// no ancestor walk (validateNode). Entries come only from a walk that
// reached the root guard or a cached ancestor, or from the enclave's own
// applied write (publishVerified); writes invalidate them here, like the
// relation caches; a restart starts empty and a restore flushes them.

// verifiedOverhead is what a verified-main entry retains besides the
// bytes of its key, at its worst, just after the containers grew: the
// cache's entry with the 32-byte digest inline (64), a CLOCK ring slot
// in a slice that doubled (16) and a map slot in a map that doubled at
// 7/8 full (64). TestVerifiedCacheChargesRetainedSize measures it.
const verifiedOverhead = 64 + 16 + 64

// verifiedCost is the accounted size of one verified-main entry: about
// 170 B, so the verified share of defaultCacheBytes holds ~5 000 nodes.
func verifiedCost(id string) int64 { return verifiedOverhead + int64(len(id)) }

// relCaches bundles one cache per relation kind plus the derived
// per-file key schedules and the verified mains. Individual caches may
// be nil (always-miss); the struct itself is never nil on a fileManager.
type relCaches struct {
	acls    *cache.Cache[*acl.ACL]
	dirs    *cache.Cache[*dirBody]
	members *cache.Cache[*acl.MemberList]
	groups  *cache.Cache[*acl.GroupList]
	derived *cache.Cache[*derived]
	// verified is nil unless rollback protection is on.
	verified *cache.Cache[rollback.Digest]
}

// newRelCaches splits a total byte budget across the relation kinds.
// With rollback protection the verified mains take a tenth of it, half
// from the ACL share and half from the directory share. A non-positive
// budget disables caching entirely.
func newRelCaches(totalBytes int64, rollbackOn bool, o *serverObs) *relCaches {
	if totalBytes <= 0 {
		return &relCaches{}
	}
	frac := func(pct int64) int64 { return totalBytes * pct / 100 }
	aclPct, dirPct := int64(35), int64(30)
	rc := &relCaches{}
	if rollbackOn {
		aclPct, dirPct = 30, 25
		rc.verified = cache.New[rollback.Digest](frac(10), o.cacheHooks("verified"))
	}
	rc.acls = cache.New[*acl.ACL](frac(aclPct), o.cacheHooks("acls"))
	rc.dirs = cache.New[*dirBody](frac(dirPct), o.cacheHooks("dirs"))
	rc.members = cache.New[*acl.MemberList](frac(20), o.cacheHooks("memberships"))
	rc.groups = cache.New[*acl.GroupList](frac(5), o.cacheHooks("grouplist"))
	rc.derived = cache.New[*derived](frac(10), o.cacheHooks("derived"))
	return rc
}

// flushAll empties every cache, e.g. after a backup restoration rebinds
// the root state to whatever the operator restored.
func (rc *relCaches) flushAll() {
	rc.acls.Flush()
	rc.dirs.Flush()
	rc.members.Flush()
	rc.groups.Flush()
	rc.verified.Flush()
	// Derived entries are a pure function of SK_r and the name — no store
	// content enters them, so a restored state cannot make one stale —
	// and they stay.
}

// invalidateRel drops the cached decodings and the verified main of a
// logical name after its blob in the untrusted store changed. Called
// with the store write completed (invalidate-last; see package cache),
// and when an operation stages the write.
func (fm *fileManager) invalidateRel(ns *namespace, name string) {
	if fm.caches.verified != nil {
		fm.caches.verified.Invalidate(treeID(ns, name))
	}
	if ns == fm.group {
		switch {
		case name == groupListName:
			fm.caches.groups.Invalidate(groupListName)
		case strings.HasPrefix(name, memberNamePfx):
			fm.caches.members.Invalidate(name)
		}
		return
	}
	switch {
	case strings.HasSuffix(name, ".acl"):
		fm.caches.acls.Invalidate(name)
	case ns.isInner(name):
		fm.caches.dirs.Invalidate(name)
	}
}

// CacheStats reports each relation cache's counters, keyed by the same
// kind names used for the cache metrics.
func (s *Server) CacheStats() map[string]cache.Stats {
	rc := s.fm.caches
	return map[string]cache.Stats{
		"acls":        rc.acls.Stats(),
		"dirs":        rc.dirs.Stats(),
		"memberships": rc.members.Stats(),
		"grouplist":   rc.groups.Stats(),
		"derived":     rc.derived.Stats(),
		"verified":    rc.verified.Stats(),
	}
}
