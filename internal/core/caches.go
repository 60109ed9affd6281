package core

import (
	"errors"
	"fmt"
	"strings"

	"segshare/internal/cache"
	"segshare/internal/pfs"
	"segshare/internal/rollback"
)

// The in-enclave relation cache (IBBE-SGX makes the same observation:
// caching trusted group state inside the enclave is what makes SGX
// access control practical at scale). Every authorization check walks
// the same few small relation files — the group list, the caller's
// member list, the target's ACL and possibly its parent's — and each
// walk previously cost one untrusted-store fetch, one HKDF derivation,
// one AES-GCM open, and (with rollback protection) a validation pass
// per file. The cache keeps the *decoded, validated* objects in enclave
// memory instead; see package cache for the generation-tag safety model.
//
// One cache holds every kind of entry under one byte budget and one
// CLOCK, each charged by the same rule (charge): the decoded relations
// (keyed by their logical name — content names start with '/', group
// names are member:… or grouplist), the derived per-file keys (keyed by
// kind:name), the dedup objects' opened keys (keyed by dedupKeyPfx ‖
// hName) and, with rollback protection, the verified mains (keyed by
// verifiedPfx ‖ kind:name). Whichever kind the workload touches most
// gets the room.
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

// defaultCacheBytes bounds the relation cache to a deliberately small
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

// entryOverhead is what any cache entry retains besides its key and
// value bytes, at its worst, just after the containers grew: the cache's
// entry (48), a CLOCK ring slot in a slice that doubled (16), a map slot
// in a map that doubled at 7/8 full (64) and the derived struct (32),
// the largest fixed part of a value. TestDerivedCacheChargesRetainedSize
// and TestVerifiedCacheChargesRetainedSize measure it.
const entryOverhead = 48 + 16 + 64 + 32

// charge is the one accounting rule of the cache: the shared per-entry
// overhead plus the key and value bytes. A relation's value bytes are
// its encoded body, a derived entry's are pfs.KeysSize and its file ID,
// a dedup object key's pfs.KeysSize, a verified main's its 32-byte
// digest. A derived entry comes to about 1 KiB, so the default budget
// holds some 8 000 names' keys.
func charge(key string, valueBytes int) int64 {
	return entryOverhead + int64(len(key)) + int64(valueBytes)
}

// verifiedPfx marks the key of a verified main. A node's treeID is also
// the key of its derived entry, and both strings are on-disk bytes (the
// pfs file ID and the rollback hash input), so the verified key alone
// carries the prefix.
const verifiedPfx = "#"

// dedupKeyPfx marks the key of a dedup object's opened keys. No
// relation, derived or verified key starts with it.
const dedupKeyPfx = "@"

// dedupKeys keeps the dedup store's opened object keys in the one cache.
// An address's keys are a pure function of SK_r and the address, so,
// like derived entries, they go in under the current generation and are
// never invalidated.
type dedupKeys struct{ c *cache.Cache[any] }

func (d dedupKeys) Keys(hName string) (*pfs.Keys, bool) {
	v, ok := d.c.Get(dedupKeyPfx + hName)
	if !ok {
		return nil, false
	}
	return v.(*pfs.Keys), true
}

func (d dedupKeys) PutKeys(hName string, keys *pfs.Keys) {
	key := dedupKeyPfx + hName
	d.c.Put(key, keys, charge(key, pfs.KeysSize), d.c.Gen())
}

// readRel is the one read-through loader of the relation cache. A hit
// hands back the shared decoded object. A miss fetches, validates and
// decodes the named file, and caches it while the view has staged
// nothing, under the generation captured before the fetch. absent, when
// set, is what a missing file reads as (the group list before any group
// exists).
func readRel[T any](fm *fileManager, ns *namespace, name string, decode func([]byte) (T, error), absent func() T) (T, error) {
	if v, ok := fm.cache.Get(name); ok {
		fm.rs.AddCacheHit()
		return v.(T), nil
	}
	fm.rs.AddCacheMiss()
	gen := fm.cache.Gen()
	var zero T
	hdr, body, err := fm.getBlob(ns, name)
	if absent != nil && errors.Is(err, ErrNotFound) {
		v := absent()
		fm.fillCache(name, v, 0, gen)
		return v, nil
	}
	if err != nil {
		return zero, err
	}
	if err := fm.validateNode(ns, name, hdr, body); err != nil {
		return zero, err
	}
	v, err := decode(body)
	if err != nil {
		return zero, fmt.Errorf("%w: %s: %v", ErrIntegrity, name, err)
	}
	fm.fillCache(name, v, len(body), gen)
	return v, nil
}

// fillCache inserts what this view read from the store, unless it has
// staged a write: until then it sees exactly the committed state a
// read-only request would, and afterwards it may see its own staged
// writes, which the store does not hold yet.
func (fm *fileManager) fillCache(key string, v any, valueBytes int, gen uint64) {
	if fm.tx == nil || fm.tx.empty() {
		fm.cache.Put(key, v, charge(key, valueBytes), gen)
	}
}

// verified returns the main hash the enclave last proved current for
// the tree node id.
func (fm *fileManager) verified(id string) (rollback.Digest, bool) {
	v, ok := fm.cache.Get(verifiedPfx + id)
	if !ok {
		return rollback.Digest{}, false
	}
	return v.(rollback.Digest), true
}

// invalidateRel drops the cached decoding and the verified main of a
// logical name after its blob in the untrusted store changed. Called
// with the store write completed (invalidate-last; see package cache),
// and when an operation stages the write.
func (fm *fileManager) invalidateRel(ns *namespace, name string) {
	if fm.rollbackOn {
		fm.cache.Invalidate(verifiedPfx + treeID(ns, name))
	}
	relation := strings.HasSuffix(name, ".acl") || ns.isInner(name)
	if ns == fm.group {
		relation = name == groupListName || strings.HasPrefix(name, memberNamePfx)
	}
	if relation {
		fm.cache.Invalidate(name)
	}
}

// CacheStats reports the relation cache's counters and occupancy.
func (s *Server) CacheStats() cache.Stats {
	return s.fm.cache.Stats()
}
