package core

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"segshare/internal/acl"
	"segshare/internal/dedup"
	"segshare/internal/journal"
	"segshare/internal/obs"
	"segshare/internal/pae"
	"segshare/internal/pfs"
	"segshare/internal/rollback"
	"segshare/internal/store"
)

// Reserved storage names for enclave metadata that lives outside the
// file-system tree (sealed blobs and public certificates).
const (
	metaRootKey    = "!meta:rootkey"
	metaServerCert = "!meta:servercert"
	metaServerKey  = "!meta:serverkey"
)

// Group-store logical names.
const (
	groupRootName  = "groupsroot"
	groupListName  = "grouplist"
	memberNamePfx  = "member:"
	contentRootKey = "content"
	groupRootKey   = "group"
)

// namespace describes one store's logical file tree: the content store's
// directory hierarchy or the group store's flat tree (paper §IV-B: "the
// files in the group store are stored flat and a root directory file
// stores a list of all contained files").
type namespace struct {
	kind     string
	backend  store.Backend
	guard    rollback.RootGuard
	rootName string
	parentOf func(name string) string
	isInner  func(name string) bool
}

// fileManager is the trusted file manager (paper §IV-B): it owns the root
// key SK_r, derives a unique file key per file, encrypts/decrypts every
// stored object, maintains directory bodies, deduplication indirections,
// and the rollback-protection hash tree. The untrusted file manager is
// the store.Backend implementations it calls into.
//
// One fileManager value is not safe for concurrent mutation. The server
// never shares one between requests: each request runs on its own shallow
// view (withRequest) carrying that request's staging state, stats and
// context, and the lock manager serializes the mutations themselves.
type fileManager struct {
	rootKey []byte
	hideKey []byte
	hasher  *rollback.Hasher

	content *namespace
	group   *namespace
	dedup   *dedup.Store

	hidePaths  bool
	rollbackOn bool
	validate   bool

	// caches holds decoded, validated relation objects and derived file
	// keys in enclave memory (see caches.go); never nil, individual
	// caches may be (always-miss).
	caches *relCaches

	// journal is the write-ahead intent journal (see txn.go); nil
	// disables crash-consistent mutations (writes apply directly).
	journal *journal.Journal
	// tx is the operation in flight on this view (nil on the base value
	// between operations), so a request's staging state is never visible
	// through another request's view.
	tx *opCtx
	// shared holds mutable state that must be visible across views.
	shared *fmShared

	// rs is the per-request stats collector carried by a view (see
	// withStats); nil on the base fileManager, and every ReqStats method
	// is nil-safe, so non-request paths pay one predicted branch.
	rs *obs.ReqStats

	// ctx is the request context carried by a view (see withRequest);
	// nil on the base fileManager and on non-request paths (recovery,
	// provisioning), which are never cancellable. Read paths observe it
	// between store round-trips and crypto chunks; mutations observe it
	// only before the journal intent commits (txn.go).
	ctx context.Context

	// cryptoWorkers bounds the goroutines of the chunk-crypto kernel on
	// the content data path (DESIGN §14); 1 means inline. Resolved in
	// NewServer, never zero.
	cryptoWorkers int

	obs *serverObs
}

// fmShared is the cross-view mutable state of a fileManager. Views made
// by withStats are shallow copies; anything a view writes that later
// views must see lives here.
type fmShared struct {
	// journalDirty forces a recovery pass before the next mutation: a
	// committed intent failed mid-apply or could not be marked applied.
	journalDirty atomic.Bool
	// recovery publishes journal-recovery progress for /readyz and the
	// watchdog; may be nil.
	recovery *RecoveryState
	// reads coalesces concurrent content reads of the same path so a hot
	// object is decrypted once per flight (see coalesce.go).
	reads flightGroup
	// degraded gates mutations while a store circuit breaker is open:
	// non-nil only when resilience is configured, it returns an
	// ErrDegraded-wrapped error to reject the mutation before any trusted
	// state changes (see txn.go mutate).
	degraded func() error
}

// withStats returns a shallow view of fm that attributes store, cache,
// journal, and audit timings to rs. A nil rs returns fm unchanged. The
// view shares every backing object (caches, journal, namespaces,
// shared state) but carries its own tx slot.
func (fm *fileManager) withStats(rs *obs.ReqStats) *fileManager {
	if rs == nil {
		return fm
	}
	v := *fm
	v.tx = nil
	v.rs = rs
	return &v
}

// withRequest returns a shallow view of fm bound to one request: its
// stats collector (may be nil) and its cancellation context. Like
// withStats the view shares every backing object but carries its own tx
// slot, so one request's staging state and cancellation never leak into
// another's.
func (fm *fileManager) withRequest(rs *obs.ReqStats, ctx context.Context) *fileManager {
	if rs == nil && ctx == nil {
		return fm
	}
	v := *fm
	v.tx = nil
	v.rs = rs
	v.ctx = ctx
	return &v
}

// ctxErr reports the view's request cancellation, mapped to ErrCanceled
// so the handler can distinguish "client left" (499) from server faults.
// Views without a context never cancel.
func (fm *fileManager) ctxErr() error {
	if fm.ctx == nil {
		return nil
	}
	if err := fm.ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, context.Cause(fm.ctx))
	}
	return nil
}

type fmConfig struct {
	rootKey      []byte
	contentStore store.Backend
	groupStore   store.Backend
	dedupStore   store.Backend

	hidePaths    bool
	rollbackOn   bool
	dedupEnabled bool
	contentGuard rollback.RootGuard
	groupGuard   rollback.RootGuard
	// cacheBytes bounds the in-enclave relation caches; <= 0 disables
	// them (the resolved value — Config defaulting happens in NewServer).
	cacheBytes int64
	// journal enables crash-consistent mutations; nil applies writes
	// directly (see txn.go).
	journal *journal.Journal
	// recovery publishes journal-recovery progress; may be nil.
	recovery *RecoveryState
	// cryptoWorkers bounds the chunk-crypto goroutines (resolved value;
	// < 1 is clamped to 1, the inline kernel).
	cryptoWorkers int
	// degradedGate rejects mutations with an ErrDegraded-wrapped error
	// while a store circuit breaker is open; nil when resilience is off.
	degradedGate func() error
	obs          *serverObs
}

func newFileManager(cfg fmConfig) (*fileManager, error) {
	hideKey, err := pae.DeriveBytes(cfg.rootKey, "path-hiding", nil, 32)
	if err != nil {
		return nil, err
	}
	treeKey, err := pae.DeriveBytes(cfg.rootKey, "rollback-tree", nil, 32)
	if err != nil {
		return nil, err
	}
	if cfg.contentGuard == nil {
		cfg.contentGuard = rollback.NopGuard{}
	}
	if cfg.groupGuard == nil {
		cfg.groupGuard = rollback.NopGuard{}
	}
	if cfg.obs == nil {
		cfg.obs = newServerObs(nil, nil)
	}
	workers := cfg.cryptoWorkers
	if workers < 1 {
		workers = 1
	}
	fm := &fileManager{
		rootKey:       cfg.rootKey,
		hideKey:       hideKey,
		hasher:        rollback.NewHasher(treeKey),
		hidePaths:     cfg.hidePaths,
		rollbackOn:    cfg.rollbackOn,
		validate:      cfg.rollbackOn,
		caches:        newRelCaches(cfg.cacheBytes, cfg.obs),
		journal:       cfg.journal,
		shared:        &fmShared{recovery: cfg.recovery, degraded: cfg.degradedGate},
		cryptoWorkers: workers,
		obs:           cfg.obs,
	}
	fm.content = &namespace{
		kind:     contentRootKey,
		backend:  cfg.contentStore,
		guard:    cfg.contentGuard,
		rootName: "/",
		parentOf: contentParent,
		isInner:  func(name string) bool { return strings.HasSuffix(name, "/") },
	}
	fm.group = &namespace{
		kind:     groupRootKey,
		backend:  cfg.groupStore,
		guard:    cfg.groupGuard,
		rootName: groupRootName,
		parentOf: func(name string) string {
			if name == groupRootName {
				return ""
			}
			return groupRootName
		},
		isInner: func(name string) bool { return name == groupRootName },
	}
	if cfg.dedupEnabled {
		ds, err := dedup.New(cfg.dedupStore, cfg.rootKey, dedup.WithObs(cfg.obs.reg), dedup.WithWorkers(workers))
		if err != nil {
			return nil, err
		}
		fm.dedup = ds
	}
	// Finish whatever a previous run left behind before reading or
	// creating anything: committed intents roll forward, a torn commit is
	// discarded. Replayed paths are revalidated against the rollback tree.
	if err := fm.recoverJournal(recoverOpts{strict: true, validate: cfg.rollbackOn}); err != nil {
		return nil, err
	}
	if err := fm.mutate("init", fm.initRoots); err != nil {
		return nil, err
	}
	return fm, nil
}

// contentParent returns the tree parent of a content-store logical name.
// A file's ACL is a sibling of the file (paper Fig. 2), so its parent is
// the file's parent directory; the root's ACL is a child of the root.
func contentParent(name string) string {
	if name == "/" {
		return ""
	}
	if name == "/.acl" {
		return "/"
	}
	if strings.HasSuffix(name, "/.acl") { // directory ACL, e.g. "/D/.acl"
		return parentDir(strings.TrimSuffix(name, ".acl"))
	}
	if strings.HasSuffix(name, ".acl") { // content-file ACL
		return parentDir(strings.TrimSuffix(name, ".acl"))
	}
	return parentDir(name)
}

// parentDir returns the parent directory of a path-like logical name.
func parentDir(name string) string {
	trimmed := strings.TrimSuffix(name, "/")
	idx := strings.LastIndexByte(trimmed, '/')
	return trimmed[:idx+1]
}

// aclName returns the logical name of the ACL file accompanying a path
// (content file or directory).
func aclName(path string) string { return path + ".acl" }

// storageName maps a logical name to the name used in the untrusted
// store. With the filename-hiding extension (paper §V-C) it is the hex
// HMAC of the logical name, placing every file at a pseudorandom flat
// location; directory listing still works because directory bodies store
// the original child names.
func (fm *fileManager) storageName(ns *namespace, name string) string {
	if !fm.hidePaths {
		return name
	}
	mac := pae.MAC(fm.hideKey, []byte(ns.kind+":"+name))
	return hex.EncodeToString(mac[:])
}

// derive recalls, or computes and caches, the named file's derived entry.
// It is a pure function of SK_r and the name, so cached entries never go
// stale; on a hit, fetching or sealing the file runs no HKDF and expands
// no AES key.
func (fm *fileManager) derive(ns *namespace, name string) (*derived, error) {
	id := ns.kind + ":" + name
	if d, ok := fm.caches.derived.Get(id); ok {
		fm.rs.AddCacheHit()
		return d, nil
	}
	fm.rs.AddCacheMiss()
	gen := fm.caches.derived.Gen()
	key, err := pae.DeriveKey(fm.rootKey, "file-key/"+ns.kind, []byte(name))
	if err != nil {
		return nil, err
	}
	keys, err := pfs.NewKeys(key)
	if err != nil {
		return nil, err
	}
	d := &derived{keys: keys, id: []byte(id)}
	fm.caches.derived.Put(id, d, derivedCost(id), gen)
	return d, nil
}

// putBlob writes a logical file. Inside a journaled operation the write
// is staged (txn.go), sealed when the intent commits and only hits the
// backend at apply time; otherwise it applies directly via putBlobRaw.
// Either way body now belongs to the file manager.
func (fm *fileManager) putBlob(ns *namespace, name string, hdr *rollback.Header, body []byte) error {
	if fm.staging() {
		fm.tx.stagePut(ns, name, hdr, body, false)
		fm.invalidateRel(ns, name)
		return nil
	}
	return fm.putBlobRaw(ns, name, hdr, body)
}

// putRootBlob writes a namespace root together with its guard commit.
// The guard commit must coincide with the write becoming durable: staged
// root writes defer it to apply time (a fresh token per apply keeps
// recovery replays valid, and an aborted operation cannot advance the
// guard past the stored root), direct writes commit inline.
func (fm *fileManager) putRootBlob(ns *namespace, hdr *rollback.Header, body []byte) error {
	if hdr == nil {
		return fm.putBlob(ns, ns.rootName, nil, body)
	}
	if fm.staging() {
		fm.tx.stagePut(ns, ns.rootName, hdr, body, true)
		fm.invalidateRel(ns, ns.rootName)
		return nil
	}
	token, err := ns.guard.Commit(hdr.Main)
	if err != nil {
		return err
	}
	hdr.Token = token
	return fm.putBlobRaw(ns, ns.rootName, hdr, body)
}

// putBlobRaw seals and stores a logical file in one step.
func (fm *fileManager) putBlobRaw(ns *namespace, name string, hdr *rollback.Header, body []byte) error {
	var hdrEnc []byte
	if hdr != nil {
		hdrEnc = hdr.Encode()
	}
	blob, err := fm.sealBlob(ns, name, hdrEnc, body)
	if err != nil {
		return err
	}
	return fm.installBlob(ns, name, blob)
}

// sealBlob is the one place a logical file is encrypted: optional encoded
// rollback header followed by the body, protected with the per-file key
// and bound to the file's final name.
func (fm *fileManager) sealBlob(ns *namespace, name string, hdrEnc, body []byte) ([]byte, error) {
	plain := body
	if len(hdrEnc) > 0 {
		plain = make([]byte, 0, len(hdrEnc)+len(body))
		plain = append(append(plain, hdrEnc...), body...)
	}
	d, err := fm.derive(ns, name)
	if err != nil {
		return nil, err
	}
	blob, err := d.keys.AppendEncrypt(nil, d.id, plain, fm.cryptoWorkers)
	if err == nil {
		fm.obs.observeCryptoSeal(pfs.UsesParallel(int64(len(plain)), fm.cryptoWorkers))
	}
	return blob, err
}

// installBlob stores a sealed blob under the logical file's storage name.
func (fm *fileManager) installBlob(ns *namespace, name string, blob []byte) error {
	fm.rs.AddStoreOps(1)
	if err := ns.backend.Put(fm.storageName(ns, name), blob); err != nil {
		return fmt.Errorf("segshare: store %q: %w", name, err)
	}
	fm.invalidateRel(ns, name)
	return nil
}

// fetch is the one place a logical file's stored blob is read: it loads
// the blob through the namespace backend, bounded by the view's request
// context (checked first, then handed to backends that take one —
// Resilient and Instrumented do; bare test backends get a plain Get),
// and recalls the derived keys that open it.
func (fm *fileManager) fetch(ns *namespace, name string) (raw []byte, d *derived, err error) {
	if err := fm.ctxErr(); err != nil {
		return nil, nil, err
	}
	fm.rs.AddStoreOps(1)
	stored := fm.storageName(ns, name)
	if cg, ok := ns.backend.(store.ContextGetter); ok {
		raw, err = cg.GetContext(fm.ctx, stored)
	} else {
		raw, err = ns.backend.Get(stored)
	}
	if errors.Is(err, store.ErrNotExist) {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("segshare: load %q: %w", name, err)
	}
	d, err = fm.derive(ns, name)
	return raw, d, err
}

// open fetches a logical file and authenticates its footer for verified
// random access: reads through the returned Reader decrypt and check
// only the chunks they touch.
func (fm *fileManager) open(ns *namespace, name string) (*pfs.Reader, error) {
	raw, d, err := fm.fetch(ns, name)
	if err != nil {
		return nil, err
	}
	r, err := d.keys.Open(d.id, bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		return nil, fm.openErr(name, err)
	}
	return r, nil
}

// openErr maps a pfs failure on the named file: corruption is evidence
// of tampering by the untrusted store (ErrIntegrity); an open that the
// request context stopped mid-file is the request's cancellation
// (ErrCanceled).
func (fm *fileManager) openErr(name string, err error) error {
	if errors.Is(err, pfs.ErrCorrupt) {
		return fmt.Errorf("%w: %s", ErrIntegrity, name)
	}
	if cerr := fm.ctxErr(); cerr != nil {
		return cerr
	}
	return err
}

// getBlob loads, decrypts, and verifies a logical file, returning its
// rollback header (nil when the extension is off) and body. Reads
// observe the active operation's staged state first, so intra-operation
// re-reads (move recursion, parent updates) see their own writes.
func (fm *fileManager) getBlob(ns *namespace, name string) (*rollback.Header, []byte, error) {
	if fm.staging() {
		if sp, deleted := fm.tx.staged(ns, name); deleted {
			return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		} else if sp != nil {
			body := append([]byte(nil), sp.body...)
			if !fm.rollbackOn {
				return nil, body, nil
			}
			hdr, _, err := rollback.DecodeHeader(sp.hdrEnc)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: %s: bad rollback header", ErrIntegrity, name)
			}
			return hdr, body, nil
		}
	}
	raw, d, err := fm.fetch(ns, name)
	if err != nil {
		return nil, nil, err
	}
	plain, err := d.keys.DecryptCtx(fm.ctx, d.id, raw, fm.cryptoWorkers)
	if err != nil {
		return nil, nil, fm.openErr(name, err)
	}
	fm.obs.observeCryptoOpen(pfs.UsesParallel(int64(len(plain)), fm.cryptoWorkers))
	if !fm.rollbackOn {
		return nil, plain, nil
	}
	hdr, body, err := rollback.DecodeHeader(plain)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %s: bad rollback header", ErrIntegrity, name)
	}
	return hdr, body, nil
}

// readHeader reads only the rollback header of a logical file, verifying
// just the chunks it touches. Validation of sibling buckets uses it so
// that checking one bucket costs header-sized reads, not full files
// (paper §V-D's optimization).
func (fm *fileManager) readHeader(ns *namespace, name string) (*rollback.Header, error) {
	if fm.staging() {
		if sp, deleted := fm.tx.staged(ns, name); deleted {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		} else if sp != nil {
			hdr, _, err := rollback.DecodeHeader(sp.hdrEnc)
			if err != nil {
				return nil, fmt.Errorf("%w: %s: bad rollback header", ErrIntegrity, name)
			}
			return hdr, nil
		}
	}
	r, err := fm.open(ns, name)
	if err != nil {
		return nil, err
	}
	maxHdr := (&rollback.Header{Inner: true}).EncodedSize()
	if int64(maxHdr) > r.Size() {
		maxHdr = int(r.Size())
	}
	buf := make([]byte, maxHdr)
	if _, err := r.ReadAt(buf, 0); err != nil && maxHdr > 0 {
		return nil, fmt.Errorf("%w: %s", ErrIntegrity, name)
	}
	hdr, _, err := rollback.DecodeHeader(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: bad rollback header", ErrIntegrity, name)
	}
	return hdr, nil
}

func (fm *fileManager) exists(ns *namespace, name string) (bool, error) {
	if fm.staging() {
		if sp, deleted := fm.tx.staged(ns, name); deleted {
			return false, nil
		} else if sp != nil {
			return true, nil
		}
	}
	fm.rs.AddStoreOps(1)
	ok, err := ns.backend.Exists(fm.storageName(ns, name))
	if err != nil {
		return false, fmt.Errorf("segshare: stat %q: %w", name, err)
	}
	return ok, nil
}

// deleteBlob removes a logical file, or stages the removal inside a
// journaled operation (preserving ErrNotFound semantics by probing the
// staged state and the backend).
func (fm *fileManager) deleteBlob(ns *namespace, name string) error {
	if fm.staging() {
		if sp, deleted := fm.tx.staged(ns, name); deleted {
			return fmt.Errorf("%w: %s", ErrNotFound, name)
		} else if sp == nil {
			fm.rs.AddStoreOps(1)
			ok, err := ns.backend.Exists(fm.storageName(ns, name))
			if err != nil {
				return fmt.Errorf("segshare: stat %q: %w", name, err)
			}
			if !ok {
				return fmt.Errorf("%w: %s", ErrNotFound, name)
			}
		}
		fm.tx.stageDelete(ns, name)
		fm.invalidateRel(ns, name)
		return nil
	}
	return fm.deleteBlobRaw(ns, name)
}

func (fm *fileManager) deleteBlobRaw(ns *namespace, name string) error {
	fm.rs.AddStoreOps(1)
	err := ns.backend.Delete(fm.storageName(ns, name))
	if errors.Is(err, store.ErrNotExist) {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err != nil {
		return fmt.Errorf("segshare: delete %q: %w", name, err)
	}
	fm.invalidateRel(ns, name)
	return nil
}

// initRoots creates the root nodes of both namespaces on first start:
// the content root directory with its ACL, and the group-store root.
// It is idempotent across restarts.
func (fm *fileManager) initRoots() error {
	if ok, err := fm.exists(fm.content, fm.content.rootName); err != nil {
		return err
	} else if !ok {
		if err := fm.initContentRoot(); err != nil {
			return err
		}
	}
	if ok, err := fm.exists(fm.group, groupRootName); err != nil {
		return err
	} else if !ok {
		if err := fm.writeRootNode(fm.group, &dirBody{}); err != nil {
			return err
		}
	}
	return nil
}

// initContentRoot writes the root directory file and its (empty) ACL.
// The root ACL is a tree child of the root itself.
func (fm *fileManager) initContentRoot() error {
	aclBody := (&acl.ACL{}).Encode()
	rootBody := (&dirBody{}).encode()
	rootACL := aclName(fm.content.rootName) // "/.acl"
	if !fm.rollbackOn {
		if err := fm.putBlob(fm.content, rootACL, nil, aclBody); err != nil {
			return err
		}
		return fm.putBlob(fm.content, fm.content.rootName, nil, rootBody)
	}
	aclID := treeID(fm.content, rootACL)
	aclMain := fm.hasher.LeafMain(aclID, rollback.ContentDigest(aclBody))
	if err := fm.putBlob(fm.content, rootACL, &rollback.Header{Main: aclMain}, aclBody); err != nil {
		return err
	}
	hdr := &rollback.Header{Inner: true}
	hdr.Buckets.AddChild(fm.hasher, aclID, aclMain)
	hdr.Main = fm.hasher.InnerMain(treeID(fm.content, fm.content.rootName), rollback.ContentDigest(rootBody), &hdr.Buckets)
	return fm.putRootBlob(fm.content, hdr, rootBody)
}
