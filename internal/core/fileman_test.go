package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"segshare/internal/acl"
	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/fspath"
	"segshare/internal/journal"
	"segshare/internal/rollback"
	"segshare/internal/store"
)

// fmFixture bundles a fileManager with its adversarial backends and the
// enclave that guards it.
type fmFixture struct {
	fm         *fileManager
	contentAdv *store.Adversary
	groupAdv   *store.Adversary
	dedupB     store.Backend
	// plan schedules faults on both stores (disarmed unless a test arms it).
	plan     *store.FaultPlan
	enclave  *enclave.Enclave
	platform *enclave.Platform
	rootKey  []byte
	opts     fmOptions
}

type fmOptions struct {
	rollback  bool
	guard     GuardKind
	dedup     bool
	hidePaths bool
	// cache gives the file manager the default relation-cache budget, as
	// a server has; tests leave it off unless they exercise it.
	cache bool
}

func newFMFixture(t *testing.T, opts fmOptions) *fmFixture {
	t.Helper()
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plan := store.NewFaultPlan()
	fx := &fmFixture{
		contentAdv: store.NewAdversary(store.NewFaultyWithPlan(store.NewMemory(), plan)),
		groupAdv:   store.NewAdversary(store.NewFaultyWithPlan(store.NewMemory(), plan)),
		dedupB:     store.NewMemory(),
		plan:       plan,
		platform:   platform,
		rootKey:    bytes.Repeat([]byte{7}, 32),
		opts:       opts,
	}
	fx.restart(t)
	return fx
}

// restart launches a fresh enclave on the fixture's platform (monotonic
// counters and protected memory survive, in-enclave caches do not) and
// rebuilds the file manager over the surviving stores.
func (fx *fmFixture) restart(t *testing.T) {
	t.Helper()
	encl, err := fx.platform.Launch(enclave.CodeIdentity{Name: "segshare", Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	var contentGuard, groupGuard rollback.RootGuard
	switch fx.opts.guard {
	case GuardProtectedMemory:
		contentGuard = rollback.NewProtectedMemoryGuard(encl, "content-root")
		groupGuard = rollback.NewProtectedMemoryGuard(encl, "group-root")
	case GuardCounter:
		contentGuard = rollback.NewCounterGuard(encl, "content-root")
		groupGuard = rollback.NewCounterGuard(encl, "group-root")
	}
	cfg := fmConfig{
		rootKey:        fx.rootKey,
		contentStore:   fx.contentAdv,
		groupStore:     fx.groupAdv,
		dedupStore:     fx.dedupB,
		hidePaths:      fx.opts.hidePaths,
		rollbackOn:     fx.opts.rollback,
		dedupEnabled:   fx.opts.dedup,
		contentGuard:   contentGuard,
		groupGuard:     groupGuard,
		journalCounter: encl.Counter("journal"),
	}
	if fx.opts.cache {
		cfg.cacheBytes = defaultCacheBytes
	}
	fm, err := newFileManager(cfg)
	if err != nil {
		t.Fatalf("newFileManager: %v", err)
	}
	fx.fm, fx.enclave = fm, encl
}

// inOp runs fn as one mutation, the way accessControl runs every write:
// the file manager's write methods stage into the mutation's intent,
// which commits and applies when fn returns.
func inOp(fm *fileManager, fn func() error) error {
	return fm.mutate("test", fn)
}

// testCounter returns a journal counter on a fresh enclave, for tests
// that build a file manager without a fixture.
func testCounter(t *testing.T) journal.Counter {
	t.Helper()
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	encl, err := platform.Launch(enclave.CodeIdentity{Name: "segshare", Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	return encl.Counter("journal")
}

func mustPath(t *testing.T, s string) fspath.Path {
	t.Helper()
	p, err := fspath.Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return p
}

func ownedACL(gid acl.GroupID) *acl.ACL {
	a := &acl.ACL{}
	a.AddOwner(gid)
	return a
}

// allOptionCombos enumerates the feature matrix the file manager must
// behave identically under.
func allOptionCombos() map[string]fmOptions {
	return map[string]fmOptions{
		"plain":            {},
		"rollback":         {rollback: true},
		"rollback+protmem": {rollback: true, guard: GuardProtectedMemory},
		"rollback+counter": {rollback: true, guard: GuardCounter},
		"dedup":            {dedup: true},
		"hidden":           {hidePaths: true},
		"everything":       {rollback: true, guard: GuardCounter, dedup: true, hidePaths: true},
	}
}

func TestFileManagerCRUDMatrix(t *testing.T) {
	for name, opts := range allOptionCombos() {
		t.Run(name, func(t *testing.T) {
			fx := newFMFixture(t, opts)
			fm := fx.fm

			// Create directory tree /docs/reports/.
			if err := inOp(fm, func() error { return fm.createDir(mustPath(t, "/docs/"), ownedACL(1)) }); err != nil {
				t.Fatalf("createDir /docs/: %v", err)
			}
			if err := inOp(fm, func() error { return fm.createDir(mustPath(t, "/docs/reports/"), ownedACL(1)) }); err != nil {
				t.Fatalf("createDir /docs/reports/: %v", err)
			}
			// Duplicate create fails.
			if err := inOp(fm, func() error { return fm.createDir(mustPath(t, "/docs/"), ownedACL(1)) }); !errors.Is(err, ErrExists) {
				t.Fatalf("duplicate createDir: %v", err)
			}

			// Create and read back a file.
			file := mustPath(t, "/docs/reports/q1.txt")
			var created bool
			err := inOp(fm, func() (err error) {
				created, err = fm.writeContent(file, encodeRawBody([]byte("quarter one")), ownedACL(1))
				return err
			})
			if err != nil || !created {
				t.Fatalf("writeContent: created=%v err=%v", created, err)
			}
			got, err := fm.readContent(file)
			if err != nil || string(got) != "quarter one" {
				t.Fatalf("readContent: %q %v", got, err)
			}

			// Update in place.
			err = inOp(fm, func() (err error) {
				created, err = fm.writeContent(file, encodeRawBody([]byte("revised")), nil)
				return err
			})
			if err != nil || created {
				t.Fatalf("update: created=%v err=%v", created, err)
			}
			got, err = fm.readContent(file)
			if err != nil || string(got) != "revised" {
				t.Fatalf("after update: %q %v", got, err)
			}

			// Listings.
			entries, err := fm.readDir(mustPath(t, "/docs/reports/"))
			if err != nil || len(entries) != 1 || entries[0].Name != "q1.txt" || entries[0].IsDir {
				t.Fatalf("readDir: %v %v", entries, err)
			}
			entries, err = fm.readDir(fspath.Root)
			if err != nil || len(entries) != 1 || entries[0].Name != "docs" || !entries[0].IsDir {
				t.Fatalf("readDir root: %v %v", entries, err)
			}

			// ACL round trip.
			a, err := fm.readACL(file)
			if err != nil || !a.IsOwner(1) {
				t.Fatalf("readACL: %+v %v", a, err)
			}
			a = a.Clone() // readACL's result is shared; writers clone
			a.SetPermission(42, acl.PermRead)
			if err := inOp(fm, func() error { return fm.writeACL(file, a) }); err != nil {
				t.Fatalf("writeACL: %v", err)
			}
			a2, err := fm.readACL(file)
			if err != nil {
				t.Fatalf("readACL 2: %v", err)
			}
			if p, ok := a2.PermissionFor(42); !ok || p != acl.PermRead {
				t.Fatalf("ACL update lost: %+v", a2)
			}

			// Move the file.
			dst := mustPath(t, "/docs/q1-final.txt")
			if err := inOp(fm, func() error { return fm.movePath(file, dst) }); err != nil {
				t.Fatalf("movePath: %v", err)
			}
			if ok, _ := fm.pathExists(file); ok {
				t.Fatal("source still exists after move")
			}
			got, err = fm.readContent(dst)
			if err != nil || string(got) != "revised" {
				t.Fatalf("read after move: %q %v", got, err)
			}
			movedACL, err := fm.readACL(dst)
			if err != nil {
				t.Fatalf("readACL after move: %v", err)
			}
			if p, ok := movedACL.PermissionFor(42); !ok || p != acl.PermRead {
				t.Fatal("ACL did not travel with the file")
			}

			// Remove.
			if err := inOp(fm, func() error { return fm.removePath(mustPath(t, "/docs/"), true) }); !errors.Is(err, ErrNotEmpty) {
				t.Fatalf("remove non-empty dir: %v", err)
			}
			if err := inOp(fm, func() error { return fm.removePath(dst, true) }); err != nil {
				t.Fatalf("remove file: %v", err)
			}
			if err := inOp(fm, func() error { return fm.removePath(mustPath(t, "/docs/reports/"), true) }); err != nil {
				t.Fatalf("remove empty dir: %v", err)
			}
			if _, err := fm.readContent(dst); !errors.Is(err, ErrNotFound) {
				t.Fatalf("read removed: %v", err)
			}
		})
	}
}

func TestFileManagerDirectoryMove(t *testing.T) {
	for _, name := range []string{"plain", "everything"} {
		t.Run(name, func(t *testing.T) {
			fx := newFMFixture(t, allOptionCombos()[name])
			fm := fx.fm
			for _, dir := range []string{"/a/", "/a/b/", "/dst/"} {
				if err := inOp(fm, func() error { return fm.createDir(mustPath(t, dir), ownedACL(1)) }); err != nil {
					t.Fatalf("createDir %s: %v", dir, err)
				}
			}
			if err := inOp(fm, func() error {
				_, err := fm.writeContent(mustPath(t, "/a/f1"), encodeRawBody([]byte("one")), ownedACL(1))
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if err := inOp(fm, func() error {
				_, err := fm.writeContent(mustPath(t, "/a/b/f2"), encodeRawBody([]byte("two")), ownedACL(1))
				return err
			}); err != nil {
				t.Fatal(err)
			}

			if err := inOp(fm, func() error { return fm.movePath(mustPath(t, "/a/"), mustPath(t, "/dst/a/")) }); err != nil {
				t.Fatalf("move dir: %v", err)
			}
			got, err := fm.readContent(mustPath(t, "/dst/a/b/f2"))
			if err != nil || string(got) != "two" {
				t.Fatalf("nested file after move: %q %v", got, err)
			}
			if ok, _ := fm.pathExists(mustPath(t, "/a/")); ok {
				t.Fatal("source dir still exists")
			}

			// Moving a directory into itself is rejected.
			if err := inOp(fm, func() error { return fm.movePath(mustPath(t, "/dst/"), mustPath(t, "/dst/a/x/")) }); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("move into self: %v", err)
			}
		})
	}
}

func TestFileManagerGroupFiles(t *testing.T) {
	for name, opts := range allOptionCombos() {
		t.Run(name, func(t *testing.T) {
			fx := newFMFixture(t, opts)
			fm := fx.fm

			if _, err := fm.readMemberList("alice"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("absent member list: %v", err)
			}
			ml := &acl.MemberList{}
			ml.Add(3)
			ml.Add(1)
			if err := inOp(fm, func() error { return fm.writeMemberList("alice", ml) }); err != nil {
				t.Fatalf("writeMemberList: %v", err)
			}
			got, err := fm.readMemberList("alice")
			if err != nil || len(got.Groups) != 2 {
				t.Fatalf("readMemberList: %v %v", got, err)
			}
			ml.Add(9)
			if err := inOp(fm, func() error { return fm.writeMemberList("alice", ml) }); err != nil {
				t.Fatalf("update member list: %v", err)
			}

			gl, err := fm.readGroupList()
			if err != nil || len(gl.Groups) != 0 {
				t.Fatalf("empty group list: %v %v", gl, err)
			}
			gl = gl.Clone() // readGroupList's result is shared; writers clone
			if _, err := gl.Create("team"); err != nil {
				t.Fatal(err)
			}
			if err := inOp(fm, func() error { return fm.writeGroupList(gl) }); err != nil {
				t.Fatalf("writeGroupList: %v", err)
			}
			gl2, err := fm.readGroupList()
			if err != nil {
				t.Fatalf("readGroupList: %v", err)
			}
			if _, ok := gl2.ByName("team"); !ok {
				t.Fatal("group lost")
			}
		})
	}
}

func TestFileManagerPersistsAcrossRestart(t *testing.T) {
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	content := store.NewMemory()
	group := store.NewMemory()

	build := func() *fileManager {
		encl, err := platform.Launch(enclave.CodeIdentity{Name: "segshare", Version: 1})
		if err != nil {
			t.Fatal(err)
		}
		rootKey, _, err := loadOrCreateRootKey(encl, group)
		if err != nil {
			t.Fatal(err)
		}
		fm, err := newFileManager(fmConfig{
			rootKey:        rootKey,
			contentStore:   content,
			groupStore:     group,
			rollbackOn:     true,
			contentGuard:   rollback.NewProtectedMemoryGuard(encl, "content-root"),
			groupGuard:     rollback.NewProtectedMemoryGuard(encl, "group-root"),
			journalCounter: encl.Counter("journal"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return fm
	}

	fm1 := build()
	if err := inOp(fm1, func() error {
		_, err := fm1.writeContent(mustPath(t, "/persisted.txt"), encodeRawBody([]byte("survives")), ownedACL(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh enclave instance with the same measurement on
	// the same platform unseals the same root key.
	fm2 := build()
	got, err := fm2.readContent(mustPath(t, "/persisted.txt"))
	if err != nil || string(got) != "survives" {
		t.Fatalf("after restart: %q %v", got, err)
	}
}

func TestTamperedContentDetected(t *testing.T) {
	for _, withRollback := range []bool{false, true} {
		t.Run(fmt.Sprintf("rollback=%v", withRollback), func(t *testing.T) {
			fx := newFMFixture(t, fmOptions{rollback: withRollback})
			fm := fx.fm
			file := mustPath(t, "/secret.txt")
			if err := inOp(fm, func() error {
				_, err := fm.writeContent(file, encodeRawBody([]byte("confidential")), ownedACL(1))
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if err := fx.contentAdv.FlipBit("/secret.txt", 100); err != nil {
				t.Fatal(err)
			}
			if _, err := fm.readContent(file); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("want ErrIntegrity, got %v", err)
			}
		})
	}
}

func TestSwappedFilesDetected(t *testing.T) {
	fx := newFMFixture(t, fmOptions{})
	fm := fx.fm
	if err := inOp(fm, func() error {
		_, err := fm.writeContent(mustPath(t, "/a.txt"), encodeRawBody([]byte("aaa")), ownedACL(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := inOp(fm, func() error {
		_, err := fm.writeContent(mustPath(t, "/b.txt"), encodeRawBody([]byte("bbb")), ownedACL(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Swap the two ciphertexts: the per-file key and AAD must catch it
	// even without the rollback tree.
	aBlob, err := fx.contentAdv.Get("/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	bBlob, err := fx.contentAdv.Get("/b.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.contentAdv.Put("/a.txt", bBlob); err != nil {
		t.Fatal(err)
	}
	if err := fx.contentAdv.Put("/b.txt", aBlob); err != nil {
		t.Fatal(err)
	}
	if _, err := fm.readContent(mustPath(t, "/a.txt")); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("swap a: %v", err)
	}
	if _, err := fm.readContent(mustPath(t, "/b.txt")); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("swap b: %v", err)
	}
}

func TestIndividualFileRollbackDetected(t *testing.T) {
	fx := newFMFixture(t, fmOptions{rollback: true})
	fm := fx.fm
	file := mustPath(t, "/versioned.txt")

	if err := inOp(fm, func() error {
		_, err := fm.writeContent(file, encodeRawBody([]byte("version-1")), ownedACL(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := fx.contentAdv.RememberObject("/versioned.txt"); err != nil {
		t.Fatal(err)
	}
	if err := inOp(fm, func() error { _, err := fm.writeContent(file, encodeRawBody([]byte("version-2")), nil); return err }); err != nil {
		t.Fatal(err)
	}
	// Roll the single file back to version 1: decryption succeeds, but
	// the parent's bucket hash no longer matches (paper §V-D).
	if err := fx.contentAdv.RollbackObject("/versioned.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := fm.readContent(file); !errors.Is(err, ErrRollback) {
		t.Fatalf("want ErrRollback, got %v", err)
	}
}

func TestMemberListRollbackDetected(t *testing.T) {
	// The paper's motivating attack: an old member list would restore
	// revoked access (§V-D).
	fx := newFMFixture(t, fmOptions{rollback: true})
	fm := fx.fm

	ml := &acl.MemberList{}
	ml.Add(7)
	if err := inOp(fm, func() error { return fm.writeMemberList("bob", ml) }); err != nil {
		t.Fatal(err)
	}
	name := memberListName("bob")
	if err := fx.groupAdv.RememberObject(name); err != nil {
		t.Fatal(err)
	}
	// Revoke group 7.
	ml.Remove(7)
	if err := inOp(fm, func() error { return fm.writeMemberList("bob", ml) }); err != nil {
		t.Fatal(err)
	}
	// Adversary restores the pre-revocation member list.
	if err := fx.groupAdv.RollbackObject(name); err != nil {
		t.Fatal(err)
	}
	if _, err := fm.readMemberList("bob"); !errors.Is(err, ErrRollback) {
		t.Fatalf("want ErrRollback, got %v", err)
	}
}

func TestWholeStoreRollbackDetected(t *testing.T) {
	for _, guard := range []GuardKind{GuardProtectedMemory, GuardCounter} {
		t.Run(fmt.Sprintf("guard=%d", guard), func(t *testing.T) {
			fx := newFMFixture(t, fmOptions{rollback: true, guard: guard})
			fm := fx.fm
			file := mustPath(t, "/state.txt")
			if err := inOp(fm, func() error { _, err := fm.writeContent(file, encodeRawBody([]byte("old")), ownedACL(1)); return err }); err != nil {
				t.Fatal(err)
			}
			// Snapshot the ENTIRE content store (root file included), make
			// an update, then roll the whole store back — internally
			// consistent, but stale (§V-E).
			fx.contentAdv.SnapshotStore()
			if err := inOp(fm, func() error { _, err := fm.writeContent(file, encodeRawBody([]byte("new")), nil); return err }); err != nil {
				t.Fatal(err)
			}
			fx.contentAdv.RollbackStore()
			if _, err := fm.readContent(file); !errors.Is(err, ErrRollback) {
				t.Fatalf("want ErrRollback, got %v", err)
			}
		})
	}
}

func TestWholeStoreRollbackUndetectedWithoutGuard(t *testing.T) {
	// Sanity check of the threat model: with per-file protection only,
	// a full-store rollback is internally consistent and goes unnoticed —
	// exactly why §V-E exists.
	fx := newFMFixture(t, fmOptions{rollback: true})
	fm := fx.fm
	file := mustPath(t, "/state.txt")
	if err := inOp(fm, func() error { _, err := fm.writeContent(file, encodeRawBody([]byte("old")), ownedACL(1)); return err }); err != nil {
		t.Fatal(err)
	}
	fx.contentAdv.SnapshotStore()
	if err := inOp(fm, func() error { _, err := fm.writeContent(file, encodeRawBody([]byte("new")), nil); return err }); err != nil {
		t.Fatal(err)
	}
	fx.contentAdv.RollbackStore()
	got, err := fm.readContent(file)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != "old" {
		t.Fatalf("got %q", got)
	}
}

// warmTree is a server-shaped file manager — rollback tree, counter
// guard, intent journal, relation caches — holding /d/leaf and a second
// file in the same bucket of /d/. The adversary remembered version 1 of
// both files, of /d/ and of the root; both files were then rewritten and
// read, so every node on the two paths is in the verified-main cache.
type warmTree struct {
	*fmFixture
	ac      *accessControl
	sibling string
}

func newWarmTree(t *testing.T) *warmTree {
	t.Helper()
	fx := newFMFixture(t, fmOptions{rollback: true, guard: GuardCounter, cache: true})
	w := &warmTree{fmFixture: fx, ac: &accessControl{fm: fx.fm}}
	bucket := fx.fm.hasher.BucketIndex(treeID(fx.fm.content, "/d/leaf"))
	for i := 0; w.sibling == ""; i++ {
		if name := fmt.Sprintf("/d/s%d", i); fx.fm.hasher.BucketIndex(treeID(fx.fm.content, name)) == bucket {
			w.sibling = name
		}
	}
	if err := w.ac.PutDir("alice", mustPath(t, "/d/")); err != nil {
		t.Fatal(err)
	}
	files := []string{"/d/leaf", w.sibling}
	for _, name := range files {
		w.put(t, name, "v1")
	}
	for _, name := range append(files, "/d/", "/") {
		if err := fx.contentAdv.RememberObject(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range files {
		w.put(t, name, "v2")
		if got, err := w.ac.GetFile("alice", mustPath(t, name)); err != nil || string(got) != "v2" {
			t.Fatalf("warm read of %s: %q %v", name, got, err)
		}
	}
	for _, name := range append(files, "/d/", "/") {
		if _, ok := fx.fm.verified(treeID(fx.fm.content, name)); !ok {
			t.Fatalf("%s is not in the verified cache after a read", name)
		}
	}
	return w
}

func (w *warmTree) put(t *testing.T, name, content string) {
	t.Helper()
	if _, err := w.ac.PutFile("alice", mustPath(t, name), encodeRawBody([]byte(content))); err != nil {
		t.Fatalf("put %s: %v", name, err)
	}
}

// readNode reads and validates one content node as every read path does
// on a relation-cache miss.
func (w *warmTree) readNode(name string) error {
	hdr, body, err := w.fm.getBlob(w.fm.content, name)
	if err != nil {
		return err
	}
	return w.fm.validateNode(w.fm.content, name, hdr, body)
}

// TestWarmCacheRollbackDetected rolls one node back under a warm
// verified cache: the file read, a file sharing its bucket, the parent
// directory, the root. The next read of that node must fail as a
// rollback and be counted (rollbackFailed also records it in the audit
// trail); a write through a rolled-back directory must fail too instead
// of folding the stale node into a new root.
func TestWarmCacheRollbackDetected(t *testing.T) {
	for _, target := range []string{"leaf", "sibling", "parent", "root"} {
		t.Run(target, func(t *testing.T) {
			w := newWarmTree(t)
			name := map[string]string{"leaf": "/d/leaf", "sibling": w.sibling, "parent": "/d/", "root": "/"}[target]
			failures := w.fm.obs.rollbackFailures.Value()
			if err := w.contentAdv.RollbackObject(name); err != nil {
				t.Fatal(err)
			}
			if err := w.readNode(name); !errors.Is(err, ErrRollback) {
				t.Fatalf("read of rolled-back %s: want ErrRollback, got %v", name, err)
			}
			if got := w.fm.obs.rollbackFailures.Value() - failures; got != 1 {
				t.Fatalf("rollback failures counted: %d, want 1", got)
			}
			if !strings.HasSuffix(name, "/") {
				if _, err := w.ac.GetFile("alice", mustPath(t, name)); !errors.Is(err, ErrRollback) {
					t.Fatalf("GET of rolled-back %s: want ErrRollback, got %v", name, err)
				}
				return
			}
			if _, err := w.ac.PutFile("alice", mustPath(t, "/d/leaf"), encodeRawBody([]byte("v3"))); !errors.Is(err, ErrRollback) {
				t.Fatalf("PUT through rolled-back %s: want ErrRollback, got %v", name, err)
			}
		})
	}
}

// TestEvictedAncestorRollbackCaughtOnWrite rolls back a directory (or
// the root) whose verified main was evicted while the files below stay
// cached. A PUT under it must not fold the stale node into a new
// guard-committed root: it proves the uncached node first, fails as a
// rollback and leaves the stored root untouched.
func TestEvictedAncestorRollbackCaughtOnWrite(t *testing.T) {
	for _, target := range []string{"/d/", "/"} {
		t.Run(target, func(t *testing.T) {
			w := newWarmTree(t)
			for _, name := range []string{"/d/", "/"} {
				w.fm.cache.Invalidate(verifiedPfx + treeID(w.fm.content, name))
			}
			if err := w.contentAdv.RollbackObject(target); err != nil {
				t.Fatal(err)
			}
			root, err := w.contentAdv.Get("/")
			if err != nil {
				t.Fatal(err)
			}
			failures := w.fm.obs.rollbackFailures.Value()
			if _, err := w.ac.PutFile("alice", mustPath(t, "/d/leaf"), encodeRawBody([]byte("v3"))); !errors.Is(err, ErrRollback) {
				t.Fatalf("PUT under rolled-back, evicted %s: want ErrRollback, got %v", target, err)
			}
			if w.fm.obs.rollbackFailures.Value() == failures {
				t.Fatal("the rejected PUT counted no rollback failure")
			}
			if after, err := w.contentAdv.Get("/"); err != nil || !bytes.Equal(after, root) {
				t.Fatalf("the rejected PUT rewrote the root (%v)", err)
			}
		})
	}
}

// TestWarmCacheDroppedWriteRollbackDetected: a host that acknowledges a
// PUT but drops it serves the previous version, which the cache — holding
// the main the enclave wrote — rejects on the next GET.
func TestWarmCacheDroppedWriteRollbackDetected(t *testing.T) {
	w := newWarmTree(t)
	w.contentAdv.SetDropWrites(true)
	w.put(t, "/d/leaf", "v3")
	w.contentAdv.SetDropWrites(false)
	if got, err := w.ac.GetFile("alice", mustPath(t, "/d/leaf")); !errors.Is(err, ErrRollback) {
		t.Fatalf("GET after a dropped PUT: want ErrRollback, got %q %v", got, err)
	}
}

// TestWarmCacheWholeStoreRollbackAfterRestart: the cache does not survive
// a restart, so a consistent whole-store rollback is left to the root
// guard, which rejects it.
func TestWarmCacheWholeStoreRollbackAfterRestart(t *testing.T) {
	w := newWarmTree(t)
	w.contentAdv.SnapshotStore()
	w.put(t, "/d/leaf", "v3")
	if _, err := w.ac.GetFile("alice", mustPath(t, "/d/leaf")); err != nil {
		t.Fatal(err)
	}
	w.contentAdv.RollbackStore()
	w.restart(t)
	if n := w.fm.cache.Stats().Entries; n != 0 {
		t.Fatalf("cache holds %d entries after a restart", n)
	}
	ac := &accessControl{fm: w.fm}
	if got, err := ac.GetFile("alice", mustPath(t, "/d/leaf")); !errors.Is(err, ErrRollback) {
		t.Fatalf("GET after whole-store rollback and restart: want ErrRollback, got %q %v", got, err)
	}
}

// TestWarmCacheAbortedWriteNoRollback fails a PUT's intent commit: the
// operation aborts, publishes no main, and the file still reads — and
// validates — as its previous version.
func TestWarmCacheAbortedWriteNoRollback(t *testing.T) {
	w := newWarmTree(t)
	id := treeID(w.fm.content, "/d/leaf")
	before, _ := w.fm.verified(id)
	w.plan.FailAtOp(1, errInjected) // the first backend write of a PUT is its intent commit
	if _, err := w.ac.PutFile("alice", mustPath(t, "/d/leaf"), encodeRawBody([]byte("v3"))); !errors.Is(err, errInjected) {
		t.Fatalf("PUT with a failing intent commit: %v", err)
	}
	if m, ok := w.fm.verified(id); ok && m != before {
		t.Fatal("an aborted PUT published its main")
	}
	failures := w.fm.obs.rollbackFailures.Value()
	if got, err := w.ac.GetFile("alice", mustPath(t, "/d/leaf")); err != nil || string(got) != "v2" {
		t.Fatalf("GET after an aborted PUT: %q %v", got, err)
	}
	if m, ok := w.fm.verified(id); !ok || m != before {
		t.Fatal("the read did not re-prove the previous main")
	}
	if w.fm.obs.rollbackFailures.Value() != failures {
		t.Fatal("an aborted PUT raised a rollback alarm")
	}
}

// TestVerifiedCacheReadsNothingItProved: with a file's main cached, an
// overwrite does not read the old copy, and a GET after the write — whose
// mains the write published — reads no bucket sibling. Corrupting either
// object in the store therefore breaks neither.
func TestVerifiedCacheReadsNothingItProved(t *testing.T) {
	w := newWarmTree(t)
	if err := w.contentAdv.FlipBit("/d/leaf", 60); err != nil {
		t.Fatal(err)
	}
	w.put(t, "/d/leaf", "v3")
	if err := w.contentAdv.FlipBit(w.sibling, 60); err != nil {
		t.Fatal(err)
	}
	if got, err := w.ac.GetFile("alice", mustPath(t, "/d/leaf")); err != nil || string(got) != "v3" {
		t.Fatalf("GET after the overwrite: %q %v", got, err)
	}
}

// TestWarmCacheRollbackResetByCA restores a backup under a server whose
// caches are warm: reads are refused until the CA authorizes the restored
// state; after that every cache — the verified mains and the dedup
// reference table included — starts from the restored state, with no
// false alarm.
func TestWarmCacheRollbackResetByCA(t *testing.T) {
	authority, err := ca.New("reset CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stores := []store.Backend{store.NewMemory(), store.NewMemory(), store.NewMemory()}
	s, err := NewServer(platform, Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: stores[0],
		GroupStore:   stores[1],
		DedupStore:   stores[2],
		Features:     Features{RollbackProtection: true, Guard: GuardCounter, Dedup: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	alice := s.Direct("alice")
	ref := func() string {
		t.Helper()
		_, body, err := s.fm.getBlob(s.fm.content, "/keep.txt")
		if err != nil {
			t.Fatal(err)
		}
		_, hName, err := decodeContentBody(body)
		if err != nil || hName == "" {
			t.Fatalf("no dedup reference: %v", err)
		}
		return hName
	}
	if err := alice.Upload("/keep.txt", []byte("backed up")); err != nil {
		t.Fatal(err)
	}
	backup := make([]store.Backend, len(stores))
	for i, st := range stores {
		backup[i] = store.NewMemory()
		if err := store.Copy(backup[i], st); err != nil {
			t.Fatal(err)
		}
	}
	if err := alice.Upload("/keep.txt", []byte("post-backup change")); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Download("/keep.txt"); err != nil {
		t.Fatal(err)
	}
	changed := ref()
	for i, st := range stores {
		if err := store.CopyExact(st, backup[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := alice.Download("/keep.txt"); !errors.Is(err, ErrRollback) {
		t.Fatalf("restored state served without a CA reset: %v", err)
	}

	nonce, err := s.ResetChallenge()
	if err != nil {
		t.Fatal(err)
	}
	sig, err := authority.SignReset(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AcceptReset(sig); err != nil {
		t.Fatalf("AcceptReset: %v", err)
	}
	failures := s.fm.obs.rollbackFailures.Value()
	if got, err := alice.Download("/keep.txt"); err != nil || string(got) != "backed up" {
		t.Fatalf("after reset: %q %v", got, err)
	}
	restored := ref()
	if err := alice.Upload("/keep.txt", []byte("after reset")); err != nil {
		t.Fatal(err)
	}
	if got, err := alice.Download("/keep.txt"); err != nil || string(got) != "after reset" {
		t.Fatalf("after reset and update: %q %v", got, err)
	}
	if n := s.fm.obs.rollbackFailures.Value() - failures; n != 0 {
		t.Fatalf("%d rollback alarms after an authorized restore", n)
	}
	// The overwrite released the restored content's reference — which
	// only the stored (restored) table knows about.
	for hName, want := range map[string]uint32{restored: 0, changed: 0, ref(): 1} {
		if n, err := s.fm.dedup.RefCount(hName); err != nil || n != want {
			t.Fatalf("RefCount(%s…) = %d, %v; want %d", hName[:8], n, err, want)
		}
	}
	if err := s.Fsck(); err != nil {
		t.Fatalf("fsck after reset: %v", err)
	}
}

func TestDedupSharedStorage(t *testing.T) {
	fx := newFMFixture(t, fmOptions{dedup: true})
	fm := fx.fm
	content := bytes.Repeat([]byte("dedup me "), 4096)

	if err := inOp(fm, func() error {
		_, err := fm.writeContent(mustPath(t, "/copy1"), encodeRawBody(content), ownedACL(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	size1, err := fm.dedup.TotalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := inOp(fm, func() error {
		_, err := fm.writeContent(mustPath(t, "/copy2"), encodeRawBody(content), ownedACL(2))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	size2, err := fm.dedup.TotalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if size2-size1 > 2048 {
		t.Fatalf("second copy consumed %d extra bytes", size2-size1)
	}
	got, err := fm.readContent(mustPath(t, "/copy2"))
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("read copy2: %v", err)
	}

	// Removing one copy keeps the object; removing both frees it.
	if err := inOp(fm, func() error { return fm.removePath(mustPath(t, "/copy1"), true) }); err != nil {
		t.Fatal(err)
	}
	if got, err := fm.readContent(mustPath(t, "/copy2")); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("copy2 after removing copy1: %v", err)
	}
	if err := inOp(fm, func() error { return fm.removePath(mustPath(t, "/copy2"), true) }); err != nil {
		t.Fatal(err)
	}
	size3, err := fm.dedup.TotalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if size3 >= size1 {
		t.Fatalf("dedup object not freed: %d >= %d", size3, size1)
	}
}

func TestHidePathsHidesStructure(t *testing.T) {
	fx := newFMFixture(t, fmOptions{hidePaths: true})
	fm := fx.fm
	if err := inOp(fm, func() error { return fm.createDir(mustPath(t, "/secret-project/"), ownedACL(1)) }); err != nil {
		t.Fatal(err)
	}
	if err := inOp(fm, func() error {
		_, err := fm.writeContent(mustPath(t, "/secret-project/plans.txt"), encodeRawBody([]byte("x")), ownedACL(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	names, err := fx.contentAdv.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if bytes.Contains([]byte(name), []byte("secret")) || bytes.Contains([]byte(name), []byte("plans")) {
			t.Fatalf("storage name leaks path: %q", name)
		}
		if bytes.ContainsRune([]byte(name), '/') {
			t.Fatalf("storage names not flat: %q", name)
		}
	}
	// Listing still works via directory bodies.
	entries, err := fm.readDir(mustPath(t, "/secret-project/"))
	if err != nil || len(entries) != 1 || entries[0].Name != "plans.txt" {
		t.Fatalf("listing under hiding: %v %v", entries, err)
	}
}

// TestNoPlaintextLeaksToStores uploads recognizable plaintext through a
// fully-featured file manager and scans every byte of every untrusted
// store for fragments of it — content, paths, names, group names, and
// user IDs must never appear (objective S1).
func TestNoPlaintextLeaksToStores(t *testing.T) {
	fx := newFMFixture(t, allOptionCombos()["everything"])
	fm := fx.fm
	ac := &accessControl{fm: fm}

	secrets := [][]byte{
		[]byte("TOPSECRET-CONTENT-MARKER"),
		[]byte("classified-dir"),
		[]byte("classified-file"),
		[]byte("secret-team-name"),
		[]byte("agent-alice"),
	}
	if err := ac.PutDir("agent-alice", mustPath(t, "/classified-dir/")); err != nil {
		t.Fatal(err)
	}
	content := append([]byte("TOPSECRET-CONTENT-MARKER "), bytes.Repeat([]byte("x"), 5000)...)
	if _, err := ac.PutFile("agent-alice", mustPath(t, "/classified-dir/classified-file"), encodeRawBody(content)); err != nil {
		t.Fatal(err)
	}
	if err := ac.AddUser("agent-alice", "agent-bob", "secret-team-name"); err != nil {
		t.Fatal(err)
	}

	scan := func(name string, backend store.Backend) {
		t.Helper()
		names, err := backend.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range names {
			for _, secret := range secrets {
				if bytes.Contains([]byte(obj), secret) {
					t.Errorf("%s store: object name %q leaks %q", name, obj, secret)
				}
			}
			data, err := backend.Get(obj)
			if err != nil {
				t.Fatal(err)
			}
			for _, secret := range secrets {
				if bytes.Contains(data, secret) {
					t.Errorf("%s store: object %q content leaks %q", name, obj, secret)
				}
			}
		}
	}
	scan("content", fx.contentAdv)
	scan("group", fx.groupAdv)
}

func TestHidePathsHidesGroupStoreNames(t *testing.T) {
	fx := newFMFixture(t, fmOptions{hidePaths: true})
	ml := &acl.MemberList{}
	ml.Add(1)
	if err := inOp(fx.fm, func() error { return fx.fm.writeMemberList("very-identifiable-user", ml) }); err != nil {
		t.Fatal(err)
	}
	names, err := fx.groupAdv.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if bytes.Contains([]byte(name), []byte("identifiable")) {
			t.Fatalf("group store name leaks user id: %q", name)
		}
	}
}
