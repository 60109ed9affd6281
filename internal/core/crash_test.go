package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"segshare/internal/acl"
	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/fspath"
	"segshare/internal/rollback"
	"segshare/internal/store"
)

// This file is the crash-consistency harness for the intent journal. Each
// logical mutation is dry-run once to count its backend mutations, then
// replayed once per failure point, both as a transient fault and as a
// simulated process kill. After every schedule the "process" restarts —
// the file manager is rebuilt over the surviving store state with the
// same enclave platform — and the recovered store must pass the full
// fsck walk plus a dedup refcount audit.

var errInjected = errors.New("injected crash fault")

type crashFixture struct {
	t        *testing.T
	plan     *store.FaultPlan
	content  store.Backend
	group    store.Backend
	dedupB   store.Backend
	platform *enclave.Platform
	rootKey  []byte
	opts     fmOptions

	fm *fileManager
	ac *accessControl
}

func newCrashFixture(t *testing.T, opts fmOptions) *crashFixture {
	t.Helper()
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plan := store.NewFaultPlan()
	fx := &crashFixture{
		t:        t,
		plan:     plan,
		content:  store.NewFaultyWithPlan(store.NewMemory(), plan),
		group:    store.NewFaultyWithPlan(store.NewMemory(), plan),
		dedupB:   store.NewFaultyWithPlan(store.NewMemory(), plan),
		platform: platform,
		rootKey:  append([]byte(nil), testRootKey...),
		opts:     opts,
	}
	if err := fx.boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	return fx
}

var testRootKey = []byte("crash-harness-root-key-32-bytes!")

// boot launches a fresh enclave over the surviving stores and rebuilds
// the file manager, which runs the journal recovery pass. Relaunching on
// the same platform resumes the monotonic counters, exactly like an
// enclave restart on one machine.
func (fx *crashFixture) boot() error {
	encl, err := fx.platform.Launch(enclave.CodeIdentity{Name: "segshare", Version: 1})
	if err != nil {
		return err
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
	fm, err := newFileManager(fmConfig{
		rootKey:        fx.rootKey,
		contentStore:   fx.content,
		groupStore:     fx.group,
		dedupStore:     fx.dedupB,
		hidePaths:      fx.opts.hidePaths,
		rollbackOn:     fx.opts.rollback,
		dedupEnabled:   fx.opts.dedup,
		contentGuard:   contentGuard,
		groupGuard:     groupGuard,
		journalCounter: encl.Counter("journal"),
	})
	if err != nil {
		return err
	}
	fx.fm = fm
	fx.ac = &accessControl{fm: fm}
	return nil
}

// restart simulates reviving the process after a crash: faults stop
// firing and a fresh file manager recovers over the surviving state.
func (fx *crashFixture) restart() error {
	fx.plan.Revive()
	return fx.boot()
}

func (fx *crashFixture) path(s string) fspath.Path {
	return mustPath(fx.t, s)
}

var (
	crashContentA = []byte("shared content A, deduplicated")
	crashContentC = []byte("unique content C")
)

// seedCorpus builds a small world touching every relation kind: nested
// directories, deduplicated files, a named group with members, and an
// explicit permission grant.
func seedCorpus(t *testing.T, fx *crashFixture) {
	t.Helper()
	steps := []struct {
		name string
		run  func() error
	}{
		{"mkdir /docs/", func() error { return fx.ac.PutDir("alice", fx.path("/docs/")) }},
		{"put /docs/a.txt", func() error {
			_, err := fx.ac.PutFile("alice", fx.path("/docs/a.txt"), encodeRawBody(crashContentA))
			return err
		}},
		{"put /docs/b.txt", func() error {
			_, err := fx.ac.PutFile("alice", fx.path("/docs/b.txt"), encodeRawBody(crashContentA))
			return err
		}},
		{"mkdir /docs/sub/", func() error { return fx.ac.PutDir("alice", fx.path("/docs/sub/")) }},
		{"put /docs/sub/c.txt", func() error {
			_, err := fx.ac.PutFile("alice", fx.path("/docs/sub/c.txt"), encodeRawBody(crashContentC))
			return err
		}},
		{"mkdir /docs/empty/", func() error { return fx.ac.PutDir("alice", fx.path("/docs/empty/")) }},
		{"add bob to team", func() error { return fx.ac.AddUser("alice", "bob", "team") }},
		{"grant team read", func() error { return fx.ac.SetPermission("alice", fx.path("/docs/a.txt"), "team", acl.PermRead) }},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			t.Fatalf("seed %s: %v", s.name, err)
		}
	}
}

// collectDedupRefs walks the content tree and counts live references to
// each dedup object.
func (fx *crashFixture) collectDedupRefs() (map[string]int, error) {
	refs := make(map[string]int)
	var walk func(name string) error
	walk = func(name string) error {
		_, body, err := fx.fm.getBlob(fx.fm.content, name)
		if err != nil {
			return err
		}
		if fx.fm.content.isInner(name) {
			db, err := decodeDirBody(body)
			if err != nil {
				return err
			}
			for _, child := range fx.fm.treeChildren(fx.fm.content, name, db) {
				if err := walk(child); err != nil {
					return err
				}
			}
			return nil
		}
		if len(name) > 4 && name[len(name)-4:] == ".acl" {
			return nil
		}
		_, hName, err := decodeContentBody(body)
		if err != nil {
			return err
		}
		if hName != "" {
			refs[hName]++
		}
		return nil
	}
	if err := walk(fx.fm.content.rootName); err != nil {
		return nil, err
	}
	return refs, nil
}

// auditDedupRefcounts asserts the dedup invariant that crash windows may
// only leak upward: for every live reference the stored refcount must be
// at least the number of leaves pointing at the object.
func auditDedupRefcounts(t *testing.T, fx *crashFixture) {
	t.Helper()
	if fx.fm.dedup == nil {
		return
	}
	refs, err := fx.collectDedupRefs()
	if err != nil {
		t.Fatalf("collect dedup refs: %v", err)
	}
	for hName, live := range refs {
		stored, err := fx.fm.dedup.RefCount(hName)
		if err != nil {
			t.Fatalf("RefCount(%s): %v", hName, err)
		}
		if int(stored) < live {
			t.Fatalf("dedup refcount underflow: %s stored %d < live %d", hName, stored, live)
		}
	}
}

type crashScenario struct {
	name string
	run  func(fx *crashFixture) error
	// check asserts the scenario's atomicity postcondition after a
	// recovered restart: the operation either fully happened or did not
	// happen at all.
	check func(t *testing.T, fx *crashFixture)
}

func fileState(t *testing.T, fx *crashFixture, path string) (exists bool, content []byte) {
	t.Helper()
	data, err := fx.ac.GetFile("alice", fx.path(path))
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	if err != nil {
		t.Fatalf("GetFile %s: %v", path, err)
	}
	return true, data
}

func crashScenarios() []crashScenario {
	return []crashScenario{
		{
			name: "mkcol",
			run:  func(fx *crashFixture) error { return fx.ac.PutDir("alice", fx.path("/docs/new/")) },
		},
		{
			name: "put-create",
			run: func(fx *crashFixture) error {
				_, err := fx.ac.PutFile("alice", fx.path("/docs/new.txt"), encodeRawBody([]byte("fresh")))
				return err
			},
			check: func(t *testing.T, fx *crashFixture) {
				if ok, data := fileState(t, fx, "/docs/new.txt"); ok && string(data) != "fresh" {
					t.Fatalf("partial create: %q", data)
				}
			},
		},
		{
			name: "put-update",
			run: func(fx *crashFixture) error {
				_, err := fx.ac.PutFile("alice", fx.path("/docs/a.txt"), encodeRawBody([]byte("updated")))
				return err
			},
			check: func(t *testing.T, fx *crashFixture) {
				ok, data := fileState(t, fx, "/docs/a.txt")
				if !ok {
					t.Fatal("update lost the file")
				}
				if string(data) != "updated" && string(data) != string(crashContentA) {
					t.Fatalf("torn update: %q", data)
				}
			},
		},
		{
			name: "put-dedup-duplicate",
			run: func(fx *crashFixture) error {
				_, err := fx.ac.PutFile("alice", fx.path("/docs/dup.txt"), encodeRawBody(crashContentA))
				return err
			},
		},
		{
			name: "delete-file",
			run:  func(fx *crashFixture) error { return fx.ac.Remove("alice", fx.path("/docs/a.txt")) },
		},
		{
			name: "delete-dir",
			run:  func(fx *crashFixture) error { return fx.ac.Remove("alice", fx.path("/docs/empty/")) },
		},
		{
			name: "move-file",
			run: func(fx *crashFixture) error {
				return fx.ac.Move("alice", fx.path("/docs/a.txt"), fx.path("/docs/moved.txt"))
			},
			check: func(t *testing.T, fx *crashFixture) {
				srcOK, _ := fileState(t, fx, "/docs/a.txt")
				dstOK, _ := fileState(t, fx, "/docs/moved.txt")
				if srcOK == dstOK {
					t.Fatalf("move atomicity: src=%v dst=%v", srcOK, dstOK)
				}
			},
		},
		{
			name: "move-dir",
			run: func(fx *crashFixture) error {
				return fx.ac.Move("alice", fx.path("/docs/sub/"), fx.path("/docs/sub2/"))
			},
		},
		{
			name: "set-permission",
			run: func(fx *crashFixture) error {
				return fx.ac.SetPermission("alice", fx.path("/docs/a.txt"), "team", acl.PermReadWrite)
			},
		},
		{
			name: "add-user",
			run:  func(fx *crashFixture) error { return fx.ac.AddUser("alice", "carol", "team") },
		},
		{
			name: "remove-user",
			run:  func(fx *crashFixture) error { return fx.ac.RemoveUser("alice", "bob", "team") },
		},
		{
			name: "delete-group",
			run:  func(fx *crashFixture) error { return fx.ac.DeleteGroup("alice", "team") },
		},
	}
}

// TestCrashRecoveryMatrix is the tentpole acceptance test: every mutation
// type, crashed at every backend mutation it performs, both transiently
// and with a kill-until-restart, must recover to a store that passes the
// full fsck and the dedup refcount audit.
func TestCrashRecoveryMatrix(t *testing.T) {
	opts := fmOptions{rollback: true, guard: GuardCounter, dedup: true, hidePaths: true}
	for _, sc := range crashScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			// Dry run to learn the schedule length.
			dry := newCrashFixture(t, opts)
			seedCorpus(t, dry)
			before := dry.plan.Ops()
			if err := sc.run(dry); err != nil {
				t.Fatalf("dry run: %v", err)
			}
			mutations := dry.plan.Ops() - before
			if mutations == 0 {
				t.Fatal("scenario performs no backend mutations")
			}
			for k := 1; k <= mutations; k++ {
				for _, kill := range []bool{false, true} {
					label := fmt.Sprintf("op%d/kill=%v", k, kill)
					fx := newCrashFixture(t, opts)
					seedCorpus(t, fx)
					if kill {
						fx.plan.KillAtOp(k, errInjected)
					} else {
						fx.plan.FailAtOp(k, errInjected)
					}
					opErr := sc.run(fx)
					if err := fx.restart(); err != nil {
						t.Fatalf("%s: recovery restart failed (op err %v): %v", label, opErr, err)
					}
					if err := fx.fm.validateAll(); err != nil {
						t.Fatalf("%s: fsck after recovery (op err %v): %v", label, opErr, err)
					}
					auditDedupRefcounts(t, fx)
					if sc.check != nil {
						sc.check(t, fx)
					}
				}
			}
		})
	}
}

// TestCrashRecoveryAcrossFeatureCombos spot-checks the sweep's most
// write-heavy scenario under the remaining feature combinations.
func TestCrashRecoveryAcrossFeatureCombos(t *testing.T) {
	sc := crashScenarios()[2] // put-update
	for name, opts := range allOptionCombos() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			dry := newCrashFixture(t, opts)
			seedCorpus(t, dry)
			before := dry.plan.Ops()
			if err := sc.run(dry); err != nil {
				t.Fatalf("dry run: %v", err)
			}
			mutations := dry.plan.Ops() - before
			for k := 1; k <= mutations; k++ {
				fx := newCrashFixture(t, opts)
				seedCorpus(t, fx)
				fx.plan.KillAtOp(k, errInjected)
				opErr := sc.run(fx)
				if err := fx.restart(); err != nil {
					t.Fatalf("op%d: restart (op err %v): %v", k, opErr, err)
				}
				if err := fx.fm.validateAll(); err != nil {
					t.Fatalf("op%d: fsck (op err %v): %v", k, opErr, err)
				}
				auditDedupRefcounts(t, fx)
			}
		})
	}
}

// TestCrashRecoveryStress hammers a full Server (journal on) with
// concurrent sessions while transient faults fire, then revives the
// store and requires a clean fsck. Run with -race in tier 1.
func TestCrashRecoveryStress(t *testing.T) {
	authority, err := ca.New("stress CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plan := store.NewFaultPlan()
	server, err := NewServer(platform, Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: store.NewFaultyWithPlan(store.NewMemory(), plan),
		GroupStore:   store.NewFaultyWithPlan(store.NewMemory(), plan),
		DedupStore:   store.NewFaultyWithPlan(store.NewMemory(), plan),
		Features:     Features{Dedup: true, RollbackProtection: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	users := []string{"alice", "bob", "carol"}
	var wg sync.WaitGroup
	for i, u := range users {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			s := server.Direct(u)
			dir := fmt.Sprintf("/u%d/", i)
			if err := s.Mkdir(dir); err != nil {
				return
			}
			for n := 0; n < 25; n++ {
				// Every op may hit an injected fault; errors are the point.
				_ = s.Upload(fmt.Sprintf("%sf%d", dir, n), []byte(fmt.Sprintf("content %d from %s", n, u)))
				_, _ = s.Download(fmt.Sprintf("%sf%d", dir, n))
				if n%5 == 0 {
					_ = s.Move(fmt.Sprintf("%sf%d", dir, n), fmt.Sprintf("%smoved%d", dir, n))
				}
				if n%7 == 0 {
					_ = s.Remove(fmt.Sprintf("%sf%d", dir, n))
				}
			}
		}(i, u)
	}
	// Fire transient faults while the workers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 40; n++ {
			plan.FailAtOp(3, errInjected)
		}
		plan.Revive()
	}()
	wg.Wait()
	plan.Revive()

	// One clean mutation drains any pending intent, then the store must
	// pass a full fsck.
	if err := server.Direct("alice").Mkdir("/final/"); err != nil {
		t.Fatalf("post-revive mutation: %v", err)
	}
	if err := server.Fsck(); err != nil {
		t.Fatalf("Fsck after stress: %v", err)
	}
}
