package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"segshare/internal/audit"
	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/store"
)

// newStressFixture builds a server with the audit log on a dedicated
// memory backend (OverflowBlock, so the trail is complete) and returns
// both for offline chain verification after the workload.
func newStressFixture(t *testing.T, features Features) (*Server, store.Backend) {
	t.Helper()
	authority, err := ca.New("stress CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	auditStore := store.NewMemory()
	server, err := NewServer(platform, Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: store.NewMemory(),
		GroupStore:   store.NewMemory(),
		Features:     features,
		AuditStore:   auditStore,
		Audit:        audit.Options{CheckpointEvery: 16, Overflow: audit.OverflowBlock},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return server, auditStore
}

// TestConcurrentStress hammers the request path with concurrent
// GET/PUT/MOVE/ACL-update traffic on overlapping and disjoint paths and
// asserts the three properties the lock manager and cache must preserve:
// no lost updates (each disjoint path ends at its writer's last value),
// no stale-cache authorization (reads observe only legal outcomes, and
// the dedicated tests in cache_invalidation_test.go pin the
// next-request-visibility guarantee), and an intact audit chain. Run
// with -race; the detector is the real assertion on the lock plans.
func TestConcurrentStress(t *testing.T) {
	cases := []struct {
		name     string
		features Features
	}{
		{"sharded", Features{}},
		{"coupled-rollback", Features{RollbackProtection: true, Guard: GuardCounter}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runConcurrentStress(t, tc.features)
		})
	}
}

func runConcurrentStress(t *testing.T, features Features) {
	server, auditStore := newStressFixture(t, features)
	alice := server.Direct("alice")
	bob := server.Direct("bob")

	const (
		writers = 4
		iters   = 40
	)

	// succeeded counts the workload's successful operations; each one
	// writes an authorization or change record, so the trail must hold at
	// least that many.
	var succeeded atomic.Int64
	tally := func(err error) error {
		if err == nil {
			succeeded.Add(1)
		}
		return err
	}

	// Corpus: one private tree per disjoint writer, a shared file every
	// overlapping goroutine fights over, and a file that gets moved back
	// and forth.
	if err := tally(alice.Mkdir("/shared/")); err != nil {
		t.Fatal(err)
	}
	if err := tally(alice.Upload("/shared/f", []byte("seed"))); err != nil {
		t.Fatal(err)
	}
	if err := tally(alice.Mkdir("/mv/")); err != nil {
		t.Fatal(err)
	}
	if err := tally(alice.Upload("/mv/f", []byte("movable"))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writers; i++ {
		if err := tally(alice.Mkdir(fmt.Sprintf("/w%d/", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tally(alice.AddUser("bob", "team")); err != nil {
		t.Fatal(err)
	}

	// legalShared holds every value ever written to /shared/f; concurrent
	// reads must return one of them (torn or mixed reads are the failure).
	legalShared := sync.Map{}
	legalShared.Store("seed", true)

	var wg sync.WaitGroup
	fail := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Disjoint writers: each owns /w<i>/f and must win every one of its
	// own writes — the final content is its last value.
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/w%d/f", i)
			for j := 0; j < iters; j++ {
				if err := tally(alice.Upload(path, []byte(fmt.Sprintf("w%d-%d", i, j)))); err != nil {
					report("disjoint upload %s: %v", path, err)
					return
				}
				if got, err := alice.Download(path); tally(err) != nil {
					report("disjoint download %s: %v", path, err)
					return
				} else if !bytes.HasPrefix(got, []byte(fmt.Sprintf("w%d-", i))) {
					report("disjoint read %s saw foreign content %q", path, got)
					return
				}
			}
		}(i)
	}

	// Overlapping writers: all write the same path with distinct values.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				v := fmt.Sprintf("shared-%d-%d", i, j)
				legalShared.Store(v, true)
				if err := tally(alice.Upload("/shared/f", []byte(v))); err != nil {
					report("shared upload: %v", err)
					return
				}
			}
		}(i)
	}

	// Readers on the contended file: any value ever written is legal,
	// anything else is a torn read or cache-corruption bug.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters*2; j++ {
				got, err := alice.Download("/shared/f")
				if tally(err) != nil {
					report("shared download: %v", err)
					return
				}
				if _, ok := legalShared.Load(string(got)); !ok {
					report("shared read saw torn content %q", got)
					return
				}
				if _, err := alice.List("/shared/"); tally(err) != nil {
					report("shared list: %v", err)
					return
				}
			}
		}()
	}

	// Mover: shuttles a file between two names. Readers racing the move
	// may legitimately see ErrNotFound at either name — never both a
	// wrong content and never a lock-order deadlock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		src, dst := "/mv/f", "/mv/g"
		for j := 0; j < iters; j++ {
			if err := tally(alice.Move(src, dst)); err != nil {
				report("move %s -> %s: %v", src, dst, err)
				return
			}
			src, dst = dst, src
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < iters; j++ {
			for _, p := range []string{"/mv/f", "/mv/g"} {
				got, err := alice.Download(p)
				switch {
				case err == nil:
					if !bytes.Equal(got, []byte("movable")) {
						report("moved file content %q", got)
						return
					}
				case errors.Is(err, ErrNotFound):
				default:
					report("move-racing download %s: %v", p, err)
					return
				}
			}
		}
	}()

	// ACL toggler + authorization reader: alice alternates grant/revoke
	// on the shared file while bob reads it. Bob must see exactly one of
	// two outcomes — a legal value or a clean permission denial.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < iters; j++ {
			spec := PermissionSpec("r")
			if j%2 == 1 {
				spec = "none"
			}
			if err := tally(alice.SetPermission("/shared/f", "team", spec)); err != nil {
				report("set permission: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < iters*2; j++ {
			got, err := bob.Download("/shared/f")
			switch {
			case err == nil:
				if _, ok := legalShared.Load(string(got)); !ok {
					report("bob read torn content %q", got)
					return
				}
			case errors.Is(err, ErrPermissionDenied):
			default:
				report("bob download: %v", err)
				return
			}
		}
	}()

	// Membership churn on an unrelated group, stressing the group lock
	// and member-list/group-list cache invalidation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < iters; j++ {
			if err := tally(alice.AddUser("carol", "churn")); err != nil {
				report("add user: %v", err)
				return
			}
			if err := tally(alice.RemoveUser("carol", "churn")); err != nil {
				report("remove user: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// No lost updates: every disjoint path holds its writer's last value.
	for i := 0; i < writers; i++ {
		path := fmt.Sprintf("/w%d/f", i)
		got, err := alice.Download(path)
		if err != nil {
			t.Fatalf("final download %s: %v", path, err)
		}
		want := fmt.Sprintf("w%d-%d", i, iters-1)
		if string(got) != want {
			t.Fatalf("lost update on %s: got %q, want %q", path, got, want)
		}
	}
	// The contended file holds some legally-written value.
	got, err := alice.Download("/shared/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := legalShared.Load(string(got)); !ok {
		t.Fatalf("final shared content %q was never written", got)
	}

	// Intact audit chain: close (seals the final checkpoint) and verify
	// offline with keys re-derived from SK_r, exactly as an operator
	// would. Any dropped, reordered, or torn record fails here.
	keys, err := audit.DeriveKeys(server.RootKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := audit.Verify(auditStore, keys, audit.VerifyOptions{
		ExpectCounter: server.Enclave().Counter("audit-log").Value(),
	})
	if err != nil {
		t.Fatalf("audit chain broken after concurrent workload: %v", err)
	}
	if res.Records < uint64(succeeded.Load()) {
		t.Fatalf("audit log holds %d records for %d successful operations", res.Records, succeeded.Load())
	}
}

// TestHotReadStress hammers one hot path with concurrent readers while a
// writer overwrites it and the owner toggles another user's permission —
// the revocation race the read path must stay exact under. Run with
// -race; the content assertions check that no reader ever observes a
// torn or never-written value, and that a revoked reader sees only a
// clean permission denial.
func TestHotReadStress(t *testing.T) {
	authority, err := ca.New("hot-read CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(platform, Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: store.NewMemory(),
		GroupStore:   store.NewMemory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })

	alice := server.Direct("alice")
	bob := server.Direct("bob")
	if err := alice.Mkdir("/shared/"); err != nil {
		t.Fatal(err)
	}
	if err := alice.Upload("/shared/hot", []byte("seed")); err != nil {
		t.Fatal(err)
	}
	if err := alice.AddUser("bob", "team"); err != nil {
		t.Fatal(err)
	}

	const iters = 60
	legal := sync.Map{}
	legal.Store("seed", true)

	var wg sync.WaitGroup
	fail := make(chan error, 16)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Writer: overwrites the hot file with distinct values.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < iters; j++ {
			v := fmt.Sprintf("v-%d", j)
			legal.Store(v, true)
			if err := alice.Upload("/shared/hot", []byte(v)); err != nil {
				report("upload: %v", err)
				return
			}
		}
	}()

	// Permission toggler: grants and revokes bob's read access.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < iters; j++ {
			spec := PermissionSpec("r")
			if j%2 == 1 {
				spec = "none"
			}
			if err := alice.SetPermission("/shared/hot", "team", spec); err != nil {
				report("set permission: %v", err)
				return
			}
		}
	}()

	// Readers: concurrent GETs of the same path. Any value ever written
	// is legal; anything else means a read observed bytes across a write.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters*2; j++ {
				got, err := alice.Download("/shared/hot")
				if err != nil {
					report("alice download: %v", err)
					return
				}
				if _, ok := legal.Load(string(got)); !ok {
					report("alice read torn content %q", got)
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters*2; j++ {
				got, err := bob.Download("/shared/hot")
				switch {
				case err == nil:
					if _, ok := legal.Load(string(got)); !ok {
						report("bob read torn content %q", got)
						return
					}
				case errors.Is(err, ErrPermissionDenied):
				default:
					report("bob download: %v", err)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The final value is one that was actually written.
	got, err := alice.Download("/shared/hot")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := legal.Load(string(got)); !ok {
		t.Fatalf("final content %q was never written", got)
	}
}
