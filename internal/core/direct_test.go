package core

import (
	"bytes"
	"errors"
	"testing"

	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/rollback"
	"segshare/internal/store"
)

func newDirectServer(t *testing.T) *Server {
	t.Helper()
	authority, err := ca.New("direct CA")
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
	return server
}

func TestDirectSessionFullFlow(t *testing.T) {
	server := newDirectServer(t)
	alice := server.Direct("alice")
	bob := server.Direct("bob")

	if err := alice.Mkdir("/d/"); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	if err := alice.Upload("/d/f", []byte("direct")); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	got, err := alice.Download("/d/f")
	if err != nil || !bytes.Equal(got, []byte("direct")) {
		t.Fatalf("Download: %q %v", got, err)
	}
	entries, err := alice.List("/d/")
	if err != nil || len(entries) != 1 {
		t.Fatalf("List: %v %v", entries, err)
	}

	// Authorization is identical to the network path.
	if _, err := bob.Download("/d/f"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("bob Download: %v", err)
	}
	if err := alice.AddUser("bob", "team"); err != nil {
		t.Fatal(err)
	}
	if err := alice.SetPermission("/d/f", "team", "r"); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Download("/d/f"); err != nil {
		t.Fatalf("bob after grant: %v", err)
	}
	if err := alice.SetInherit("/d/f", true); err != nil {
		t.Fatalf("SetInherit: %v", err)
	}
	if err := alice.RemoveUser("bob", "team"); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Download("/d/f"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("bob after revoke: %v", err)
	}

	if err := alice.Move("/d/f", "/moved"); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if err := alice.Remove("/moved"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := alice.Upload("bad-path", nil); err == nil {
		t.Fatal("invalid path accepted")
	}
	if err := alice.SetPermission("/d/", "team", "bogus"); err == nil {
		t.Fatal("invalid permission accepted")
	}

	if _, err := server.StoredContentBytes(); err != nil {
		t.Fatalf("StoredContentBytes: %v", err)
	}
}

// TestStorageFaultsSurfaceAsErrors injects I/O failures under the trusted
// file manager and checks they surface as errors without corrupting
// state.
func TestStorageFaultsSurfaceAsErrors(t *testing.T) {
	plan := store.NewFaultPlan()
	faulty := store.NewFaultyWithPlan(store.NewMemory(), plan)
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	encl, err := platform.Launch(enclave.CodeIdentity{Name: "segshare", Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := newFileManager(fmConfig{
		rootKey:        bytes.Repeat([]byte{1}, 32),
		contentStore:   faulty,
		groupStore:     store.NewMemory(),
		rollbackOn:     true,
		contentGuard:   rollback.NewProtectedMemoryGuard(encl, "c"),
		groupGuard:     rollback.NewProtectedMemoryGuard(encl, "g"),
		journalCounter: encl.Counter("journal"),
	})
	if err != nil {
		t.Fatal(err)
	}

	errInject := errors.New("disk on fire")
	if err := inOp(fm, func() error {
		_, err := fm.writeContent(mustPath(t, "/ok"), encodeRawBody([]byte("fine")), ownedACL(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Fail a write mid-operation.
	plan.FailAtOp(1, errInject)
	if err := inOp(fm, func() error {
		_, err := fm.writeContent(mustPath(t, "/fail"), encodeRawBody([]byte("x")), ownedACL(1))
		return err
	}); !errors.Is(err, errInject) {
		t.Fatalf("want injected error, got %v", err)
	}
	plan.Revive()

	// Fail a read.
	plan.FailReadsAtOp(1, errInject)
	if _, err := fm.readContent(mustPath(t, "/ok")); !errors.Is(err, errInject) {
		t.Fatalf("want injected error, got %v", err)
	}
	plan.Revive()

	// The pre-existing file remains readable and valid afterwards.
	got, err := fm.readContent(mustPath(t, "/ok"))
	if err != nil || string(got) != "fine" {
		t.Fatalf("after faults: %q %v", got, err)
	}
}

// TestCounterGuardSurvivesRestart: with the counter guard, a relaunched
// enclave on the same platform accepts the current store state (counters
// persist in the platform).
func TestCounterGuardSurvivesRestart(t *testing.T) {
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
			contentGuard:   rollback.NewCounterGuard(encl, "content-root"),
			groupGuard:     rollback.NewCounterGuard(encl, "group-root"),
			journalCounter: encl.Counter("journal"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return fm
	}

	fm1 := build()
	if err := inOp(fm1, func() error {
		_, err := fm1.writeContent(mustPath(t, "/persist"), encodeRawBody([]byte("counted")), ownedACL(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	fm2 := build()
	got, err := fm2.readContent(mustPath(t, "/persist"))
	if err != nil || string(got) != "counted" {
		t.Fatalf("after restart: %q %v", got, err)
	}
	// And updates keep working (counter continues from its value).
	if err := inOp(fm2, func() error {
		_, err := fm2.writeContent(mustPath(t, "/persist"), encodeRawBody([]byte("again")), nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := fm2.readContent(mustPath(t, "/persist")); err != nil || string(got) != "again" {
		t.Fatalf("update after restart: %q %v", got, err)
	}
}

// TestCounterWearOutSurfacesGracefully: when the platform's counter wears
// out, writes fail with the counter error instead of corrupting state.
func TestCounterWearOutSurfacesGracefully(t *testing.T) {
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{CounterWearLimit: 6})
	if err != nil {
		t.Fatal(err)
	}
	encl, err := platform.Launch(enclave.CodeIdentity{Name: "segshare", Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := newFileManager(fmConfig{
		rootKey:        bytes.Repeat([]byte{2}, 32),
		contentStore:   store.NewMemory(),
		groupStore:     store.NewMemory(),
		rollbackOn:     true,
		contentGuard:   rollback.NewCounterGuard(encl, "content-root"),
		groupGuard:     rollback.NewCounterGuard(encl, "group-root"),
		journalCounter: encl.Counter("journal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wearErr error
	for i := 0; i < 20 && wearErr == nil; i++ {
		wearErr = inOp(fm, func() error {
			_, err := fm.writeContent(mustPath(t, "/wear"), encodeRawBody([]byte{byte(i)}), ownedACL(1))
			return err
		})
	}
	if !errors.Is(wearErr, enclave.ErrCounterWornOut) {
		t.Fatalf("want ErrCounterWornOut, got %v", wearErr)
	}
}
