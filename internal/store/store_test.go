package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// backendsUnderTest returns fresh instances of every Backend
// implementation so the conformance tests run against all of them.
func backendsUnderTest(t *testing.T) map[string]Backend {
	t.Helper()
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	return map[string]Backend{
		"memory":    NewMemory(),
		"disk":      disk,
		"adversary": NewAdversary(NewMemory()),
		"faulty":    NewFaultyWithPlan(NewMemory(), NewFaultPlan()),
	}
}

func TestBackendBasics(t *testing.T) {
	for name, b := range backendsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			testBackendBasics(t, b)
		})
	}
}

func testBackendBasics(t *testing.T, b Backend) {
	t.Helper()

	// Absent object.
	if _, err := b.Get("missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Get missing: want ErrNotExist, got %v", err)
	}
	if err := b.Delete("missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Delete missing: want ErrNotExist, got %v", err)
	}
	if ok, err := b.Exists("missing"); err != nil || ok {
		t.Fatalf("Exists missing = %v, %v", ok, err)
	}

	// Put / Get round trip, including awkward names.
	names := []string{"/a/b.txt", "plain", "with space", "ünïcode/→", ""}
	for i, name := range names {
		data := []byte(fmt.Sprintf("payload-%d", i))
		if err := b.Put(name, data); err != nil {
			t.Fatalf("Put(%q): %v", name, err)
		}
		got, err := b.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("Get(%q) = %q, want %q", name, got, data)
		}
	}

	// Overwrite.
	if err := b.Put("plain", []byte("v2")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if got, _ := b.Get("plain"); string(got) != "v2" {
		t.Fatalf("overwrite read back %q", got)
	}

	// List is sorted and complete.
	list, err := b.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if !sort.StringsAreSorted(list) {
		t.Fatalf("List not sorted: %v", list)
	}
	if len(list) != len(names) {
		t.Fatalf("List has %d entries, want %d: %v", len(list), len(names), list)
	}

	// Rename semantics.
	if err := b.Rename("plain", "renamed"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if ok, _ := b.Exists("plain"); ok {
		t.Fatal("old name still exists after rename")
	}
	if got, err := b.Get("renamed"); err != nil || string(got) != "v2" {
		t.Fatalf("renamed content = %q, %v", got, err)
	}
	if err := b.Rename("missing", "x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Rename missing: want ErrNotExist, got %v", err)
	}
	if err := b.Rename("renamed", "/a/b.txt"); !errors.Is(err, ErrExist) {
		t.Fatalf("Rename onto existing: want ErrExist, got %v", err)
	}

	// Delete.
	if err := b.Delete("renamed"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if ok, _ := b.Exists("renamed"); ok {
		t.Fatal("object exists after delete")
	}

	// TotalBytes is the sum of payload sizes.
	total, err := b.TotalBytes()
	if err != nil {
		t.Fatalf("TotalBytes: %v", err)
	}
	var want int64
	remaining, _ := b.List()
	for _, name := range remaining {
		data, err := b.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		want += int64(len(data))
	}
	if total != want {
		t.Fatalf("TotalBytes = %d, want %d", total, want)
	}
}

func TestMemoryPutCopiesData(t *testing.T) {
	m := NewMemory()
	data := []byte("mutable")
	if err := m.Put("k", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	got, _ := m.Get("k")
	if string(got) != "mutable" {
		t.Fatal("Put did not copy caller's slice")
	}
	got[0] = 'Y'
	again, _ := m.Get("k")
	if string(again) != "mutable" {
		t.Fatal("Get exposed internal slice")
	}
}

func TestDiskPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put("/enc/file", []byte("ciphertext")); err != nil {
		t.Fatal(err)
	}
	d2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d2.Get("/enc/file")
	if err != nil || string(got) != "ciphertext" {
		t.Fatalf("reopen read = %q, %v", got, err)
	}
}

func TestMemoryConcurrentAccess(t *testing.T) {
	m := NewMemory()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("obj-%d", i)
			for j := 0; j < 200; j++ {
				if err := m.Put(name, []byte{byte(j)}); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, err := m.Get(name); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if _, err := m.List(); err != nil {
					t.Errorf("List: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestAdversaryCorruptAndRollback(t *testing.T) {
	adv := NewAdversary(NewMemory())
	if err := adv.Put("obj", []byte("version-1")); err != nil {
		t.Fatal(err)
	}
	if err := adv.RememberObject("obj"); err != nil {
		t.Fatal(err)
	}
	if err := adv.Put("obj", []byte("version-2")); err != nil {
		t.Fatal(err)
	}

	if err := adv.RollbackObject("obj"); err != nil {
		t.Fatal(err)
	}
	got, _ := adv.Get("obj")
	if string(got) != "version-1" {
		t.Fatalf("rollback read = %q", got)
	}

	if err := adv.FlipBit("obj", 3); err != nil {
		t.Fatal(err)
	}
	got, _ = adv.Get("obj")
	if string(got) == "version-1" {
		t.Fatal("FlipBit did not change the object")
	}

	if err := adv.RollbackObject("never-remembered"); err == nil {
		t.Fatal("rollback of unremembered object succeeded")
	}
}

func TestAdversaryStoreRollback(t *testing.T) {
	adv := NewAdversary(NewMemory())
	if err := adv.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	adv.SnapshotStore()
	if err := adv.Put("a", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := adv.Put("b", []byte("new")); err != nil {
		t.Fatal(err)
	}
	adv.RollbackStore()
	got, _ := adv.Get("a")
	if string(got) != "1" {
		t.Fatalf("store rollback: a = %q", got)
	}
	if ok, _ := adv.Exists("b"); ok {
		t.Fatal("store rollback kept post-snapshot object")
	}
}

func TestAdversaryDropWrites(t *testing.T) {
	adv := NewAdversary(NewMemory())
	adv.SetDropWrites(true)
	if err := adv.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if ok, _ := adv.Exists("a"); ok {
		t.Fatal("dropped write landed")
	}
	adv.SetDropWrites(false)
	if err := adv.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if ok, _ := adv.Exists("a"); !ok {
		t.Fatal("write after re-enable missing")
	}
}

func TestFaultyInjection(t *testing.T) {
	errInjected := errors.New("injected")
	plan := NewFaultPlan()
	f := NewFaultyWithPlan(NewMemory(), plan)
	plan.FailAtOp(2, errInjected)

	if err := f.Put("a", nil); err != nil {
		t.Fatalf("first put should succeed: %v", err)
	}
	if err := f.Put("b", nil); !errors.Is(err, errInjected) {
		t.Fatalf("second put: want injected error, got %v", err)
	}
	if err := f.Put("c", nil); err != nil {
		t.Fatalf("third put should succeed: %v", err)
	}

	plan.FailReadsAtOp(1, errInjected)
	if _, err := f.Get("a"); !errors.Is(err, errInjected) {
		t.Fatalf("get: want injected error, got %v", err)
	}
	plan.FailReadsAtOp(1, errInjected)
	if _, err := f.List(); !errors.Is(err, errInjected) {
		t.Fatalf("list: want injected error, got %v", err)
	}
	plan.Revive()
	if _, err := f.Get("a"); err != nil {
		t.Fatalf("after Revive: %v", err)
	}
}

// Property: for any sequence of puts, memory and disk backends agree on
// List and contents.
func TestQuickMemoryDiskEquivalence(t *testing.T) {
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	prop := func(keys []string, vals [][]byte) bool {
		for i, k := range keys {
			var v []byte
			if i < len(vals) {
				v = vals[i]
			}
			if err := mem.Put(k, v); err != nil {
				return false
			}
			if err := disk.Put(k, v); err != nil {
				return false
			}
		}
		ml, err1 := mem.List()
		dl, err2 := disk.List()
		if err1 != nil || err2 != nil || len(ml) != len(dl) {
			return false
		}
		for i := range ml {
			if ml[i] != dl[i] {
				return false
			}
			mv, err1 := mem.Get(ml[i])
			dv, err2 := disk.Get(dl[i])
			if err1 != nil || err2 != nil || !bytes.Equal(mv, dv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDiskDetectsNameMismatch(t *testing.T) {
	// If the provider copies one object file over another (header name no
	// longer matches the requested name), Get must refuse rather than
	// serve the wrong object.
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("b", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	// Overwrite b's file with a's file on disk.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, e := range entries {
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	if len(paths) != 2 {
		t.Fatalf("files = %v", paths)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[1], data, 0o600); err != nil {
		t.Fatal(err)
	}
	// Exactly one of the two names now detects the swap.
	_, errA := d.Get("a")
	_, errB := d.Get("b")
	if errA == nil && errB == nil {
		t.Fatal("object-file swap went unnoticed")
	}
}

func TestCopyAndCopyExact(t *testing.T) {
	src := NewMemory()
	dst := NewMemory()
	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}} {
		if err := src.Put(kv[0], []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.Put("stale", []byte("x")); err != nil {
		t.Fatal(err)
	}

	if err := Copy(dst, src); err != nil {
		t.Fatalf("Copy: %v", err)
	}
	if got, _ := dst.Get("a"); string(got) != "1" {
		t.Fatalf("copied a = %q", got)
	}
	if ok, _ := dst.Exists("stale"); !ok {
		t.Fatal("Copy removed extra object")
	}

	if err := CopyExact(dst, src); err != nil {
		t.Fatalf("CopyExact: %v", err)
	}
	if ok, _ := dst.Exists("stale"); ok {
		t.Fatal("CopyExact kept extra object")
	}
	names, _ := dst.List()
	if len(names) != 2 {
		t.Fatalf("after CopyExact: %v", names)
	}
}
