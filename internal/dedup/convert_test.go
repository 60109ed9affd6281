package dedup

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"segshare/internal/store"
)

// testdata/parent holds a dedup store written before per-object reference
// records, under parentRootKey: the objects of parentContents, where
// parentContents[i] was put i+1 times, and the single reference table
// "_refs" that counted them. Each file is one object, named as stored.
var (
	parentRootKey  = []byte("dedup parent fixture root key")
	parentContents = []string{"object referenced once", "object referenced twice", "object referenced three times"}
)

var errKilled = errors.New("killed")

// copyParentFixture puts every object of testdata/parent into backend.
func copyParentFixture(t *testing.T, backend store.Backend) {
	t.Helper()
	entries, err := os.ReadDir("testdata/parent")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata/parent", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Put(e.Name(), data); err != nil {
			t.Fatal(err)
		}
	}
}

// checkParentCounts asserts that s holds the fixture's counts as records
// and that the reference table is gone from backend.
func checkParentCounts(t *testing.T, s *Store, backend store.Backend) {
	t.Helper()
	if ok, err := backend.Exists(legacyRefsName); err != nil || ok {
		t.Fatalf("reference table still stored after conversion (exists=%v, err=%v)", ok, err)
	}
	for i, c := range parentContents {
		if n, err := s.RefCount(s.contentName([]byte(c))); err != nil || n != uint32(i+1) {
			t.Fatalf("RefCount(%q) = %d, %v; want %d", c, n, err, i+1)
		}
	}
}

// TestConvertParentStore opens a store written before reference records:
// New converts its table to records with the same counts, and each object
// is freed exactly at its last Release.
func TestConvertParentStore(t *testing.T) {
	backend := store.NewMemory()
	copyParentFixture(t, backend)
	s, err := New(backend, parentRootKey)
	if err != nil {
		t.Fatalf("New over the parent store: %v", err)
	}
	checkParentCounts(t, s, backend)
	for i, c := range parentContents {
		hName := s.contentName([]byte(c))
		for left := i + 1; left > 0; left-- {
			removed, err := s.Release(hName)
			if err != nil || removed != (left == 1) {
				t.Fatalf("%q: Release with %d references left: removed=%v err=%v", c, left, removed, err)
			}
			got, err := s.Get(hName)
			switch {
			case left > 1 && (err != nil || !bytes.Equal(got, []byte(c))):
				t.Fatalf("%q: Get with %d references left = %q, %v", c, left-1, got, err)
			case left == 1 && !errors.Is(err, ErrNotFound):
				t.Fatalf("%q: Get after the last Release: want ErrNotFound, got %v", c, err)
			}
		}
	}
	if names, err := backend.List(); err != nil || len(names) != 0 {
		t.Fatalf("store after every Release holds %v (err %v); want nothing", names, err)
	}
}

// TestConvertCrashAtEveryWrite kills the backend at every mutating
// operation of the conversion. The table is deleted last, so the next
// open converts again and ends with the fixture's counts.
func TestConvertCrashAtEveryWrite(t *testing.T) {
	for k := 1; ; k++ {
		plan := store.NewFaultPlan()
		backend := store.NewFaultyWithPlan(store.NewMemory(), plan)
		copyParentFixture(t, backend)
		plan.KillAtOp(k, errKilled)
		_, killedErr := New(backend, parentRootKey)
		plan.Revive()
		s, err := New(backend, parentRootKey)
		if err != nil {
			t.Fatalf("kill at write %d: reopen: %v", k, err)
		}
		checkParentCounts(t, s, backend)
		if killedErr == nil {
			if k == 1 {
				t.Fatal("the conversion wrote nothing")
			}
			return
		}
	}
}

// TestCrashAtEveryPutAndRelease kills the backend at every mutating
// operation of a run of Puts and Releases, reopens the store over what
// was left, and checks that crash windows only leak counts upward: every
// stored count is at least the references still held, and every held
// object is readable.
func TestCrashAtEveryPutAndRelease(t *testing.T) {
	contents := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	steps := []struct {
		put bool
		i   int
	}{
		{true, 0}, {true, 0}, {true, 1}, {false, 0}, {true, 2},
		{false, 1}, {false, 0}, {true, 1}, {true, 2}, {false, 2},
	}
	for k := 1; ; k++ {
		plan := store.NewFaultPlan()
		backend := store.NewFaultyWithPlan(store.NewMemory(), plan)
		s, err := New(backend, []byte("root-key"))
		if err != nil {
			t.Fatal(err)
		}
		plan.KillAtOp(k, errKilled)
		live := make(map[string]int)
		killed := false
		for _, st := range steps {
			hName := s.contentName(contents[st.i])
			if st.put {
				if _, _, err := s.Put(contents[st.i]); err != nil {
					killed = true
					break
				}
				live[hName]++
				continue
			}
			// A holder gives its reference up whether or not the Release
			// reaches the store: the content file no longer points here.
			live[hName]--
			if _, err := s.Release(hName); err != nil {
				killed = true
				break
			}
		}
		plan.Revive()
		reopened, err := New(backend, []byte("root-key"))
		if err != nil {
			t.Fatalf("kill at write %d: reopen: %v", k, err)
		}
		for i, c := range contents {
			hName := s.contentName(c)
			n, err := reopened.RefCount(hName)
			if err != nil {
				t.Fatalf("kill at write %d: RefCount(%s): %v", k, c, err)
			}
			held := live[hName]
			if int(n) < held || (!killed && int(n) != held) {
				t.Fatalf("kill at write %d (killed=%v): %s stored %d, held %d", k, killed, c, n, held)
			}
			got, err := reopened.Get(hName)
			if held > 0 && (err != nil || !bytes.Equal(got, contents[i])) {
				t.Fatalf("kill at write %d: held object %s: Get = %q, %v", k, c, got, err)
			}
			if !killed && held == 0 && !errors.Is(err, ErrNotFound) {
				t.Fatalf("object %s with no references is still stored (Get err %v)", c, err)
			}
		}
		if !killed {
			if k == 1 {
				t.Fatal("the run wrote nothing")
			}
			return
		}
	}
}

// TestParentObjectsOpen reads the objects a parent-era store wrote, each
// under a wrapped random key: each opens at its address to its content,
// and one copied onto another's address fails the HMAC check there.
func TestParentObjectsOpen(t *testing.T) {
	backend := store.NewMemory()
	copyParentFixture(t, backend)
	s, err := New(backend, parentRootKey)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range parentContents {
		if got, err := s.Get(s.contentName([]byte(c))); err != nil || string(got) != c {
			t.Fatalf("Get(%q) = %q, %v", c, got, err)
		}
	}
	from, to := s.contentName([]byte(parentContents[0])), s.contentName([]byte(parentContents[1]))
	obj, err := backend.Get(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Put(to, obj); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(to); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("parent object copied onto another address: want ErrCorrupt, got %v", err)
	}
}
