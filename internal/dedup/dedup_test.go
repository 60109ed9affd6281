package dedup

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"segshare/internal/pae"
	"segshare/internal/pfs"
	"segshare/internal/store"
)

func newStore(t testing.TB) (*Store, *store.Adversary) {
	t.Helper()
	adv := store.NewAdversary(store.NewMemory())
	s, err := New(adv, []byte("root-key"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, adv
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := newStore(t)
	content := []byte("shared report contents")
	hName, dup, err := s.Put(content)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if dup {
		t.Fatal("first Put reported duplicate")
	}
	got, err := s.Get(hName)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("Get = %q", got)
	}
}

func TestDeduplication(t *testing.T) {
	s, _ := newStore(t)
	content := bytes.Repeat([]byte("x"), 10_000)

	h1, _, err := s.Put(content)
	if err != nil {
		t.Fatal(err)
	}
	size1, err := s.TotalBytes()
	if err != nil {
		t.Fatal(err)
	}

	// Same content again (e.g. uploaded by a different group, §V-A).
	h2, dup, err := s.Put(content)
	if err != nil {
		t.Fatal(err)
	}
	if !dup {
		t.Fatal("second Put not reported as duplicate")
	}
	if h1 != h2 {
		t.Fatalf("content addresses differ: %s vs %s", h1, h2)
	}
	size2, err := s.TotalBytes()
	if err != nil {
		t.Fatal(err)
	}
	// Only the object's reference record may have been rewritten.
	if size2-size1 > 1024 {
		t.Fatalf("duplicate Put grew store by %d bytes", size2-size1)
	}

	if n, err := s.RefCount(h1); err != nil || n != 2 {
		t.Fatalf("RefCount = %d, %v", n, err)
	}

	// Different content gets a different address.
	h3, dup, err := s.Put([]byte("different"))
	if err != nil {
		t.Fatal(err)
	}
	if dup || h3 == h1 {
		t.Fatalf("different content: dup=%v h=%s", dup, h3)
	}
}

func TestReleaseRefcounting(t *testing.T) {
	s, _ := newStore(t)
	content := []byte("refcounted")
	hName, _, err := s.Put(content)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(content); err != nil {
		t.Fatal(err)
	}

	removed, err := s.Release(hName)
	if err != nil || removed {
		t.Fatalf("first Release: removed=%v err=%v", removed, err)
	}
	if _, err := s.Get(hName); err != nil {
		t.Fatalf("object gone after first release: %v", err)
	}

	removed, err = s.Release(hName)
	if err != nil || !removed {
		t.Fatalf("final Release: removed=%v err=%v", removed, err)
	}
	if _, err := s.Get(hName); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after removal: want ErrNotFound, got %v", err)
	}
	if _, err := s.Release(hName); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Release after removal: want ErrNotFound, got %v", err)
	}
	if n, _ := s.RefCount(hName); n != 0 {
		t.Fatalf("RefCount after removal = %d", n)
	}
}

func TestGetUnknown(t *testing.T) {
	s, _ := newStore(t)
	if _, err := s.Get("doesnotexist"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestTamperedObjectDetected(t *testing.T) {
	s, adv := newStore(t)
	hName, _, err := s.Put([]byte("sensitive"))
	if err != nil {
		t.Fatal(err)
	}
	if err := adv.FlipBit(hName, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(hName); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered Get: want ErrCorrupt, got %v", err)
	}
}

// TestSwappedObjectsDetected swaps two stored objects, of each format
// and across formats. An address-keyed object fails GCM at the other
// address; a legacy object opens there but fails the HMAC check.
func TestSwappedObjectsDetected(t *testing.T) {
	for _, tc := range []struct {
		name             string
		legacy1, legacy2 bool
	}{
		{"new-new", false, false},
		{"legacy-legacy", true, true},
		{"new-legacy", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, adv := newStore(t)
			h1 := putObject(t, s, []byte("content one"), tc.legacy1)
			h2 := putObject(t, s, []byte("content two"), tc.legacy2)
			o1, err := adv.Get(h1)
			if err != nil {
				t.Fatal(err)
			}
			o2, err := adv.Get(h2)
			if err != nil {
				t.Fatal(err)
			}
			if err := adv.Put(h1, o2); err != nil {
				t.Fatal(err)
			}
			if err := adv.Put(h2, o1); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(h1); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("swapped Get h1: want ErrCorrupt, got %v", err)
			}
			if _, err := s.Get(h2); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("swapped Get h2: want ErrCorrupt, got %v", err)
			}
		})
	}
}

// putObject stores content through s, or as an object written before
// address keys when legacy is set, and checks that it reads back.
func putObject(t *testing.T, s *Store, content []byte, legacy bool) string {
	t.Helper()
	hName := s.contentName(content)
	if legacy {
		if err := s.backend.Put(hName, encodeLegacyObject(t, s, content)); err != nil {
			t.Fatal(err)
		}
	} else if _, _, err := s.Put(content); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(hName); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("Get of a fresh object = %q, %v", got, err)
	}
	return hName
}

// encodeLegacyObject seals content the way stores did before address
// keys: a fresh random key wrapped under the store's wrap key, then the
// pfs blob with an empty file ID.
func encodeLegacyObject(t testing.TB, s *Store, content []byte) []byte {
	t.Helper()
	fileKey, err := pae.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := pae.Encrypt(s.wrapKey, fileKey[:], []byte("dedup-object-key"))
	if err != nil {
		t.Fatal(err)
	}
	out := binary.BigEndian.AppendUint32(nil, uint32(len(wrapped)))
	out, err = pfs.AppendEncrypt(append(out, wrapped...), fileKey, nil, content, 1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// mapKeyCache is a KeyCache over a map that counts its calls.
type mapKeyCache struct {
	mu         sync.Mutex
	keys       map[string]*pfs.Keys
	hits, puts int
}

func (c *mapKeyCache) Keys(hName string) (*pfs.Keys, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k, ok := c.keys[hName]
	if ok {
		c.hits++
	}
	return k, ok
}

func (c *mapKeyCache) PutKeys(hName string, keys *pfs.Keys) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keys[hName] = keys
	c.puts++
}

// TestWarmGetDerivesNothing pins what a warm Get of an address-keyed
// object costs: its keys come from the key cache, and no HMAC checks the
// content. With the store's name and object-root keys replaced after the
// Put, a Get that recomputed the address or derived the object key would
// fail; the Get still returns the content. It allocates 21 times (the
// fetched copy, the file ID and the pfs open), where a Get that
// unwrapped a random key, expanded it and recomputed the HMAC on every
// read allocated 69 times.
func TestWarmGetDerivesNothing(t *testing.T) {
	kc := &mapKeyCache{keys: make(map[string]*pfs.Keys)}
	s, err := New(store.NewMemory(), []byte("root-key"), WithKeyCache(kc))
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("warm"), 16<<10)
	hName, _, err := s.Put(content)
	if err != nil {
		t.Fatal(err)
	}
	s.name = pae.NewMACKey([]byte("another name key"))
	s.objRoot = []byte("another object root")
	if got, err := s.Get(hName); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("warm Get = %d B, %v", len(got), err)
	}
	if kc.puts != 1 || kc.hits != 1 {
		t.Fatalf("key cache: %d puts, %d hits; want 1 put (the Put), 1 hit (the Get)", kc.puts, kc.hits)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.Get(hName); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 21 {
		t.Fatalf("warm Get allocates %v times, want at most 21", allocs)
	}
}

// TestTamperedRefIndexDetected covers the two ways the store can alter a
// reference record without the refs key: flipping a bit, and copying one
// object's valid record over another's. Both must fail to open.
func TestTamperedRefIndexDetected(t *testing.T) {
	t.Run("bit flip", func(t *testing.T) {
		s, adv := newStore(t)
		hName, _, err := s.Put([]byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if err := adv.FlipBit(refsName(hName), 5); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RefCount(hName); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("RefCount: want ErrCorrupt, got %v", err)
		}
		if _, _, err := s.Put([]byte("x")); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Put: want ErrCorrupt, got %v", err)
		}
		if _, err := s.Release(hName); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Release: want ErrCorrupt, got %v", err)
		}
	})
	t.Run("record copied onto another object", func(t *testing.T) {
		s, adv := newStore(t)
		h1, _, err := s.Put([]byte("content one"))
		if err != nil {
			t.Fatal(err)
		}
		h2, _, err := s.Put([]byte("content two"))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Put([]byte("content two")); err != nil {
			t.Fatal(err)
		}
		// h2's record holds a valid count of 2; under h1's name it would
		// keep h1's object alive past its last Release.
		rec, err := adv.Get(refsName(h2))
		if err != nil {
			t.Fatal(err)
		}
		if err := adv.Put(refsName(h1), rec); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RefCount(h1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("RefCount: want ErrCorrupt, got %v", err)
		}
		if _, err := s.Release(h1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Release: want ErrCorrupt, got %v", err)
		}
	})
}

func TestConcurrentPuts(t *testing.T) {
	s, _ := newStore(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the goroutines share content, half are unique.
			content := []byte(fmt.Sprintf("unique-%d", i))
			if i%2 == 0 {
				content = []byte("shared")
			}
			if _, _, err := s.Put(content); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	h := s.contentName([]byte("shared"))
	if n, err := s.RefCount(h); err != nil || n != 8 {
		t.Fatalf("shared RefCount = %d, %v", n, err)
	}
}

// Property: Put/Get round-trips and duplicate detection track a reference
// map for arbitrary content sequences.
func TestQuickDedupSemantics(t *testing.T) {
	s, _ := newStore(t)
	seen := make(map[string]bool)
	prop := func(content []byte) bool {
		hName, dup, err := s.Put(content)
		if err != nil {
			return false
		}
		if dup != seen[hName] {
			return false
		}
		seen[hName] = true
		got, err := s.Get(hName)
		return err == nil && bytes.Equal(got, content)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRefIndexFollowsStoredTable pins that reference counts live only in
// the store: a second Store over the same backend sees a change at once,
// a failed record write leaves the stored count for a retry to build on,
// and Reload converts a reference table restored underneath the store.
func TestRefIndexFollowsStoredTable(t *testing.T) {
	plan := store.NewFaultPlan()
	faulty := store.NewFaultyWithPlan(store.NewMemory(), plan)
	s, err := New(faulty, []byte("root-key"))
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("counted")
	hName, _, err := s.Put(content)
	if err != nil {
		t.Fatal(err)
	}
	// A duplicate Put writes only the record; fail that write.
	plan.FailAtOp(1, errors.New("injected"))
	if _, _, err := s.Put(content); err == nil {
		t.Fatal("Put with a failing record write succeeded")
	}
	if _, _, err := s.Put(content); err != nil {
		t.Fatal(err)
	}
	if n, err := s.RefCount(hName); err != nil || n != 2 {
		t.Fatalf("RefCount after a failed write and a retry = %d, %v; want 2", n, err)
	}

	// A second store over the same backend moves the count on, and the
	// first one sees it at once.
	other, err := New(faulty, []byte("root-key"))
	if err != nil {
		t.Fatal(err)
	}
	if removed, err := other.Release(hName); err != nil || removed {
		t.Fatalf("Release through a second store: removed=%v err=%v", removed, err)
	}
	if removed, err := s.Release(hName); err != nil || !removed {
		t.Fatalf("last Release through the first store: removed=%v err=%v", removed, err)
	}
	if n, err := other.RefCount(hName); err != nil || n != 0 {
		t.Fatalf("stored RefCount = %d, %v; want 0", n, err)
	}

	// A backup restored underneath a running store brings back a
	// reference table; Reload converts it.
	backend := store.NewMemory()
	restored, err := New(backend, parentRootKey)
	if err != nil {
		t.Fatal(err)
	}
	copyParentFixture(t, backend)
	if err := restored.Reload(); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	checkParentCounts(t, restored, backend)
}

// countingBackend counts the calls made to a backend and the bytes
// written to it.
type countingBackend struct {
	store.Backend
	calls, written int
}

func (c *countingBackend) Put(name string, data []byte) error {
	c.calls++
	c.written += len(data)
	return c.Backend.Put(name, data)
}

func (c *countingBackend) Get(name string) ([]byte, error) {
	c.calls++
	return c.Backend.Get(name)
}

func (c *countingBackend) Exists(name string) (bool, error) {
	c.calls++
	return c.Backend.Exists(name)
}

func (c *countingBackend) Delete(name string) error {
	c.calls++
	return c.Backend.Delete(name)
}

func (c *countingBackend) Rename(oldName, newName string) error {
	c.calls++
	return c.Backend.Rename(oldName, newName)
}

func (c *countingBackend) List() ([]string, error) {
	c.calls++
	return c.Backend.List()
}

// TestDedupWriteCostFlatInObjects pins that a dedup write's cost does not
// depend on how many unique objects the store holds: a duplicate Put and
// a Release each read and write one reference record, so beside 2 000
// objects they make the same backend calls and write the same bytes as
// beside 10.
func TestDedupWriteCostFlatInObjects(t *testing.T) {
	cost := func(objects int) (calls, written int) {
		backend := &countingBackend{Backend: store.NewMemory()}
		s, err := New(backend, []byte("root-key"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < objects; i++ {
			if _, _, err := s.Put(fmt.Appendf(nil, "object %d", i)); err != nil {
				t.Fatal(err)
			}
		}
		backend.calls, backend.written = 0, 0
		hName, dup, err := s.Put([]byte("object 0"))
		if err != nil || !dup {
			t.Fatalf("duplicate Put: dup=%v err=%v", dup, err)
		}
		if removed, err := s.Release(hName); err != nil || removed {
			t.Fatalf("Release: removed=%v err=%v", removed, err)
		}
		return backend.calls, backend.written
	}
	fewCalls, fewBytes := cost(10)
	manyCalls, manyBytes := cost(2000)
	t.Logf("duplicate Put + Release: 10 objects %d calls %d B; 2000 objects %d calls %d B", fewCalls, fewBytes, manyCalls, manyBytes)
	if manyCalls != fewCalls || manyBytes != fewBytes {
		t.Errorf("beside 2000 objects a duplicate Put + Release makes %d calls writing %d B; beside 10, %d calls writing %d B",
			manyCalls, manyBytes, fewCalls, fewBytes)
	}
}
