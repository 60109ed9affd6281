package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"segshare/internal/store"
)

func newStore(t *testing.T) (*Store, *store.Adversary) {
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
	// Only the tiny reference index may have grown.
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

func TestSwappedObjectsDetected(t *testing.T) {
	s, adv := newStore(t)
	h1, _, err := s.Put([]byte("content one"))
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := s.Put([]byte("content two"))
	if err != nil {
		t.Fatal(err)
	}
	// The adversary swaps the two encrypted objects. Both decrypt fine,
	// but the address↔content binding must catch the swap.
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
}

func TestTamperedRefIndexDetected(t *testing.T) {
	s, adv := newStore(t)
	if _, _, err := s.Put([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := adv.FlipBit(refsName, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RefCount("anything"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
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

// TestRefIndexFollowsStoredTable pins where the in-memory reference index
// comes from: a new Store and a Reload read the stored table, and a save
// that fails drops the copy it could not persist.
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
	// A duplicate Put writes only the index; fail that write.
	plan.FailAtOp(1, errors.New("injected"))
	if _, _, err := s.Put(content); err == nil {
		t.Fatal("Put with a failing index save succeeded")
	}
	if _, _, err := s.Put(content); err != nil {
		t.Fatal(err)
	}
	if n, err := s.RefCount(hName); err != nil || n != 2 {
		t.Fatalf("RefCount after a failed save and a retry = %d, %v; want 2", n, err)
	}

	// A second store over the same backend moves the stored table on;
	// the first one sees that only after Reload.
	other, err := New(faulty, []byte("root-key"))
	if err != nil {
		t.Fatal(err)
	}
	if removed, err := other.Release(hName); err != nil || removed {
		t.Fatalf("Release through a new store: removed=%v err=%v", removed, err)
	}
	s.Reload()
	if removed, err := s.Release(hName); err != nil || !removed {
		t.Fatalf("last Release after Reload: removed=%v err=%v", removed, err)
	}
	if n, err := other.RefCount(hName); err != nil || n != 0 {
		t.Fatalf("stored RefCount = %d, %v; want 0", n, err)
	}
}
