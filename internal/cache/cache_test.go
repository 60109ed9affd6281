package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutBasics(t *testing.T) {
	c := New[string](1024)
	if _, ok := c.Get("a"); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	if !c.Put("a", "alpha", 10, c.Gen()) {
		t.Fatal("Put rejected")
	}
	v, ok := c.Get("a")
	if !ok || v != "alpha" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Cost != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutReplacesExisting(t *testing.T) {
	c := New[int](100)
	c.Put("k", 1, 40, c.Gen())
	c.Put("k", 2, 60, c.Gen())
	v, ok := c.Get("k")
	if !ok || v != 2 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	if st := c.Stats(); st.Cost != 60 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSizeBoundAndEviction(t *testing.T) {
	c := New[int](100)
	for i := 0; i < 10; i++ {
		if !c.Put(fmt.Sprintf("k%d", i), i, 10, c.Gen()) {
			t.Fatalf("Put k%d rejected", i)
		}
	}
	// Full. The next insert must evict exactly one unreferenced entry.
	if !c.Put("extra", 99, 10, c.Gen()) {
		t.Fatal("Put extra rejected")
	}
	st := c.Stats()
	if st.Cost > 100 {
		t.Fatalf("cost %d exceeds capacity", st.Cost)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestClockSecondChance(t *testing.T) {
	c := New[int](30)
	c.Put("a", 1, 10, c.Gen())
	c.Put("b", 2, 10, c.Gen())
	c.Put("c", 3, 10, c.Gen())
	// Touch a and c so their reference bits are set; b is the victim.
	c.Get("a")
	c.Get("c")
	c.Put("d", 4, 10, c.Gen())
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived although unreferenced")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s was evicted although referenced", k)
		}
	}
}

func TestOversizedValueRejected(t *testing.T) {
	c := New[int](100)
	if c.Put("big", 1, 101, c.Gen()) {
		t.Fatal("oversized value accepted")
	}
}

func TestInvalidateRemovesAndBumpsGen(t *testing.T) {
	c := New[int](100)
	gen := c.Gen()
	c.Put("k", 1, 10, gen)
	c.Invalidate("k")
	if _, ok := c.Get("k"); ok {
		t.Fatal("invalidated key still cached")
	}
	// A load that started before the invalidation must not re-insert.
	if c.Put("k", 1, 10, gen) {
		t.Fatal("stale-generation Put accepted")
	}
	// A fresh load inserts fine.
	if !c.Put("k", 2, 10, c.Gen()) {
		t.Fatal("fresh Put rejected")
	}
}

func TestInvalidateMissingKeyStillBumpsGen(t *testing.T) {
	c := New[int](100)
	gen := c.Gen()
	c.Invalidate("never-cached")
	if c.Gen() == gen {
		t.Fatal("generation unchanged")
	}
}

func TestFlush(t *testing.T) {
	c := New[int](100)
	gen := c.Gen()
	c.Put("a", 1, 10, gen)
	c.Put("b", 2, 10, gen)
	c.Flush()
	if st := c.Stats(); st.Entries != 0 || st.Cost != 0 {
		t.Fatalf("stats after flush = %+v", st)
	}
	if c.Put("a", 1, 10, gen) {
		t.Fatal("pre-flush generation accepted")
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache[int]
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	if c.Put("k", 1, 1, c.Gen()) {
		t.Fatal("nil cache accepted Put")
	}
	c.Invalidate("k")
	c.Flush()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("stats = %+v", st)
	}
	if New[int](0) != nil || New[int](-5) != nil {
		t.Fatal("non-positive capacity must return nil")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int](1 << 12)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", i%64)
				switch i % 5 {
				case 0:
					c.Put(k, i, int64(1+i%128), c.Gen())
				case 4:
					c.Invalidate(k)
				default:
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Cost > st.Capacity || st.Cost < 0 {
		t.Fatalf("accounting broken: %+v", st)
	}
}

// A cache that churns below its capacity never evicts, so the ring must
// shed invalidated and overwritten slots — and their values — on its
// own: it stays within twice the live count plus the compaction slack.
func TestChurnKeepsRingBounded(t *testing.T) {
	c := New[[]byte](1 << 20)
	check := func(phase string) {
		t.Helper()
		live := len(c.entries)
		if len(c.ring) > 2*live+compactSlack+1 {
			t.Fatalf("%s: ring holds %d slots for %d live entries", phase, len(c.ring), live)
		}
		for _, e := range c.ring {
			if e.dead && e.val != nil {
				t.Fatalf("%s: dead slot %q still holds its value", phase, e.key)
			}
		}
	}
	val := make([]byte, 64)
	for i := 0; i < 100_000; i++ {
		c.Put("k", val, int64(len(val)), c.Gen())
		c.Invalidate("k")
	}
	check("put+invalidate")
	for i := 0; i < 100_000; i++ {
		c.Put("k", val, int64(len(val)), c.Gen())
	}
	check("overwrite")
	// Churn among a working set, with evictions mixed in, keeps the
	// bound and the CLOCK still finds victims.
	c = New[[]byte](10 * 64)
	for i := 0; i < 10_000; i++ {
		k := fmt.Sprintf("k%d", i%37)
		c.Put(k, val, int64(len(val)), c.Gen())
		if i%3 == 0 {
			c.Invalidate(fmt.Sprintf("k%d", (i+5)%37))
		}
		c.Get(fmt.Sprintf("k%d", (i+1)%37))
	}
	check("working set")
	if st := c.Stats(); st.Cost > st.Capacity || st.Entries != len(c.entries) || st.Evictions == 0 {
		t.Fatalf("stats after churn = %+v", st)
	}
}
