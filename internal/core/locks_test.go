package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"segshare/internal/fspath"
)

func TestShardSetIncludesParentAndIsSorted(t *testing.T) {
	lm := newLockManager(64, false, nil)
	p := mustPath(t, "/a/b/c.txt")
	sp := lm.shardSet(p)
	idx := sp.at[:sp.n]
	want := map[int]bool{
		lm.shardIndex(p):          true,
		lm.shardIndex(p.Parent()): true,
	}
	if len(idx) != len(want) {
		t.Fatalf("shardSet = %v, want the shards of the path and its parent", idx)
	}
	for i, v := range idx {
		if !want[v] {
			t.Fatalf("unexpected shard %d in %v", v, idx)
		}
		if i > 0 && idx[i-1] >= v {
			t.Fatalf("shard set not strictly ascending: %v", idx)
		}
	}
}

func TestShardSetRootHasNoParent(t *testing.T) {
	lm := newLockManager(8, false, nil)
	sp := lm.shardSet(fspath.Root)
	if sp.n != 1 {
		t.Fatalf("shardSet(root) = %v, want exactly one shard", sp.at[:sp.n])
	}
}

// Disjoint-path writers must be able to hold their fsWrite plans at the
// same time (the whole point of sharding). The test picks two paths in
// different shards and verifies the second acquisition does not block on
// the first.
func TestDisjointWritesDoNotBlock(t *testing.T) {
	lm := newLockManager(64, false, nil)
	a := mustPath(t, "/a/x")
	var b fspath.Path
	for _, cand := range []string{"/b/y", "/c/z", "/d/w", "/e/v", "/f/u", "/g/t"} {
		p := mustPath(t, cand)
		if !shardsOverlap(lm, a, p) {
			b = p
			break
		}
	}
	if b.IsZero() {
		t.Skip("no disjoint candidate found (improbable)")
	}
	unlockA := lm.fsWrite(nil, false, a)
	defer unlockA()
	done := make(chan struct{})
	go func() {
		unlockB := lm.fsWrite(nil, false, b)
		unlockB()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("write on a disjoint path blocked behind an unrelated write lock")
	}
}

func shardsOverlap(lm *lockManager, a, b fspath.Path) bool {
	in := map[int]bool{}
	spA, spB := lm.shardSet(a), lm.shardSet(b)
	for _, i := range spA.at[:spA.n] {
		in[i] = true
	}
	for _, i := range spB.at[:spB.n] {
		if in[i] {
			return true
		}
	}
	return false
}

// Overlapping acquisitions must exclude: a write on a path blocks a read
// of the same path until released.
func TestOverlappingWriteExcludesRead(t *testing.T) {
	lm := newLockManager(64, false, nil)
	p := mustPath(t, "/a/x")
	unlock := lm.fsWrite(nil, false, p)
	acquired := make(chan struct{})
	go func() {
		u := lm.fsRead(nil, p)
		close(acquired)
		u()
	}()
	select {
	case <-acquired:
		t.Fatal("read acquired while an overlapping write was held")
	case <-time.After(50 * time.Millisecond):
	}
	unlock()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("read never acquired after write released")
	}
}

// In coupled (rollback-protection) mode every content write escalates to
// the exclusive barrier, so even disjoint writes serialize — and a
// concurrent whole-tree hold blocks them.
func TestCoupledModeWritesAreExclusive(t *testing.T) {
	lm := newLockManager(64, true, nil)
	a := mustPath(t, "/a/x")
	b := mustPath(t, "/b/y")
	unlockA := lm.fsWrite(nil, false, a)
	acquired := make(chan struct{})
	go func() {
		u := lm.fsWrite(nil, false, b)
		close(acquired)
		u()
	}()
	select {
	case <-acquired:
		t.Fatal("coupled-mode writes ran concurrently")
	case <-time.After(50 * time.Millisecond):
	}
	unlockA()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("second write never acquired")
	}
}

// Reads still share in coupled mode.
func TestCoupledModeReadsShare(t *testing.T) {
	lm := newLockManager(64, true, nil)
	p := mustPath(t, "/a/x")
	u1 := lm.fsRead(nil, p)
	defer u1()
	done := make(chan struct{})
	go func() {
		u2 := lm.fsRead(nil, p)
		u2()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent read blocked behind another read")
	}
}

// moveLocks must take the barrier for directory moves and the shard plan
// for file moves; directory moves therefore exclude everything.
func TestMoveLocksDirectoryEscalates(t *testing.T) {
	lm := newLockManager(64, false, nil)
	unlock := lm.moveLocks(nil, mustPath(t, "/a/"), mustPath(t, "/b/"))
	acquired := make(chan struct{})
	go func() {
		u := lm.fsRead(nil, mustPath(t, "/elsewhere"))
		close(acquired)
		u()
	}()
	select {
	case <-acquired:
		t.Fatal("read acquired during a directory move")
	case <-time.After(50 * time.Millisecond):
	}
	unlock()
	<-acquired
}

// Heavy mixed traffic through every plan, under -race: deadlock-freedom
// and ordered multi-shard acquisition. Few shards mean frequent overlap;
// one shard puts every path and its parent on the same mutex, the
// degenerate plan a multi-path acquisition must still deduplicate.
// Failure mode is a test timeout.
func TestLockManagerMixedTrafficNoDeadlock(t *testing.T) {
	for _, shards := range []int{4, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			mixedLockTraffic(t, newLockManager(shards, false, nil))
		})
	}
}

func mixedLockTraffic(t *testing.T, lm *lockManager) {
	paths := []fspath.Path{
		mustPath(t, "/a/x"), mustPath(t, "/a/y"), mustPath(t, "/b/x"),
		mustPath(t, "/b/"), mustPath(t, "/c/d/e"), fspath.Root,
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				p := paths[(g+i)%len(paths)]
				q := paths[(g+i*7+1)%len(paths)]
				switch i % 5 {
				case 0:
					u := lm.fsWrite(nil, i%2 == 0, p, q)
					u()
				case 1:
					u := lm.groupWrite(nil)
					u()
				case 2:
					u := lm.wholeTree(nil)
					u()
				case 3:
					u := lm.groupRead(nil)
					u()
				default:
					u := lm.fsRead(nil, p, q)
					u()
				}
			}
		}(g)
	}
	wg.Wait()
}
