package core

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// lockPlans names each plan of the lock manager, as request.go takes it.
var lockPlans = []struct {
	name string
	take func(lm *lockManager) (unlock func())
}{
	{"read", func(lm *lockManager) func() { return lm.read(nil, scopeFSRead) }},
	{"groupWrite", func(lm *lockManager) func() { return lm.groupWrite(nil) }},
	{"exclusive", func(lm *lockManager) func() { return lm.exclusive(nil, scopeFSWrite) }},
}

// TestLockPlanExclusion holds each plan and takes each plan beside it:
// two reads share, and every other pair blocks until the holder lets
// go. A content mutation under any plan but exclusive, or a read that
// waits for another read, fails here.
func TestLockPlanExclusion(t *testing.T) {
	for _, held := range lockPlans {
		for _, next := range lockPlans {
			share := held.name == "read" && next.name == "read"
			t.Run(held.name+"_then_"+next.name, func(t *testing.T) {
				lm := newLockManager(nil)
				unlock := held.take(lm)
				acquired := make(chan struct{})
				go func() {
					u := next.take(lm)
					close(acquired)
					u()
				}()
				if share {
					select {
					case <-acquired:
					case <-time.After(5 * time.Second):
						t.Fatalf("%s blocked behind %s", next.name, held.name)
					}
					unlock()
					return
				}
				select {
				case <-acquired:
					t.Fatalf("%s acquired while %s was held", next.name, held.name)
				case <-time.After(50 * time.Millisecond):
				}
				unlock()
				select {
				case <-acquired:
				case <-time.After(5 * time.Second):
					t.Fatalf("%s never acquired after %s released", next.name, held.name)
				}
			})
		}
	}
}

// Releasing a plan allocates nothing: each unlock is bound once, in
// newLockManager.
func TestLockPlansAllocateNothing(t *testing.T) {
	lm := newLockManager(nil)
	for _, plan := range lockPlans {
		if n := testing.AllocsPerRun(100, func() { plan.take(lm)() }); n != 0 {
			t.Errorf("%s: %.0f allocs per lock and unlock, want 0", plan.name, n)
		}
	}
}

// Heavy mixed traffic through every plan, under -race: deadlock-freedom,
// and exclusion as the race detector sees it — readers read cells of
// state that only the two write plans change. Each subtest spreads the
// writes over that many cells: four, or all on one. Failure mode is a
// test timeout or a reported race.
func TestLockManagerMixedTrafficNoDeadlock(t *testing.T) {
	for _, shards := range []int{4, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			mixedLockTraffic(t, newLockManager(nil), shards)
		})
	}
}

func mixedLockTraffic(t *testing.T, lm *lockManager, cells int) {
	state := make([]int, cells)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				plan := lockPlans[(g+i)%len(lockPlans)]
				unlock := plan.take(lm)
				if plan.name == "read" {
					for _, n := range state {
						if n < 0 {
							t.Error("negative write count")
						}
					}
				} else {
					state[(g+i)%cells]++
				}
				unlock()
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range state {
		total += n
	}
	if want := 16 * 300 * 2 / 3; total != want {
		t.Fatalf("%d writes counted, want %d", total, want)
	}
}

// blocksUntil runs op in the background while the caller holds a lock,
// fails if op finishes before release runs, and fails if it has not
// finished 5s after.
func blocksUntil(t *testing.T, release func(), op func() error, what string) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		t.Fatalf("%s finished while the lock was held (err %v)", what, err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never finished after the lock was released", what)
	}
}

// A download of a file waits while a write of that same file holds its
// plan: the read path of the request layer takes a plan the exclusive
// one excludes.
func TestOverlappingWriteExcludesRead(t *testing.T) {
	server := newDirectServer(t)
	alice := server.Direct("alice")
	if err := alice.Upload("/x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	unlock := server.locks.exclusive(nil, scopeFSWrite)
	blocksUntil(t, unlock, func() error {
		_, err := alice.Download("/x")
		return err
	}, "download under a write")
}

// A directory move takes the whole tree: it waits for a read in flight
// anywhere, even of an unrelated path, and only then relocates the
// subtree.
func TestMoveLocksDirectoryEscalates(t *testing.T) {
	server := newDirectServer(t)
	alice := server.Direct("alice")
	if err := alice.Mkdir("/a/"); err != nil {
		t.Fatal(err)
	}
	if err := alice.Upload("/a/f", []byte("moved")); err != nil {
		t.Fatal(err)
	}
	unlock := server.locks.read(nil, scopeFSRead)
	blocksUntil(t, unlock, func() error { return alice.Move("/a/", "/b/") }, "directory move under a read")
	got, err := alice.Download("/b/f")
	if err != nil || string(got) != "moved" {
		t.Fatalf("after move: %q %v", got, err)
	}
}
