package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"segshare/internal/acl"
	"segshare/internal/fspath"
)

// TestTreeConsistencyUnderRandomOps drives the trusted file manager with
// a long random operation sequence (creates, updates, permission changes,
// moves, removals, directory creation) and after every operation verifies
// that EVERY reachable file still validates against the incremental
// rollback tree. This is the incremental-vs-recomputed equivalence check
// the §V-D optimizations must maintain.
func TestTreeConsistencyUnderRandomOps(t *testing.T) {
	fx := newFMFixture(t, fmOptions{rollback: true, guard: GuardCounter})
	fm := fx.fm
	rng := rand.New(rand.NewSource(42))

	type node struct {
		path  fspath.Path
		isDir bool
	}
	dirs := []node{{path: fspath.Root, isDir: true}}
	var files []node
	content := func(i int) []byte { return []byte(fmt.Sprintf("content-%d", i)) }

	validateAll := func(step int) {
		t.Helper()
		for _, f := range files {
			if _, err := fm.readContent(f.path); err != nil {
				t.Fatalf("step %d: validate %s: %v", step, f.path, err)
			}
			if _, err := fm.readACL(f.path); err != nil {
				t.Fatalf("step %d: validate ACL %s: %v", step, f.path, err)
			}
		}
		for _, d := range dirs {
			if _, err := fm.readDir(d.path); err != nil {
				t.Fatalf("step %d: validate dir %s: %v", step, d.path, err)
			}
		}
	}

	const steps = 120
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 3: // create a file in a random directory
			dir := dirs[rng.Intn(len(dirs))]
			child, err := dir.path.ChildFile(fmt.Sprintf("f%d", step))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fm.writeContent(child, content(step), ownedACL(1)); err != nil {
				t.Fatalf("step %d: create %s: %v", step, child, err)
			}
			files = append(files, node{path: child})

		case op < 5: // update a random file
			if len(files) == 0 {
				continue
			}
			f := files[rng.Intn(len(files))]
			if _, err := fm.writeContent(f.path, content(step), nil); err != nil {
				t.Fatalf("step %d: update %s: %v", step, f.path, err)
			}

		case op < 6: // create a subdirectory
			dir := dirs[rng.Intn(len(dirs))]
			if dir.path.Depth() >= 4 {
				continue
			}
			child, err := dir.path.ChildDir(fmt.Sprintf("d%d", step))
			if err != nil {
				t.Fatal(err)
			}
			if err := fm.createDir(child, ownedACL(1)); err != nil {
				t.Fatalf("step %d: mkdir %s: %v", step, child, err)
			}
			dirs = append(dirs, node{path: child, isDir: true})

		case op < 8: // change a random file's ACL
			if len(files) == 0 {
				continue
			}
			f := files[rng.Intn(len(files))]
			a, err := fm.readACL(f.path)
			if err != nil {
				t.Fatalf("step %d: readACL: %v", step, err)
			}
			a = a.Clone() // readACL's result is shared; writers clone
			a.SetPermission(acl.GroupID(rng.Intn(50)+2), acl.PermRead)
			if err := fm.writeACL(f.path, a); err != nil {
				t.Fatalf("step %d: writeACL: %v", step, err)
			}

		case op < 9: // move a random file to a random directory
			if len(files) == 0 {
				continue
			}
			i := rng.Intn(len(files))
			dir := dirs[rng.Intn(len(dirs))]
			dst, err := dir.path.ChildFile(fmt.Sprintf("m%d", step))
			if err != nil {
				t.Fatal(err)
			}
			if err := fm.movePath(files[i].path, dst); err != nil {
				t.Fatalf("step %d: move %s -> %s: %v", step, files[i].path, dst, err)
			}
			files[i].path = dst

		default: // remove a random file
			if len(files) == 0 {
				continue
			}
			i := rng.Intn(len(files))
			if err := fm.removePath(files[i].path, true); err != nil {
				t.Fatalf("step %d: remove %s: %v", step, files[i].path, err)
			}
			files = append(files[:i], files[i+1:]...)
		}
		if step%10 == 9 {
			validateAll(step)
		}
	}
	validateAll(steps)
	if len(files) == 0 {
		t.Log("note: random walk ended with zero files; consider another seed")
	}
}

// TestGroupStoreTreeConsistency exercises the flat group-store tree the
// same way: many member-list updates, then every list still validates.
func TestGroupStoreTreeConsistency(t *testing.T) {
	fx := newFMFixture(t, fmOptions{rollback: true, guard: GuardProtectedMemory})
	fm := fx.fm
	rng := rand.New(rand.NewSource(7))

	users := make([]acl.UserID, 30)
	for i := range users {
		users[i] = acl.UserID(fmt.Sprintf("user-%02d", i))
	}
	for step := 0; step < 150; step++ {
		u := users[rng.Intn(len(users))]
		ml, err := fm.readMemberList(u)
		if err != nil {
			ml = &acl.MemberList{}
		}
		ml = ml.Clone() // readMemberList's result is shared; writers clone
		if rng.Intn(3) == 0 && len(ml.Groups) > 0 {
			ml.Remove(ml.Groups[rng.Intn(len(ml.Groups))])
		} else {
			ml.Add(acl.GroupID(rng.Intn(100) + 1))
		}
		if err := fm.writeMemberList(u, ml); err != nil {
			t.Fatalf("step %d: write member list: %v", step, err)
		}
	}
	for _, u := range users {
		if _, err := fm.readMemberList(u); err != nil && !isNotFound(err) {
			t.Fatalf("validate %s: %v", u, err)
		}
	}
}

func isNotFound(err error) bool { return errors.Is(err, ErrNotFound) }
