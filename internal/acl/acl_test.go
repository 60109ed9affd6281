package acl

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestPermissionString(t *testing.T) {
	tests := []struct {
		give Permission
		want string
	}{
		{give: PermNone, want: "none"},
		{give: PermRead, want: "r"},
		{give: PermWrite, want: "w"},
		{give: PermReadWrite, want: "rw"},
		{give: PermDeny, want: "deny"},
		{give: PermDeny | PermRead, want: "denyr"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("%#x.String() = %q, want %q", uint32(tt.give), got, tt.want)
		}
	}
}

func TestACLSetPermissionKeepsSorted(t *testing.T) {
	var a ACL
	for _, g := range []GroupID{5, 1, 9, 3, 7} {
		a.SetPermission(g, PermRead)
	}
	if !sort.SliceIsSorted(a.Entries, func(i, j int) bool { return a.Entries[i].Group < a.Entries[j].Group }) {
		t.Fatalf("entries not sorted: %v", a.Entries)
	}
	// Update in place, no duplicate.
	a.SetPermission(3, PermReadWrite)
	if len(a.Entries) != 5 {
		t.Fatalf("update created duplicate: %v", a.Entries)
	}
	p, ok := a.PermissionFor(3)
	if !ok || p != PermReadWrite {
		t.Fatalf("PermissionFor(3) = %v, %v", p, ok)
	}
	if _, ok := a.PermissionFor(4); ok {
		t.Fatal("PermissionFor(absent) = found")
	}
	if !a.RemovePermission(5) {
		t.Fatal("RemovePermission(5) = false")
	}
	if a.RemovePermission(5) {
		t.Fatal("double remove reported true")
	}
	if len(a.Entries) != 4 {
		t.Fatalf("entries after remove: %v", a.Entries)
	}
}

func TestACLOwners(t *testing.T) {
	var a ACL
	a.AddOwner(7)
	a.AddOwner(2)
	a.AddOwner(7) // idempotent
	if len(a.Owners) != 2 || a.Owners[0] != 2 || a.Owners[1] != 7 {
		t.Fatalf("owners = %v", a.Owners)
	}
	if !a.IsOwner(7) || a.IsOwner(3) {
		t.Fatal("IsOwner wrong")
	}
	if !a.RemoveOwner(2) || a.RemoveOwner(2) {
		t.Fatal("RemoveOwner semantics wrong")
	}
}

func TestACLClone(t *testing.T) {
	a := &ACL{Inherit: true}
	a.AddOwner(1)
	a.SetPermission(2, PermRead)
	cp := a.Clone()
	cp.SetPermission(2, PermWrite)
	cp.AddOwner(9)
	cp.Inherit = false
	if p, _ := a.PermissionFor(2); p != PermRead {
		t.Fatal("clone aliased entries")
	}
	if a.IsOwner(9) {
		t.Fatal("clone aliased owners")
	}
	if !a.Inherit {
		t.Fatal("clone aliased flags")
	}
}

func TestMemberList(t *testing.T) {
	var m MemberList
	for _, g := range []GroupID{4, 2, 8, 6} {
		if !m.Add(g) {
			t.Fatalf("Add(%d) = false", g)
		}
	}
	if m.Add(4) {
		t.Fatal("duplicate Add reported true")
	}
	if !sort.SliceIsSorted(m.Groups, func(i, j int) bool { return m.Groups[i] < m.Groups[j] }) {
		t.Fatalf("groups not sorted: %v", m.Groups)
	}
	if !m.Contains(6) || m.Contains(5) {
		t.Fatal("Contains wrong")
	}
	if !m.Remove(2) || m.Remove(2) {
		t.Fatal("Remove semantics wrong")
	}
}

func TestGroupListCreateLookupDelete(t *testing.T) {
	l := NewGroupList()
	a, err := l.Create("team-a", 0)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if a.ID != 1 {
		t.Fatalf("first ID = %d", a.ID)
	}
	b, err := l.Create("team-b", a.ID)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if b.ID != 2 {
		t.Fatalf("second ID = %d", b.ID)
	}
	if _, err := l.Create("team-a"); !errors.Is(err, ErrGroupExists) {
		t.Fatalf("duplicate name: want ErrGroupExists, got %v", err)
	}
	if _, err := l.Create(""); err == nil {
		t.Fatal("empty name accepted")
	}

	rec, ok := l.ByName("team-b")
	if !ok || rec.ID != b.ID {
		t.Fatalf("ByName = %v, %v", rec, ok)
	}
	if !rec.IsOwnedBy(a.ID) {
		t.Fatal("owner not recorded")
	}
	rec2, ok := l.ByID(a.ID)
	if !ok || rec2.Name != "team-a" {
		t.Fatalf("ByID = %v, %v", rec2, ok)
	}

	if !l.Delete(a.ID) || l.Delete(a.ID) {
		t.Fatal("Delete semantics wrong")
	}
	if _, ok := l.ByName("team-a"); ok {
		t.Fatal("deleted group still found")
	}
	// IDs are never reused.
	c, err := l.Create("team-c")
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != 3 {
		t.Fatalf("ID reused: %d", c.ID)
	}
}

func TestGroupRecordOwners(t *testing.T) {
	r := GroupRecord{ID: 1, Name: "g"}
	r.AddOwner(5)
	r.AddOwner(3)
	r.AddOwner(5)
	if len(r.Owners) != 2 || r.Owners[0] != 3 {
		t.Fatalf("owners = %v", r.Owners)
	}
	if !r.RemoveOwner(3) || r.RemoveOwner(3) {
		t.Fatal("RemoveOwner semantics wrong")
	}
}

func TestDefaultGroupName(t *testing.T) {
	if DefaultGroupName("alice") != "user:alice" {
		t.Fatalf("DefaultGroupName = %q", DefaultGroupName("alice"))
	}
}

// Property: SetPermission/RemovePermission keep entries strictly sorted
// and reflect a reference map.
func TestQuickACLAgainstMap(t *testing.T) {
	prop := func(ops []struct {
		Group  uint16
		Perm   uint32
		Remove bool
	}) bool {
		var a ACL
		ref := make(map[GroupID]Permission)
		for _, op := range ops {
			g := GroupID(op.Group)
			if op.Remove {
				a.RemovePermission(g)
				delete(ref, g)
			} else {
				a.SetPermission(g, Permission(op.Perm))
				ref[g] = Permission(op.Perm)
			}
		}
		if len(a.Entries) != len(ref) {
			return false
		}
		for i, e := range a.Entries {
			if ref[e.Group] != e.Perm {
				return false
			}
			if i > 0 && a.Entries[i-1].Group >= e.Group {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGroupListNameIndexFollowsEveryConstructor pins that ByName answers
// from an index that Create, Delete, Clone and DecodeGroupList each leave
// exact — a decoded list is shared between concurrent readers, so none of
// them may leave index work for the first lookup — and that a clone's
// edits stay in the clone.
func TestGroupListNameIndexFollowsEveryConstructor(t *testing.T) {
	l := NewGroupList()
	for i := 0; i < 100; i++ {
		if _, err := l.Create(GroupName(fmt.Sprintf("g%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for id := GroupID(2); id <= 100; id += 2 {
		l.Delete(id)
	}
	decoded, err := DecodeGroupList(l.Encode())
	if err != nil {
		t.Fatal(err)
	}
	clone := l.Clone()
	if _, err := clone.Create("only-in-clone"); err != nil {
		t.Fatal(err)
	}
	clone.Delete(1)
	for name, list := range map[string]*GroupList{"edited": l, "decoded": decoded} {
		for i := 0; i < 100; i++ {
			rec, ok := list.ByName(GroupName(fmt.Sprintf("g%03d", i)))
			if wantOK := i%2 == 0; ok != wantOK || (ok && rec.ID != GroupID(i+1)) {
				t.Fatalf("%s list: ByName(g%03d) = %v, %v", name, i, rec, ok)
			}
		}
		if _, ok := list.ByName("only-in-clone"); ok {
			t.Fatalf("%s list sees the clone's group", name)
		}
	}
	if _, ok := clone.ByName("g000"); ok {
		t.Fatal("clone still finds the group it deleted")
	}
	if rec, ok := clone.ByName("only-in-clone"); !ok || rec.ID != 101 {
		t.Fatalf("clone: ByName(only-in-clone) = %v, %v", rec, ok)
	}
}
