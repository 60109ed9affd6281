package core

import (
	"errors"
	"testing"

	"segshare/internal/acl"
	"segshare/internal/fspath"
)

func newAC(t *testing.T, opts fmOptions, fso string) *accessControl {
	t.Helper()
	fx := newFMFixture(t, opts)
	return &accessControl{fm: fx.fm, fso: acl.UserID(fso)}
}

func TestAnyUserCanCreateAtRoot(t *testing.T) {
	ac := newAC(t, fmOptions{}, "")
	if err := ac.PutDir("alice", mustPath(t, "/alice-dir/")); err != nil {
		t.Fatalf("PutDir at root: %v", err)
	}
	if _, err := ac.PutFile("bob", mustPath(t, "/bob-file"), encodeRawBody([]byte("hi"))); err != nil {
		t.Fatalf("PutFile at root: %v", err)
	}
}

func TestCreatorGetsOwnershipAndAccess(t *testing.T) {
	ac := newAC(t, fmOptions{}, "")
	if err := ac.PutDir("alice", mustPath(t, "/proj/")); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.PutFile("alice", mustPath(t, "/proj/notes"), encodeRawBody([]byte("mine"))); err != nil {
		t.Fatalf("owner write in own dir: %v", err)
	}
	got, err := ac.GetFile("alice", mustPath(t, "/proj/notes"))
	if err != nil || string(got) != "mine" {
		t.Fatalf("owner read: %q %v", got, err)
	}
	entries, err := ac.GetDir("alice", mustPath(t, "/proj/"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("owner list: %v %v", entries, err)
	}
	// Owners see rw effective permission on their files.
	if entries[0].Permission != acl.PermReadWrite {
		t.Fatalf("owner effective permission = %v", entries[0].Permission)
	}
}

func TestStrangerDenied(t *testing.T) {
	ac := newAC(t, fmOptions{}, "")
	if err := ac.PutDir("alice", mustPath(t, "/proj/")); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.PutFile("alice", mustPath(t, "/proj/f"), encodeRawBody([]byte("secret"))); err != nil {
		t.Fatal(err)
	}

	if _, err := ac.GetFile("eve", mustPath(t, "/proj/f")); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("stranger read: %v", err)
	}
	if _, err := ac.GetDir("eve", mustPath(t, "/proj/")); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("stranger list: %v", err)
	}
	if _, err := ac.PutFile("eve", mustPath(t, "/proj/g"), encodeRawBody([]byte("x"))); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("stranger write into dir: %v", err)
	}
	if _, err := ac.PutFile("eve", mustPath(t, "/proj/f"), encodeRawBody([]byte("overwrite"))); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("stranger overwrite: %v", err)
	}
	if err := ac.Remove("eve", mustPath(t, "/proj/f")); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("stranger remove: %v", err)
	}
	if err := ac.SetPermission("eve", mustPath(t, "/proj/f"), "user:eve", acl.PermRead); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("stranger set_p: %v", err)
	}
}

func TestIndividualUserSharingViaDefaultGroup(t *testing.T) {
	ac := newAC(t, fmOptions{}, "")
	if _, err := ac.PutFile("alice", mustPath(t, "/shared.txt"), encodeRawBody([]byte("payload"))); err != nil {
		t.Fatal(err)
	}
	// Share read-only with bob via his default group (paper Table I).
	if err := ac.SetPermission("alice", mustPath(t, "/shared.txt"), acl.DefaultGroupName("bob"), acl.PermRead); err != nil {
		t.Fatalf("SetPermission: %v", err)
	}
	got, err := ac.GetFile("bob", mustPath(t, "/shared.txt"))
	if err != nil || string(got) != "payload" {
		t.Fatalf("bob read: %q %v", got, err)
	}
	// Read ≠ write.
	if _, err := ac.PutFile("bob", mustPath(t, "/shared.txt"), encodeRawBody([]byte("nope"))); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("bob write with read-only: %v", err)
	}
	// Immediate permission revocation (objective S4).
	if err := ac.SetPermission("alice", mustPath(t, "/shared.txt"), acl.DefaultGroupName("bob"), acl.PermNone); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.GetFile("bob", mustPath(t, "/shared.txt")); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("bob read after revocation: %v", err)
	}
}

func TestGroupLifecycleAndImmediateMembershipRevocation(t *testing.T) {
	ac := newAC(t, fmOptions{}, "")
	if _, err := ac.PutFile("alice", mustPath(t, "/doc"), encodeRawBody([]byte("team doc"))); err != nil {
		t.Fatal(err)
	}
	// Creating the group: alice becomes member and owner (Algo 1 add_u).
	if err := ac.AddUser("alice", "bob", "team"); err != nil {
		t.Fatalf("AddUser: %v", err)
	}
	if err := ac.SetPermission("alice", mustPath(t, "/doc"), "team", acl.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.GetFile("bob", mustPath(t, "/doc")); err != nil {
		t.Fatalf("member read: %v", err)
	}
	if _, err := ac.PutFile("bob", mustPath(t, "/doc"), encodeRawBody([]byte("edited"))); err != nil {
		t.Fatalf("member write: %v", err)
	}

	// Non-owner cannot manage the group.
	if err := ac.AddUser("bob", "eve", "team"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("non-owner AddUser: %v", err)
	}
	if err := ac.RemoveUser("bob", "alice", "team"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("non-owner RemoveUser: %v", err)
	}

	// Immediate membership revocation: only bob's member list changes.
	if err := ac.RemoveUser("alice", "bob", "team"); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.GetFile("bob", mustPath(t, "/doc")); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("revoked member read: %v", err)
	}
	// Alice is unaffected.
	if _, err := ac.GetFile("alice", mustPath(t, "/doc")); err != nil {
		t.Fatalf("owner read after revocation: %v", err)
	}
}

func TestGroupOwnershipExtension(t *testing.T) {
	ac := newAC(t, fmOptions{}, "")
	if err := ac.AddUser("alice", "bob", "team"); err != nil {
		t.Fatal(err)
	}
	if err := ac.AddUser("alice", "carol", "admins"); err != nil {
		t.Fatal(err)
	}
	// Extend ownership of "team" to the "admins" group (rGO, F7).
	if err := ac.SetGroupOwner("alice", "team", "admins", true); err != nil {
		t.Fatalf("SetGroupOwner: %v", err)
	}
	// carol (member of admins) can now manage team.
	if err := ac.AddUser("carol", "dave", "team"); err != nil {
		t.Fatalf("co-owner AddUser: %v", err)
	}
	// Revoking the ownership revokes the ability.
	if err := ac.SetGroupOwner("alice", "team", "admins", false); err != nil {
		t.Fatal(err)
	}
	if err := ac.AddUser("carol", "erin", "team"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("after ownership revocation: %v", err)
	}
	// The last owner cannot be removed.
	if err := ac.SetGroupOwner("alice", "team", acl.DefaultGroupName("alice"), false); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("remove last owner: %v", err)
	}
}

func TestMultipleFileOwners(t *testing.T) {
	ac := newAC(t, fmOptions{}, "")
	if _, err := ac.PutFile("alice", mustPath(t, "/doc"), encodeRawBody([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := ac.SetFileOwner("alice", mustPath(t, "/doc"), acl.DefaultGroupName("bob"), true); err != nil {
		t.Fatalf("SetFileOwner: %v", err)
	}
	// bob can now manage permissions.
	if err := ac.SetPermission("bob", mustPath(t, "/doc"), acl.DefaultGroupName("carol"), acl.PermRead); err != nil {
		t.Fatalf("co-owner SetPermission: %v", err)
	}
	// Removing the last owner is rejected.
	if err := ac.SetFileOwner("bob", mustPath(t, "/doc"), acl.DefaultGroupName("bob"), false); err != nil {
		t.Fatal(err)
	}
	if err := ac.SetFileOwner("alice", mustPath(t, "/doc"), acl.DefaultGroupName("alice"), false); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("remove last owner: %v", err)
	}
}

func TestPermissionInheritance(t *testing.T) {
	ac := newAC(t, fmOptions{}, "")
	if err := ac.PutDir("alice", mustPath(t, "/dept/")); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.PutFile("alice", mustPath(t, "/dept/handbook"), encodeRawBody([]byte("rules"))); err != nil {
		t.Fatal(err)
	}
	// Grant the team read on the directory; the file inherits (§V-B).
	if err := ac.AddUser("alice", "bob", "team"); err != nil {
		t.Fatal(err)
	}
	if err := ac.SetPermission("alice", mustPath(t, "/dept/"), "team", acl.PermRead); err != nil {
		t.Fatal(err)
	}
	// Without the inherit flag, bob has nothing.
	if _, err := ac.GetFile("bob", mustPath(t, "/dept/handbook")); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("read without inherit flag: %v", err)
	}
	if err := ac.SetInherit("alice", mustPath(t, "/dept/handbook"), true); err != nil {
		t.Fatalf("SetInherit: %v", err)
	}
	if _, err := ac.GetFile("bob", mustPath(t, "/dept/handbook")); err != nil {
		t.Fatalf("inherited read: %v", err)
	}
	// A local deny overrides the inherited grant.
	if err := ac.SetPermission("alice", mustPath(t, "/dept/handbook"), "team", acl.PermDeny); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.GetFile("bob", mustPath(t, "/dept/handbook")); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("local deny over inherited grant: %v", err)
	}
}

func TestFSOBootstrapOwnsRoot(t *testing.T) {
	ac := newAC(t, fmOptions{}, "admin")
	// First contact of the FSO grants root ownership.
	if err := inOp(ac.fm, func() error { _, err := ac.ensureUser("admin"); return err }); err != nil {
		t.Fatal(err)
	}
	// The FSO can now manage root permissions, e.g. allow listing.
	if err := ac.SetPermission("admin", fspath.Root, acl.DefaultGroupName("alice"), acl.PermRead); err != nil {
		t.Fatalf("FSO set root permission: %v", err)
	}
	if _, err := ac.GetDir("alice", fspath.Root); err != nil {
		t.Fatalf("alice list root: %v", err)
	}
	// Non-FSO users never gain root ownership.
	if err := ac.SetPermission("alice", fspath.Root, acl.DefaultGroupName("eve"), acl.PermRead); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("non-owner set root permission: %v", err)
	}
}

func TestDeleteGroupScrubsAllMembers(t *testing.T) {
	ac := newAC(t, fmOptions{}, "")
	if err := ac.AddUser("alice", "bob", "team"); err != nil {
		t.Fatal(err)
	}
	if err := ac.AddUser("alice", "carol", "team"); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.PutFile("alice", mustPath(t, "/doc"), encodeRawBody([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := ac.SetPermission("alice", mustPath(t, "/doc"), "team", acl.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := ac.DeleteGroup("bob", "team"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("non-owner delete: %v", err)
	}
	if err := ac.DeleteGroup("alice", "team"); err != nil {
		t.Fatalf("DeleteGroup: %v", err)
	}
	if _, err := ac.GetFile("bob", mustPath(t, "/doc")); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("bob after group delete: %v", err)
	}
	if _, err := ac.GetFile("carol", mustPath(t, "/doc")); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("carol after group delete: %v", err)
	}
	groups, err := ac.Memberships("bob")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if g == "team" {
			t.Fatal("deleted group still in membership")
		}
	}
	// Group names of deleted groups can be reused; IDs are not.
	if err := ac.AddUser("dave", "team", ""); err == nil {
		t.Fatal("empty group name accepted")
	}
	if err := ac.AddUser("dave", "erin", "team"); err != nil {
		t.Fatalf("recreate group: %v", err)
	}
}

func TestDefaultGroupsAreProtected(t *testing.T) {
	ac := newAC(t, fmOptions{}, "")
	if err := ac.AddUser("alice", "bob", "user:carol"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("AddUser to default group: %v", err)
	}
	if err := ac.DeleteGroup("alice", "user:alice"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("DeleteGroup on default group: %v", err)
	}
}

func TestDenySemanticsAcrossGroups(t *testing.T) {
	ac := newAC(t, fmOptions{}, "")
	if _, err := ac.PutFile("alice", mustPath(t, "/doc"), encodeRawBody([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := ac.AddUser("alice", "bob", "readers"); err != nil {
		t.Fatal(err)
	}
	if err := ac.SetPermission("alice", mustPath(t, "/doc"), "readers", acl.PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.GetFile("bob", mustPath(t, "/doc")); err != nil {
		t.Fatal(err)
	}
	// Deny bob individually: overrides his group grant (p_deny).
	if err := ac.SetPermission("alice", mustPath(t, "/doc"), acl.DefaultGroupName("bob"), acl.PermDeny); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.GetFile("bob", mustPath(t, "/doc")); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("deny override: %v", err)
	}
}

func TestMoveAuthorization(t *testing.T) {
	ac := newAC(t, fmOptions{}, "")
	if err := ac.PutDir("alice", mustPath(t, "/a/")); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.PutFile("alice", mustPath(t, "/a/f"), encodeRawBody([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := ac.PutDir("bob", mustPath(t, "/b/")); err != nil {
		t.Fatal(err)
	}
	// Alice cannot move into bob's directory.
	if err := ac.Move("alice", mustPath(t, "/a/f"), mustPath(t, "/b/f")); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("move into foreign dir: %v", err)
	}
	// Eve cannot move alice's file anywhere.
	if err := ac.Move("eve", mustPath(t, "/a/f"), mustPath(t, "/stolen")); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("foreign move: %v", err)
	}
	// Alice can move within her own tree and to the root.
	if err := ac.Move("alice", mustPath(t, "/a/f"), mustPath(t, "/f-moved")); err != nil {
		t.Fatalf("move to root: %v", err)
	}
	if _, err := ac.GetFile("alice", mustPath(t, "/f-moved")); err != nil {
		t.Fatal(err)
	}
}

func TestMembershipsListing(t *testing.T) {
	ac := newAC(t, fmOptions{}, "")
	if err := ac.AddUser("alice", "alice", "team-a"); err != nil {
		t.Fatal(err)
	}
	if err := ac.AddUser("alice", "alice", "team-b"); err != nil {
		t.Fatal(err)
	}
	groups, err := ac.Memberships("alice")
	if err != nil {
		t.Fatal(err)
	}
	want := map[acl.GroupName]bool{"user:alice": true, "team-a": true, "team-b": true}
	if len(groups) != len(want) {
		t.Fatalf("memberships = %v", groups)
	}
	for _, g := range groups {
		if !want[g] {
			t.Fatalf("unexpected membership %q", g)
		}
	}
}
