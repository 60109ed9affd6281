// Package acl implements SeGShare's access-control model (paper §III-A
// Table I and §IV-B Table IV): users U, groups G, permissions P, and the
// relations rG (memberships), rP (file permissions), rFO (file owners),
// rGO (group owners), and rI (permission inheritance).
//
// The package contains the plaintext data structures and codecs for the
// three kinds of administration files the trusted file manager encrypts —
// ACL files, member list files, and the group list file — plus the
// authorization predicates auth_f and auth_g. All lists are kept sorted so
// that a permission or membership update is one decryption, a logarithmic
// search, one insert, and one encryption (paper §IV-B), which is what
// makes revocation immediate and cheap (objectives P3, S4).
package acl

import (
	"errors"
	"fmt"
	"sort"
)

// UserID identifies a user; it is the identity string from the client
// certificate (separation of authentication and authorization, F8).
type UserID string

// GroupID is the compact 32-bit group identifier used inside ACLs and
// member lists, matching the paper's 32-bit ACL entries (§VII-B).
type GroupID uint32

// GroupName is the external, human-readable group name.
type GroupName string

// DefaultGroupName returns the name of a user's default group g_u, the
// singleton group every user belongs to (paper §II-C/Table I).
func DefaultGroupName(u UserID) GroupName {
	return GroupName("user:" + string(u))
}

// Permission is a set of permission bits for one group on one file.
type Permission uint32

// Permission bits. PermDeny overrides any grants a user's other groups
// provide (pdeny in the paper).
const (
	// PermRead grants read access (p_r).
	PermRead Permission = 1 << 0
	// PermWrite grants write access (p_w).
	PermWrite Permission = 1 << 1
	// PermDeny denies access regardless of other grants (p_deny).
	PermDeny Permission = 1 << 31

	// PermNone is the empty permission set.
	PermNone Permission = 0
	// PermReadWrite grants read and write.
	PermReadWrite = PermRead | PermWrite
)

// Has reports whether p includes all bits of want.
func (p Permission) Has(want Permission) bool { return p&want == want }

// String renders the permission set for logs.
func (p Permission) String() string {
	if p == PermNone {
		return "none"
	}
	out := ""
	if p.Has(PermDeny) {
		out += "deny"
	}
	if p.Has(PermRead) {
		out += "r"
	}
	if p.Has(PermWrite) {
		out += "w"
	}
	return out
}

// Codec and structural errors.
var (
	// ErrCodec is returned when an administration file fails to decode.
	ErrCodec = errors.New("acl: malformed administration file")
	// ErrGroupExists is returned when creating a group whose name is
	// taken.
	ErrGroupExists = errors.New("acl: group already exists")
	// ErrGroupNotFound is returned when a group is absent.
	ErrGroupNotFound = errors.New("acl: group not found")
)

// ACL is the decoded content of one ACL file: the file's owners (rFO
// restricted to this file), its permission entries (rP restricted to this
// file), and the inherit flag (rI membership). Owners and entries are
// kept sorted by GroupID.
type ACL struct {
	Inherit bool
	Owners  []GroupID
	Entries []PermEntry
}

// PermEntry is one (group, permission) pair.
type PermEntry struct {
	Group GroupID
	Perm  Permission
}

func searchGroups(ids []GroupID, g GroupID) (int, bool) {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= g })
	return i, i < len(ids) && ids[i] == g
}

func (a *ACL) searchEntry(g GroupID) (int, bool) {
	i := sort.Search(len(a.Entries), func(i int) bool { return a.Entries[i].Group >= g })
	return i, i < len(a.Entries) && a.Entries[i].Group == g
}

// SetPermission inserts or updates the permission entry for g.
func (a *ACL) SetPermission(g GroupID, p Permission) {
	i, found := a.searchEntry(g)
	if found {
		a.Entries[i].Perm = p
		return
	}
	a.Entries = append(a.Entries, PermEntry{})
	copy(a.Entries[i+1:], a.Entries[i:])
	a.Entries[i] = PermEntry{Group: g, Perm: p}
}

// RemovePermission deletes the entry for g if present and reports whether
// it was.
func (a *ACL) RemovePermission(g GroupID) bool {
	i, found := a.searchEntry(g)
	if !found {
		return false
	}
	a.Entries = append(a.Entries[:i], a.Entries[i+1:]...)
	return true
}

// PermissionFor returns g's permission entry, if any.
func (a *ACL) PermissionFor(g GroupID) (Permission, bool) {
	i, found := a.searchEntry(g)
	if !found {
		return PermNone, false
	}
	return a.Entries[i].Perm, true
}

// AddOwner adds g to the file's owners (rFO), keeping the list sorted.
func (a *ACL) AddOwner(g GroupID) {
	i, found := searchGroups(a.Owners, g)
	if found {
		return
	}
	a.Owners = append(a.Owners, 0)
	copy(a.Owners[i+1:], a.Owners[i:])
	a.Owners[i] = g
}

// RemoveOwner removes g from the owners and reports whether it was one.
func (a *ACL) RemoveOwner(g GroupID) bool {
	i, found := searchGroups(a.Owners, g)
	if !found {
		return false
	}
	a.Owners = append(a.Owners[:i], a.Owners[i+1:]...)
	return true
}

// IsOwner reports whether g owns the file.
func (a *ACL) IsOwner(g GroupID) bool {
	_, found := searchGroups(a.Owners, g)
	return found
}

// Clone returns a deep copy.
func (a *ACL) Clone() *ACL {
	cp := &ACL{Inherit: a.Inherit}
	cp.Owners = append([]GroupID(nil), a.Owners...)
	cp.Entries = append([]PermEntry(nil), a.Entries...)
	return cp
}

// MemberList is the decoded content of one member list file: the sorted
// set of groups a user belongs to (the user's slice of rG).
type MemberList struct {
	Groups []GroupID
}

// Add inserts g, keeping the list sorted; it reports whether the list
// changed.
func (m *MemberList) Add(g GroupID) bool {
	i, found := searchGroups(m.Groups, g)
	if found {
		return false
	}
	m.Groups = append(m.Groups, 0)
	copy(m.Groups[i+1:], m.Groups[i:])
	m.Groups[i] = g
	return true
}

// Remove deletes g and reports whether it was present.
func (m *MemberList) Remove(g GroupID) bool {
	i, found := searchGroups(m.Groups, g)
	if !found {
		return false
	}
	m.Groups = append(m.Groups[:i], m.Groups[i+1:]...)
	return true
}

// Contains reports membership via binary search.
func (m *MemberList) Contains(g GroupID) bool {
	_, found := searchGroups(m.Groups, g)
	return found
}

// Clone returns a deep copy.
func (m *MemberList) Clone() *MemberList {
	return &MemberList{Groups: append([]GroupID(nil), m.Groups...)}
}

// GroupRecord is one group in the group list file: its compact ID, its
// name, and the groups that own it (the group's slice of rGO).
type GroupRecord struct {
	ID     GroupID
	Name   GroupName
	Owners []GroupID
}

// IsOwnedBy reports whether g owns this group.
func (r *GroupRecord) IsOwnedBy(g GroupID) bool {
	_, found := searchGroups(r.Owners, g)
	return found
}

// AddOwner adds an owning group, keeping the list sorted.
func (r *GroupRecord) AddOwner(g GroupID) {
	i, found := searchGroups(r.Owners, g)
	if found {
		return
	}
	r.Owners = append(r.Owners, 0)
	copy(r.Owners[i+1:], r.Owners[i:])
	r.Owners[i] = g
}

// RemoveOwner removes an owning group and reports whether it was one.
func (r *GroupRecord) RemoveOwner(g GroupID) bool {
	i, found := searchGroups(r.Owners, g)
	if !found {
		return false
	}
	r.Owners = append(r.Owners[:i], r.Owners[i+1:]...)
	return true
}

// GroupList is the decoded content of the group list file: all present
// groups G, sorted by ID, with a name uniqueness invariant. Lists come
// from NewGroupList, DecodeGroupList or Clone, which build the name index;
// a literal has none and is good for Encode only.
type GroupList struct {
	Groups []GroupRecord
	NextID GroupID
	// byName indexes Groups by name. It is built where the list is and
	// kept exact by Create and Delete — never filled in on first lookup: a
	// decoded list is shared between concurrent readers, and a lazy index
	// would be a write under their feet.
	byName map[GroupName]GroupID
}

// NewGroupList returns an empty group list. IDs start at 1 so the zero
// GroupID never denotes a real group.
func NewGroupList() *GroupList {
	return &GroupList{NextID: 1, byName: map[GroupName]GroupID{}}
}

// Clone returns a deep copy.
func (l *GroupList) Clone() *GroupList {
	cp := &GroupList{
		NextID: l.NextID,
		Groups: make([]GroupRecord, len(l.Groups)),
		byName: make(map[GroupName]GroupID, len(l.Groups)),
	}
	for i, g := range l.Groups {
		cp.Groups[i] = GroupRecord{ID: g.ID, Name: g.Name, Owners: append([]GroupID(nil), g.Owners...)}
		cp.byName[g.Name] = g.ID
	}
	return cp
}

func (l *GroupList) searchID(id GroupID) (int, bool) {
	i := sort.Search(len(l.Groups), func(i int) bool { return l.Groups[i].ID >= id })
	return i, i < len(l.Groups) && l.Groups[i].ID == id
}

// ByID returns the record with the given ID.
func (l *GroupList) ByID(id GroupID) (*GroupRecord, bool) {
	i, found := l.searchID(id)
	if !found {
		return nil, false
	}
	return &l.Groups[i], true
}

// ByName returns the record with the given name: one index lookup and a
// binary search by ID, whatever the number of groups.
func (l *GroupList) ByName(name GroupName) (*GroupRecord, bool) {
	id, ok := l.byName[name]
	if !ok {
		return nil, false
	}
	return l.ByID(id)
}

// Create allocates an ID and appends a record for name, owned by the
// given owner groups. It returns ErrGroupExists if the name is taken.
func (l *GroupList) Create(name GroupName, owners ...GroupID) (*GroupRecord, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty group name", ErrCodec)
	}
	if _, exists := l.ByName(name); exists {
		return nil, fmt.Errorf("%w: %q", ErrGroupExists, name)
	}
	id := l.NextID
	l.NextID++
	rec := GroupRecord{ID: id, Name: name}
	for _, o := range owners {
		rec.AddOwner(o)
	}
	l.Groups = append(l.Groups, rec) // NextID is increasing, so order holds
	l.byName[name] = id
	return &l.Groups[len(l.Groups)-1], nil
}

// Delete removes the group with the given ID and reports whether it
// existed.
func (l *GroupList) Delete(id GroupID) bool {
	i, found := l.searchID(id)
	if !found {
		return false
	}
	delete(l.byName, l.Groups[i].Name)
	l.Groups = append(l.Groups[:i], l.Groups[i+1:]...)
	return true
}
