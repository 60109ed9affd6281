package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"segshare/internal/acl"
	"segshare/internal/fspath"
	"segshare/internal/obs"
)

// accessControl is SeGShare's access control component (paper Fig. 1): it
// owns relation updates (updateRel) and authorization checks (auth_f,
// auth_g), using the trusted file manager to read and write the encrypted
// relation files. The request handler calls it with the user identity
// extracted from the client certificate — authorization never looks at
// anything else (objective F8).
type accessControl struct {
	fm *fileManager
	// fso optionally names the file-system owner; on first contact the
	// FSO's default group becomes the root directory's owner so root
	// permissions are manageable.
	fso acl.UserID
}

// withStats returns a view of ac whose file manager attributes work to
// rs (see fileManager.withStats). A nil rs returns ac unchanged.
func (ac *accessControl) withStats(rs *obs.ReqStats) *accessControl {
	if rs == nil {
		return ac
	}
	v := *ac
	v.fm = ac.fm.withStats(rs)
	return &v
}

// withRequest returns a view of ac bound to one request's stats and
// cancellation context (see fileManager.withRequest).
func (ac *accessControl) withRequest(rs *obs.ReqStats, ctx context.Context) *accessControl {
	if rs == nil && ctx == nil {
		return ac
	}
	v := *ac
	v.fm = ac.fm.withRequest(rs, ctx)
	return &v
}

// memberListOrEmpty returns the user's effective member list. Users that
// never contacted the system have no stored list; their membership in
// their own default group g_u is definitional (paper Table I: "each user
// u has a default group g_u"), so it is synthesized here whenever the
// default group exists — e.g. because another user granted them a
// permission before their first login. The result is for reading: it is
// the shared cached list whenever that already holds the default group.
func (ac *accessControl) memberListOrEmpty(u acl.UserID) (*acl.MemberList, error) {
	ml, err := ac.fm.readMemberList(u)
	switch {
	case errors.Is(err, ErrNotFound):
		ml = &acl.MemberList{}
	case err != nil:
		return nil, err
	}
	gl, err := ac.fm.readGroupList()
	if err != nil {
		return nil, err
	}
	if rec, ok := gl.ByName(acl.DefaultGroupName(u)); ok && !ml.Contains(rec.ID) {
		ml = ml.Clone()
		ml.Add(rec.ID)
	}
	return ml, nil
}

// ensureUser lazily creates the user's default group g_u and member list
// on first contact, and bootstraps the FSO's root ownership.
func (ac *accessControl) ensureUser(u acl.UserID) (*acl.MemberList, error) {
	ml, err := ac.fm.readMemberList(u)
	if err == nil {
		return ml, nil
	}
	if !errors.Is(err, ErrNotFound) {
		return nil, err
	}
	gid, err := ac.ensureGroup(acl.DefaultGroupName(u))
	if err != nil {
		return nil, err
	}
	ml = &acl.MemberList{}
	ml.Add(gid)
	if err := ac.fm.writeMemberList(u, ml); err != nil {
		return nil, err
	}
	if ac.fso != "" && u == ac.fso {
		if err := ac.bootstrapFSO(gid); err != nil {
			return nil, err
		}
	}
	return ml, nil
}

// bootstrapFSO grants the file-system owner's default group ownership of
// the root directory if the root is still unowned.
func (ac *accessControl) bootstrapFSO(gid acl.GroupID) error {
	rootACL, err := ac.fm.readACL(fspath.Root)
	if err != nil {
		return err
	}
	if len(rootACL.Owners) > 0 {
		return nil
	}
	rootACL = rootACL.Clone()
	rootACL.AddOwner(gid)
	return ac.fm.writeACL(fspath.Root, rootACL)
}

// ensureGroup returns the ID of the named group, creating a record for
// default groups ("user:<id>") on demand. A default group is owned by
// itself, so the user it belongs to manages it.
func (ac *accessControl) ensureGroup(name acl.GroupName) (acl.GroupID, error) {
	gl, err := ac.fm.readGroupList()
	if err != nil {
		return 0, err
	}
	if rec, ok := gl.ByName(name); ok {
		return rec.ID, nil
	}
	if !strings.HasPrefix(string(name), "user:") {
		return 0, fmt.Errorf("%w: %s", ErrGroupNotFound, name)
	}
	gl = gl.Clone()
	rec, err := gl.Create(name)
	if err != nil {
		return 0, err
	}
	rec.AddOwner(rec.ID)
	if err := ac.fm.writeGroupList(gl); err != nil {
		return 0, err
	}
	return rec.ID, nil
}

// defaultGroupID returns the ID of the user's default group, which must
// already exist (ensureUser ran).
func (ac *accessControl) defaultGroupID(u acl.UserID) (acl.GroupID, error) {
	return ac.ensureGroup(acl.DefaultGroupName(u))
}

// authFile evaluates auth_f for a member list on a path, consulting the
// parent's ACL when the inherit flag is set (paper §V-B).
func (ac *accessControl) authFile(ml *acl.MemberList, path fspath.Path, want acl.Permission) (bool, error) {
	a, err := ac.fm.readACL(path)
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	var parent *acl.ACL
	if a.Inherit && !path.IsRoot() {
		parent, err = ac.fm.readACL(path.Parent())
		if err != nil && !errors.Is(err, ErrNotFound) {
			return false, err
		}
	}
	return acl.AuthorizeFile(ml, a, parent, want), nil
}

// authGroup evaluates auth_g for a member list on a group record.
func (ac *accessControl) authGroup(ml *acl.MemberList, rec *acl.GroupRecord) bool {
	return acl.AuthorizeGroupChange(ml, rec)
}

// --- Algo 1: external requests ---------------------------------------

// PutDir implements "user u wants to create a directory at path".
func (ac *accessControl) PutDir(u acl.UserID, path fspath.Path) error {
	return ac.fm.mutate("mkcol", func() error { return ac.putDir(u, path) })
}

func (ac *accessControl) putDir(u acl.UserID, path fspath.Path) error {
	if !path.IsDir() || path.IsRoot() {
		return fmt.Errorf("%w: not a creatable directory path", ErrBadRequest)
	}
	ml, err := ac.ensureUser(u)
	if err != nil {
		return err
	}
	if ok, err := ac.fm.pathExists(path); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: %s", ErrExists, path)
	}
	parent := path.Parent()
	if ok, err := ac.fm.pathExists(parent); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: parent %s", ErrNotFound, parent)
	}
	if !parent.IsRoot() {
		ok, err := ac.authFile(ml, parent, acl.PermWrite)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%w: write %s", ErrPermissionDenied, parent)
		}
	}
	gu, err := ac.defaultGroupID(u)
	if err != nil {
		return err
	}
	dirACL := &acl.ACL{}
	dirACL.AddOwner(gu)
	return ac.fm.createDir(path, dirACL)
}

// PutFile implements "user u wants to create or update a file at path".
func (ac *accessControl) PutFile(u acl.UserID, path fspath.Path, content []byte) (created bool, err error) {
	err = ac.fm.mutate("put", func() error {
		var ferr error
		created, ferr = ac.putFile(u, path, content)
		return ferr
	})
	return created, err
}

func (ac *accessControl) putFile(u acl.UserID, path fspath.Path, content []byte) (created bool, err error) {
	if path.IsDir() {
		return false, fmt.Errorf("%w: %s is a directory path", ErrBadRequest, path)
	}
	ml, err := ac.ensureUser(u)
	if err != nil {
		return false, err
	}
	parent := path.Parent()
	parentExists, err := ac.fm.pathExists(parent)
	if err != nil {
		return false, err
	}
	fileExists, err := ac.fm.pathExists(path)
	if err != nil {
		return false, err
	}

	// Algo 1's "path2 == /" exception lets any user create at the (ACL-
	// less) root. Read literally it would also let anyone overwrite
	// existing root-level files; we scope it to creation — updates always
	// require write permission on the file or its parent.
	authorized := parent.IsRoot() && !fileExists
	if !authorized && parentExists {
		authorized, err = ac.authFile(ml, parent, acl.PermWrite)
		if err != nil {
			return false, err
		}
	}
	if !authorized && fileExists {
		authorized, err = ac.authFile(ml, path, acl.PermWrite)
		if err != nil {
			return false, err
		}
	}
	if !authorized {
		return false, fmt.Errorf("%w: write %s", ErrPermissionDenied, path)
	}
	if !fileExists && !parentExists {
		return false, fmt.Errorf("%w: parent %s", ErrNotFound, parent)
	}

	var newACL *acl.ACL
	if !fileExists {
		gu, err := ac.defaultGroupID(u)
		if err != nil {
			return false, err
		}
		newACL = &acl.ACL{}
		newACL.AddOwner(gu)
	}
	return ac.fm.writeContent(path, content, newACL)
}

// requireRead is the gate of every read request: auth_f(u, p_r, path),
// refused with ErrNotFound when the path does not exist and with
// ErrPermissionDenied when it does. The store is asked whether the path
// exists only on the way to a refusal — an allowed read learns it from
// the read itself — so an allowed request costs one store call, not two,
// and a refused one still answers 404 before 403.
func (ac *accessControl) requireRead(ml *acl.MemberList, path fspath.Path) error {
	ok, err := ac.authFile(ml, path, acl.PermRead)
	if err != nil {
		return err
	}
	if ok {
		return nil
	}
	if exists, err := ac.fm.pathExists(path); err != nil {
		return err
	} else if !exists {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return fmt.Errorf("%w: read %s", ErrPermissionDenied, path)
}

// GetFile implements the read half of "get file content".
func (ac *accessControl) GetFile(u acl.UserID, path fspath.Path) ([]byte, error) {
	ml, err := ac.memberListOrEmpty(u)
	if err != nil {
		return nil, err
	}
	if err := ac.requireRead(ml, path); err != nil {
		return nil, err
	}
	return ac.fm.readContent(path)
}

// GetFileRange is GetFile for a byte range: same authorization, but the
// read decrypts only the chunks the range touches when the stored format
// allows it (see fileManager.readContentRange).
func (ac *accessControl) GetFileRange(u acl.UserID, path fspath.Path, br ByteRange) (RangeResult, error) {
	ml, err := ac.memberListOrEmpty(u)
	if err != nil {
		return RangeResult{}, err
	}
	if err := ac.requireRead(ml, path); err != nil {
		return RangeResult{}, err
	}
	return ac.fm.readContentRange(path, br)
}

// ListedEntry is a directory child with the requesting user's effective
// permission.
type ListedEntry struct {
	Name       string
	IsDir      bool
	Permission acl.Permission
}

// GetDir implements "get directory listing", annotating each child with
// the user's effective permission.
func (ac *accessControl) GetDir(u acl.UserID, path fspath.Path) ([]ListedEntry, error) {
	ml, err := ac.memberListOrEmpty(u)
	if err != nil {
		return nil, err
	}
	if err := ac.requireRead(ml, path); err != nil {
		return nil, err
	}
	entries, err := ac.fm.readDir(path)
	if err != nil {
		return nil, err
	}
	dirACL, err := ac.fm.readACL(path)
	if err != nil {
		return nil, err
	}
	out := make([]ListedEntry, 0, len(entries))
	for _, e := range entries {
		child, err := childPath(path, e)
		if err != nil {
			return nil, err
		}
		childACL, err := ac.fm.readACL(child)
		if err != nil {
			return nil, err
		}
		out = append(out, ListedEntry{
			Name:       e.Name,
			IsDir:      e.IsDir,
			Permission: acl.EffectivePermission(ml, childACL, dirACL),
		})
	}
	return out, nil
}

func childPath(dir fspath.Path, e DirEntry) (fspath.Path, error) {
	if e.IsDir {
		return dir.ChildDir(e.Name)
	}
	return dir.ChildFile(e.Name)
}

// requireOwner checks the owner-level auth_f(u, "", f) used by permission
// and ownership updates, and returns the caller's own copy of the ACL to
// edit and write back.
func (ac *accessControl) requireOwner(u acl.UserID, path fspath.Path) (*acl.ACL, error) {
	ml, err := ac.memberListOrEmpty(u)
	if err != nil {
		return nil, err
	}
	a, err := ac.fm.readACL(path)
	if errors.Is(err, ErrNotFound) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if err != nil {
		return nil, err
	}
	if !acl.AuthorizeFile(ml, a, nil, acl.PermNone) {
		return nil, fmt.Errorf("%w: not an owner of %s", ErrPermissionDenied, path)
	}
	return a.Clone(), nil
}

// SetPermission implements set_p: the owner sets permission p for group g
// on the file at path. PermNone removes the entry.
func (ac *accessControl) SetPermission(u acl.UserID, path fspath.Path, group acl.GroupName, p acl.Permission) error {
	return ac.fm.mutate("set_p", func() error { return ac.setPermission(u, path, group, p) })
}

func (ac *accessControl) setPermission(u acl.UserID, path fspath.Path, group acl.GroupName, p acl.Permission) error {
	a, err := ac.requireOwner(u, path)
	if err != nil {
		return err
	}
	gid, err := ac.ensureGroup(group)
	if err != nil {
		return err
	}
	if p == acl.PermNone {
		a.RemovePermission(gid)
	} else {
		a.SetPermission(gid, p)
	}
	return ac.fm.writeACL(path, a)
}

// SetInherit implements the rI update of paper §V-B.
func (ac *accessControl) SetInherit(u acl.UserID, path fspath.Path, inherit bool) error {
	return ac.fm.mutate("set_inherit", func() error { return ac.setInherit(u, path, inherit) })
}

func (ac *accessControl) setInherit(u acl.UserID, path fspath.Path, inherit bool) error {
	a, err := ac.requireOwner(u, path)
	if err != nil {
		return err
	}
	a.Inherit = inherit
	return ac.fm.writeACL(path, a)
}

// SetFileOwner adds or removes a group from the file's owners (rFO),
// allowing multiple file owners (objective F7).
func (ac *accessControl) SetFileOwner(u acl.UserID, path fspath.Path, group acl.GroupName, owner bool) error {
	return ac.fm.mutate("set_owner", func() error { return ac.setFileOwner(u, path, group, owner) })
}

func (ac *accessControl) setFileOwner(u acl.UserID, path fspath.Path, group acl.GroupName, owner bool) error {
	a, err := ac.requireOwner(u, path)
	if err != nil {
		return err
	}
	gid, err := ac.ensureGroup(group)
	if err != nil {
		return err
	}
	if owner {
		a.AddOwner(gid)
	} else {
		a.RemoveOwner(gid)
		if len(a.Owners) == 0 {
			return fmt.Errorf("%w: a file needs at least one owner", ErrBadRequest)
		}
	}
	return ac.fm.writeACL(path, a)
}

// AddUser implements add_u: create the group on first use (creator joins
// and owns it), then add u2 — which only rewrites u2's member list file.
func (ac *accessControl) AddUser(u1, u2 acl.UserID, group acl.GroupName) error {
	return ac.fm.mutate("add_u", func() error { return ac.addUser(u1, u2, group) })
}

func (ac *accessControl) addUser(u1, u2 acl.UserID, group acl.GroupName) error {
	if strings.HasPrefix(string(group), "user:") {
		return fmt.Errorf("%w: default groups cannot be managed", ErrBadRequest)
	}
	ml1, err := ac.ensureUser(u1)
	if err != nil {
		return err
	}
	gl, err := ac.fm.readGroupList()
	if err != nil {
		return err
	}
	rec, ok := gl.ByName(group)
	if !ok {
		gu1, err := ac.defaultGroupID(u1)
		if err != nil {
			return err
		}
		// Re-read: ensureGroup above may have rewritten the list.
		gl, err = ac.fm.readGroupList()
		if err != nil {
			return err
		}
		gl = gl.Clone()
		rec, err = gl.Create(group, gu1)
		if err != nil {
			return err
		}
		if err := ac.fm.writeGroupList(gl); err != nil {
			return err
		}
		// The creator becomes a member (Algo 1: rG ∪ (u1, g)).
		ml1 = ml1.Clone()
		ml1.Add(rec.ID)
		if err := ac.fm.writeMemberList(u1, ml1); err != nil {
			return err
		}
	}
	if !ac.authGroup(ml1, rec) {
		return fmt.Errorf("%w: not an owner of group %s", ErrPermissionDenied, group)
	}
	ml2, err := ac.memberListOrEmptyForUpdate(u2)
	if err != nil {
		return err
	}
	ml2 = ml2.Clone()
	ml2.Add(rec.ID)
	return ac.fm.writeMemberList(u2, ml2)
}

// memberListOrEmptyForUpdate loads a member list that is about to be
// written back; absent lists start empty (the target user may never have
// contacted the system — separation of authentication and authorization
// allows granting before first login).
func (ac *accessControl) memberListOrEmptyForUpdate(u acl.UserID) (*acl.MemberList, error) {
	ml, err := ac.fm.readMemberList(u)
	if errors.Is(err, ErrNotFound) {
		// Materialize the default group too so the user's own identity
		// relations are complete.
		if _, err := ac.ensureUser(u); err != nil {
			return nil, err
		}
		return ac.fm.readMemberList(u)
	}
	return ml, err
}

// RemoveUser implements rmv_u: an immediate membership revocation that
// only rewrites u2's member list file (objectives P3, S4).
func (ac *accessControl) RemoveUser(u1, u2 acl.UserID, group acl.GroupName) error {
	return ac.fm.mutate("rmv_u", func() error { return ac.removeUser(u1, u2, group) })
}

func (ac *accessControl) removeUser(u1, u2 acl.UserID, group acl.GroupName) error {
	ml1, err := ac.ensureUser(u1)
	if err != nil {
		return err
	}
	gl, err := ac.fm.readGroupList()
	if err != nil {
		return err
	}
	rec, ok := gl.ByName(group)
	if !ok {
		return fmt.Errorf("%w: %s", ErrGroupNotFound, group)
	}
	if !ac.authGroup(ml1, rec) {
		return fmt.Errorf("%w: not an owner of group %s", ErrPermissionDenied, group)
	}
	ml2, err := ac.fm.readMemberList(u2)
	if errors.Is(err, ErrNotFound) {
		return nil // nothing to revoke
	}
	if err != nil {
		return err
	}
	ml2 = ml2.Clone()
	if ml2.Remove(rec.ID) {
		return ac.fm.writeMemberList(u2, ml2)
	}
	return nil
}

// SetGroupOwner adds or removes an owning group of a group (rGO),
// enabling multiple group owners (objective F7).
func (ac *accessControl) SetGroupOwner(u acl.UserID, group, ownerGroup acl.GroupName, owner bool) error {
	return ac.fm.mutate("set_gowner", func() error { return ac.setGroupOwner(u, group, ownerGroup, owner) })
}

func (ac *accessControl) setGroupOwner(u acl.UserID, group, ownerGroup acl.GroupName, owner bool) error {
	ml, err := ac.ensureUser(u)
	if err != nil {
		return err
	}
	gl, err := ac.fm.readGroupList()
	if err != nil {
		return err
	}
	gl = gl.Clone()
	rec, ok := gl.ByName(group)
	if !ok {
		return fmt.Errorf("%w: %s", ErrGroupNotFound, group)
	}
	if !ac.authGroup(ml, rec) {
		return fmt.Errorf("%w: not an owner of group %s", ErrPermissionDenied, group)
	}
	ownerRec, ok := gl.ByName(ownerGroup)
	if !ok {
		return fmt.Errorf("%w: %s", ErrGroupNotFound, ownerGroup)
	}
	if owner {
		rec.AddOwner(ownerRec.ID)
	} else {
		rec.RemoveOwner(ownerRec.ID)
		if len(rec.Owners) == 0 {
			return fmt.Errorf("%w: a group needs at least one owner", ErrBadRequest)
		}
	}
	return ac.fm.writeGroupList(gl)
}

// DeleteGroup removes a group entirely. As the paper notes (§IV-B), this
// is the one deliberately expensive operation: every member list must be
// visited.
func (ac *accessControl) DeleteGroup(u acl.UserID, group acl.GroupName) error {
	return ac.fm.mutate("del_g", func() error { return ac.deleteGroup(u, group) })
}

func (ac *accessControl) deleteGroup(u acl.UserID, group acl.GroupName) error {
	if strings.HasPrefix(string(group), "user:") {
		return fmt.Errorf("%w: default groups cannot be deleted", ErrBadRequest)
	}
	ml, err := ac.ensureUser(u)
	if err != nil {
		return err
	}
	gl, err := ac.fm.readGroupList()
	if err != nil {
		return err
	}
	rec, ok := gl.ByName(group)
	if !ok {
		return fmt.Errorf("%w: %s", ErrGroupNotFound, group)
	}
	if !ac.authGroup(ml, rec) {
		return fmt.Errorf("%w: not an owner of group %s", ErrPermissionDenied, group)
	}
	// Scrub the group from every member list.
	_, rootDB, err := ac.fm.loadDir(ac.fm.group, groupRootName)
	if err != nil {
		return err
	}
	for _, e := range rootDB.entries {
		if !strings.HasPrefix(e.Name, memberNamePfx) {
			continue
		}
		uid := acl.UserID(strings.TrimPrefix(e.Name, memberNamePfx))
		uml, err := ac.fm.readMemberList(uid)
		if err != nil {
			return err
		}
		uml = uml.Clone()
		if uml.Remove(rec.ID) {
			if err := ac.fm.writeMemberList(uid, uml); err != nil {
				return err
			}
		}
	}
	gl = gl.Clone()
	gl.Delete(rec.ID)
	return ac.fm.writeGroupList(gl)
}

// Memberships returns the names of the groups the user belongs to.
func (ac *accessControl) Memberships(u acl.UserID) ([]acl.GroupName, error) {
	ml, err := ac.memberListOrEmpty(u)
	if err != nil {
		return nil, err
	}
	gl, err := ac.fm.readGroupList()
	if err != nil {
		return nil, err
	}
	var names []acl.GroupName
	for _, gid := range ml.Groups {
		if rec, ok := gl.ByID(gid); ok {
			names = append(names, rec.Name)
		}
	}
	return names, nil
}

// OwnedGroups returns the names of the groups the user owns (directly or
// through rGO), i.e. those the user may manage with auth_g.
func (ac *accessControl) OwnedGroups(u acl.UserID) ([]acl.GroupName, error) {
	ml, err := ac.memberListOrEmpty(u)
	if err != nil {
		return nil, err
	}
	gl, err := ac.fm.readGroupList()
	if err != nil {
		return nil, err
	}
	var names []acl.GroupName
	for i := range gl.Groups {
		if ac.authGroup(ml, &gl.Groups[i]) {
			names = append(names, gl.Groups[i].Name)
		}
	}
	return names, nil
}

// Remove implements the remove file/directory request.
func (ac *accessControl) Remove(u acl.UserID, path fspath.Path) error {
	return ac.fm.mutate("delete", func() error { return ac.remove(u, path) })
}

func (ac *accessControl) remove(u acl.UserID, path fspath.Path) error {
	ml, err := ac.memberListOrEmpty(u)
	if err != nil {
		return err
	}
	if ok, err := ac.fm.pathExists(path); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	ok, err := ac.authFile(ml, path, acl.PermWrite)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: write %s", ErrPermissionDenied, path)
	}
	return ac.fm.removePath(path, true)
}

// Move implements the move file/directory request: write access on the
// source and on the destination parent (or destination-parent-is-root,
// mirroring Algo 1's creation rule).
func (ac *accessControl) Move(u acl.UserID, src, dst fspath.Path) error {
	return ac.fm.mutate("move", func() error { return ac.move(u, src, dst) })
}

func (ac *accessControl) move(u acl.UserID, src, dst fspath.Path) error {
	ml, err := ac.memberListOrEmpty(u)
	if err != nil {
		return err
	}
	if ok, err := ac.fm.pathExists(src); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, src)
	}
	if ok, err := ac.authFile(ml, src, acl.PermWrite); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: write %s", ErrPermissionDenied, src)
	}
	dstParent := dst.Parent()
	if !dstParent.IsRoot() {
		if ok, err := ac.fm.pathExists(dstParent); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("%w: parent %s", ErrNotFound, dstParent)
		}
		if ok, err := ac.authFile(ml, dstParent, acl.PermWrite); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("%w: write %s", ErrPermissionDenied, dstParent)
		}
	}
	return ac.fm.movePath(src, dst)
}
