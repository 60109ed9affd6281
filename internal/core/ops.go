package core

import (
	"errors"
	"fmt"

	"segshare/internal/acl"
	"segshare/internal/fspath"
	"segshare/internal/rollback"
)

// This file implements the trusted file manager's logical operations:
// content files, directories, ACL files (content store), and member
// list / group list files (group store). Paths arrive pre-validated as
// fspath.Path values from the request handler.

func memberListName(u acl.UserID) string { return memberNamePfx + string(u) }

// pathExists reports whether the file or directory at path exists.
func (fm *fileManager) pathExists(path fspath.Path) (bool, error) {
	return fm.exists(fm.content, path.String())
}

// createDir creates a directory with the given initial ACL. The parent
// directory must exist; authorization is the caller's concern (Algo 1).
func (fm *fileManager) createDir(path fspath.Path, dirACL *acl.ACL) error {
	if !path.IsDir() || path.IsRoot() {
		return fmt.Errorf("%w: %q is not a creatable directory path", ErrBadRequest, path)
	}
	name := path.String()
	if ok, err := fm.exists(fm.content, name); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: %s", ErrExists, name)
	}

	_, aclMain, err := fm.writeLeaf(fm.content, aclName(name), dirACL.Encode())
	if err != nil {
		return err
	}
	body := (&dirBody{}).encode()
	var dirMain rollback.Digest
	if fm.rollbackOn {
		hdr := &rollback.Header{Inner: true}
		hdr.Main = fm.hasher.InnerMain(treeID(fm.content, name), rollback.ContentDigest(body), &hdr.Buckets)
		dirMain = hdr.Main
		if err := fm.putBlob(fm.content, name, hdr, body); err != nil {
			return err
		}
	} else if err := fm.putBlob(fm.content, name, nil, body); err != nil {
		return err
	}

	return fm.applyToParent(fm.content, path.Parent().String(), func(db *dirBody) error {
		if !db.add(path.Name(), true) {
			return fmt.Errorf("%w: %s", ErrExists, name)
		}
		return nil
	}, []bucketOp{
		{child: treeID(fm.content, name), newMain: dirMain},
		{child: treeID(fm.content, aclName(name)), newMain: aclMain},
	})
}

// writeContent creates or updates a content file. On creation, newACL
// becomes the file's ACL; on update the existing ACL is untouched.
func (fm *fileManager) writeContent(path fspath.Path, content []byte, newACL *acl.ACL) (created bool, err error) {
	if path.IsDir() {
		return false, fmt.Errorf("%w: %q is a directory path", ErrBadRequest, path)
	}
	name := path.String()
	existed, err := fm.exists(fm.content, name)
	if err != nil {
		return false, err
	}

	// Dedup refcount discipline: acquire the new reference first, release
	// the old one only after the whole operation durably commits, and
	// drop the fresh reference if the operation fails before the leaf is
	// durable. The old ordering (release before the leaf write) could
	// garbage-collect content that live files still referenced when a
	// later write failed.
	body, newHName, err := fm.encodeContent(content)
	if err != nil {
		return false, err
	}
	var oldHName string
	if existed && fm.dedup != nil {
		oldHName, err = fm.contentRefName(name)
		if err != nil {
			fm.dropDedupRef(newHName)
			return false, err
		}
	}
	leafDurable := false
	committed := false
	if newHName != "" {
		releaseNew := func() {
			if !leafDurable {
				fm.dropDedupRef(newHName)
			}
		}
		fm.onOpAbort(releaseNew)
		if fm.tx == nil {
			defer func() {
				if !committed {
					releaseNew()
				}
			}()
		}
	}

	oldMain, newMain, err := fm.writeLeaf(fm.content, name, body)
	if err != nil {
		return false, err
	}
	if !fm.staging() {
		// The leaf hit the backend: it now references newHName, so an
		// abort must not release it anymore.
		leafDurable = true
	}
	// Releasing the old reference waits for the durable commit. When the
	// rewrite stored identical content (oldHName == newHName), Put above
	// acquired a second reference on the same object, so one release
	// still balances the books.
	finish := func() {
		if oldHName != "" {
			name := oldHName
			fm.afterOp(func() { fm.dropDedupRef(name) })
		}
		committed = true
	}
	parent := path.Parent().String()
	if existed {
		err := fm.applyToParent(fm.content, parent, nil, []bucketOp{
			{child: treeID(fm.content, name), oldMain: oldMain, newMain: newMain},
		})
		if err != nil {
			return false, err
		}
		finish()
		return false, nil
	}

	_, aclMain, err := fm.writeLeaf(fm.content, aclName(name), newACL.Encode())
	if err != nil {
		return false, err
	}
	err = fm.applyToParent(fm.content, parent, func(db *dirBody) error {
		db.add(path.Name(), false)
		return nil
	}, []bucketOp{
		{child: treeID(fm.content, name), newMain: newMain},
		{child: treeID(fm.content, aclName(name)), newMain: aclMain},
	})
	if err != nil {
		return false, err
	}
	finish()
	return true, nil
}

// encodeContent builds a content file's body, deduplicating when the
// extension is enabled (paper §V-A). The returned hName (when non-empty)
// carries a freshly acquired reference the caller must account for.
func (fm *fileManager) encodeContent(content []byte) ([]byte, string, error) {
	if fm.dedup == nil {
		return encodeRawBody(content), "", nil
	}
	hName, _, err := fm.dedup.Put(content)
	if err != nil {
		return nil, "", err
	}
	return encodeDedupBody(hName), hName, nil
}

// contentRefName returns the dedup object a content file currently
// references, or "" for raw bodies and absent files.
func (fm *fileManager) contentRefName(name string) (string, error) {
	if fm.dedup == nil {
		return "", nil
	}
	_, body, err := fm.getBlob(fm.content, name)
	if errors.Is(err, ErrNotFound) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	_, hName, err := decodeContentBody(body)
	if err != nil {
		return "", err
	}
	return hName, nil
}

// dropDedupRef releases one dedup reference, best-effort: a failure
// leaves the refcount too high (content is retained longer than needed),
// never too low — the safe direction for a compensation that cannot be
// journaled (Release is not idempotent).
func (fm *fileManager) dropDedupRef(hName string) {
	if fm.dedup == nil || hName == "" {
		return
	}
	_, _ = fm.dedup.Release(hName)
}

// readContent returns a content file's plaintext, validating the
// rollback tree and resolving deduplication indirections. Concurrent
// reads of the same path are coalesced into one decryption flight: every
// caller already holds the path's read lock (sharded lock manager), so
// all flight members would observe identical bytes and the shared result
// is exact. Staging views bypass coalescing — their reads may diverge
// from the committed state the flight key describes.
func (fm *fileManager) readContent(path fspath.Path) ([]byte, error) {
	if fm.staging() {
		return fm.readContentUncoalesced(path)
	}
	fm.obs.coalesceInflight.Add(1)
	defer fm.obs.coalesceInflight.Add(-1)
	val, shared, err := fm.shared.reads.do(fm.ctx, path.String(), func() ([]byte, error) {
		return fm.readContentUncoalesced(path)
	})
	if shared {
		fm.obs.coalesceShared.Inc()
	} else {
		fm.obs.coalesceLeader.Inc()
	}
	return val, err
}

// readContentUncoalesced is the single-flight body of readContent. The
// returned slice may be shared across coalesced callers and must be
// treated as read-only.
func (fm *fileManager) readContentUncoalesced(path fspath.Path) ([]byte, error) {
	if path.IsDir() {
		return nil, fmt.Errorf("%w: %q is a directory path", ErrBadRequest, path)
	}
	name := path.String()
	hdr, body, err := fm.getBlob(fm.content, name)
	if err != nil {
		return nil, err
	}
	if err := fm.validateNode(fm.content, name, hdr, body); err != nil {
		return nil, err
	}
	raw, hName, err := decodeContentBody(body)
	if err != nil {
		return nil, err
	}
	if hName == "" {
		return raw, nil
	}
	if fm.dedup == nil {
		return nil, fmt.Errorf("%w: %s: dedup reference without dedup store", ErrIntegrity, name)
	}
	return fm.dedup.Get(hName)
}

// readDir returns a directory's children, validating the rollback tree
// on a cache miss. The slice is the cached directory body's own (hits are
// shared, see caches.go): callers read it and never modify it. Directory
// mutations do not come through here — applyToParent decodes its own copy
// from the store.
func (fm *fileManager) readDir(path fspath.Path) ([]DirEntry, error) {
	if !path.IsDir() {
		return nil, fmt.Errorf("%w: %q is not a directory path", ErrBadRequest, path)
	}
	name := path.String()
	if db, ok := fm.caches.dirs.Get(name); ok {
		fm.rs.AddCacheHit()
		return db.entries, nil
	}
	fm.rs.AddCacheMiss()
	gen := fm.caches.dirs.Gen()
	hdr, body, err := fm.getBlob(fm.content, name)
	if err != nil {
		return nil, err
	}
	if err := fm.validateNode(fm.content, name, hdr, body); err != nil {
		return nil, err
	}
	db, err := decodeDirBody(body)
	if err != nil {
		return nil, err
	}
	if !fm.staging() {
		fm.caches.dirs.Put(name, db, int64(len(body)), gen)
	}
	return db.entries, nil
}

// readACL loads and validates the ACL file of a path, consulting the
// in-enclave cache first. The returned ACL is shared with the cache and
// every other reader: a caller that edits it must Clone first.
func (fm *fileManager) readACL(path fspath.Path) (*acl.ACL, error) {
	name := aclName(path.String())
	if a, ok := fm.caches.acls.Get(name); ok {
		fm.rs.AddCacheHit()
		return a, nil
	}
	fm.rs.AddCacheMiss()
	gen := fm.caches.acls.Gen()
	hdr, body, err := fm.getBlob(fm.content, name)
	if err != nil {
		return nil, err
	}
	if err := fm.validateNode(fm.content, name, hdr, body); err != nil {
		return nil, err
	}
	a, err := acl.DecodeACL(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrIntegrity, name, err)
	}
	if !fm.staging() {
		fm.caches.acls.Put(name, a, int64(len(body)), gen)
	}
	return a, nil
}

// writeACL replaces the ACL file of an existing path — the constant-cost
// permission update at the heart of immediate revocation (P3, S4).
func (fm *fileManager) writeACL(path fspath.Path, a *acl.ACL) error {
	name := aclName(path.String())
	if ok, err := fm.exists(fm.content, name); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	oldMain, newMain, err := fm.writeLeaf(fm.content, name, a.Encode())
	if err != nil {
		return err
	}
	return fm.applyToParent(fm.content, contentParent(name), nil, []bucketOp{
		{child: treeID(fm.content, name), oldMain: oldMain, newMain: newMain},
	})
}

// removePath deletes a content file or an empty directory together with
// its ACL. releaseDedup controls whether a dedup reference is dropped
// (false during moves, which carry the reference to the new name).
func (fm *fileManager) removePath(path fspath.Path, releaseDedup bool) error {
	if path.IsRoot() {
		return fmt.Errorf("%w: cannot remove the root directory", ErrBadRequest)
	}
	name := path.String()
	if path.IsDir() {
		_, db, err := fm.loadDir(fm.content, name)
		if err != nil {
			return err
		}
		if len(db.entries) > 0 {
			return fmt.Errorf("%w: %s", ErrNotEmpty, name)
		}
	}
	var relName string
	if !path.IsDir() && releaseDedup && fm.dedup != nil {
		// Capture the reference now; it is dropped only after the removal
		// durably commits, so a failed removal keeps the content
		// referenced.
		var err error
		relName, err = fm.contentRefName(name)
		if err != nil {
			return err
		}
	}

	var fileMain, aclMain rollback.Digest
	if fm.rollbackOn {
		hdr, err := fm.readHeader(fm.content, name)
		if err != nil {
			return err
		}
		fileMain = hdr.Main
		aclHdr, err := fm.readHeader(fm.content, aclName(name))
		if err != nil {
			return err
		}
		aclMain = aclHdr.Main
	}
	// Parent first: once the directory entry is gone no reader can reach
	// the blobs, so a fault between the steps leaves unreferenced objects
	// (garbage) instead of a dangling entry whose GET fails integrity.
	err := fm.applyToParent(fm.content, path.Parent().String(), func(db *dirBody) error {
		if !db.remove(path.Name(), path.IsDir()) {
			return fmt.Errorf("%w: %s missing in parent", ErrIntegrity, name)
		}
		return nil
	}, []bucketOp{
		{child: treeID(fm.content, name), oldMain: fileMain},
		{child: treeID(fm.content, aclName(name)), oldMain: aclMain},
	})
	if err != nil {
		return err
	}
	if err := fm.deleteBlob(fm.content, name); err != nil {
		return err
	}
	if err := fm.deleteBlob(fm.content, aclName(name)); err != nil {
		return err
	}
	if relName != "" {
		fm.afterOp(func() { fm.dropDedupRef(relName) })
	}
	return nil
}

// movePath moves a content file or a whole directory subtree to a new
// location (which must not exist). The file's ACL travels with it;
// deduplication references are carried over, not re-counted.
func (fm *fileManager) movePath(src, dst fspath.Path) error {
	if src.IsDir() != dst.IsDir() {
		return fmt.Errorf("%w: move between file and directory", ErrBadRequest)
	}
	if src.IsRoot() || dst.IsRoot() {
		return fmt.Errorf("%w: cannot move the root directory", ErrBadRequest)
	}
	if src.IsDir() && (src == dst || src.IsAncestorOf(dst)) {
		return fmt.Errorf("%w: cannot move a directory into itself", ErrBadRequest)
	}
	if ok, err := fm.pathExists(dst); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: %s", ErrExists, dst)
	}

	srcACL, err := fm.readACL(src)
	if err != nil {
		return err
	}
	if src.IsDir() {
		if err := fm.createDir(dst, srcACL); err != nil {
			return err
		}
		entries, err := fm.readDir(src)
		if err != nil {
			return err
		}
		for _, e := range entries {
			var childSrc, childDst fspath.Path
			var cErr error
			if e.IsDir {
				childSrc, cErr = src.ChildDir(e.Name)
			} else {
				childSrc, cErr = src.ChildFile(e.Name)
			}
			if cErr != nil {
				return cErr
			}
			if e.IsDir {
				childDst, cErr = dst.ChildDir(e.Name)
			} else {
				childDst, cErr = dst.ChildFile(e.Name)
			}
			if cErr != nil {
				return cErr
			}
			if err := fm.movePath(childSrc, childDst); err != nil {
				return err
			}
		}
		return fm.removePath(src, false)
	}

	// Content file: carry the body (raw or dedup indirection) verbatim.
	hdr, body, err := fm.getBlob(fm.content, src.String())
	if err != nil {
		return err
	}
	if err := fm.validateNode(fm.content, src.String(), hdr, body); err != nil {
		return err
	}
	raw, hName, err := decodeContentBody(body)
	if err != nil {
		return err
	}
	var newBody []byte
	if hName != "" {
		newBody = encodeDedupBody(hName)
	} else {
		newBody = encodeRawBody(raw)
	}
	dstName := dst.String()
	oldMain, newMain, err := fm.writeLeaf(fm.content, dstName, newBody)
	if err != nil {
		return err
	}
	_ = oldMain
	_, aclMain, err := fm.writeLeaf(fm.content, aclName(dstName), srcACL.Encode())
	if err != nil {
		return err
	}
	err = fm.applyToParent(fm.content, dst.Parent().String(), func(db *dirBody) error {
		db.add(dst.Name(), false)
		return nil
	}, []bucketOp{
		{child: treeID(fm.content, dstName), newMain: newMain},
		{child: treeID(fm.content, aclName(dstName)), newMain: aclMain},
	})
	if err != nil {
		return err
	}
	return fm.removePath(src, false)
}

// readMemberList loads and validates a user's member list file,
// consulting the in-enclave cache first. It returns ErrNotFound for
// users without one. The returned list is shared with the cache and
// every other reader: a caller that edits it must Clone first.
func (fm *fileManager) readMemberList(u acl.UserID) (*acl.MemberList, error) {
	name := memberListName(u)
	if m, ok := fm.caches.members.Get(name); ok {
		fm.rs.AddCacheHit()
		return m, nil
	}
	fm.rs.AddCacheMiss()
	gen := fm.caches.members.Gen()
	hdr, body, err := fm.getBlob(fm.group, name)
	if err != nil {
		return nil, err
	}
	if err := fm.validateNode(fm.group, name, hdr, body); err != nil {
		return nil, err
	}
	m, err := acl.DecodeMemberList(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrIntegrity, name, err)
	}
	if !fm.staging() {
		fm.caches.members.Put(name, m, int64(len(body)), gen)
	}
	return m, nil
}

// writeMemberList persists a user's member list file, creating it on
// first use.
func (fm *fileManager) writeMemberList(u acl.UserID, m *acl.MemberList) error {
	return fm.writeGroupFile(memberListName(u), m.Encode())
}

// readGroupList loads and validates the group list file, returning an
// empty list before any group exists. Consults the in-enclave cache
// first. The returned list is shared with the cache and every other
// reader: a caller that edits it must Clone first.
func (fm *fileManager) readGroupList() (*acl.GroupList, error) {
	if l, ok := fm.caches.groups.Get(groupListName); ok {
		fm.rs.AddCacheHit()
		return l, nil
	}
	fm.rs.AddCacheMiss()
	gen := fm.caches.groups.Gen()
	hdr, body, err := fm.getBlob(fm.group, groupListName)
	if errors.Is(err, ErrNotFound) {
		l := acl.NewGroupList()
		if !fm.staging() {
			fm.caches.groups.Put(groupListName, l, 16, gen)
		}
		return l, nil
	}
	if err != nil {
		return nil, err
	}
	if err := fm.validateNode(fm.group, groupListName, hdr, body); err != nil {
		return nil, err
	}
	l, err := acl.DecodeGroupList(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrIntegrity, groupListName, err)
	}
	if !fm.staging() {
		fm.caches.groups.Put(groupListName, l, int64(len(body)), gen)
	}
	return l, nil
}

// writeGroupList persists the group list file.
func (fm *fileManager) writeGroupList(l *acl.GroupList) error {
	return fm.writeGroupFile(groupListName, l.Encode())
}

// writeGroupFile writes one flat group-store file and keeps the group
// root's children list and buckets in sync.
func (fm *fileManager) writeGroupFile(name string, body []byte) error {
	existed, err := fm.exists(fm.group, name)
	if err != nil {
		return err
	}
	oldMain, newMain, err := fm.writeLeaf(fm.group, name, body)
	if err != nil {
		return err
	}
	if existed {
		return fm.applyToParent(fm.group, groupRootName, nil, []bucketOp{
			{child: treeID(fm.group, name), oldMain: oldMain, newMain: newMain},
		})
	}
	return fm.applyToParent(fm.group, groupRootName, func(db *dirBody) error {
		db.add(name, false)
		return nil
	}, []bucketOp{
		{child: treeID(fm.group, name), newMain: newMain},
	})
}
