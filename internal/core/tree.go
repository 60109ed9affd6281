package core

import (
	"errors"
	"fmt"
	"strings"

	"segshare/internal/acl"
	"segshare/internal/audit"
	"segshare/internal/rollback"
)

// This file maintains and validates the rollback-protection hash tree
// (paper §V-D/§V-E) over a namespace. Writes update one bucket per
// ancestor and re-derive each ancestor's main hash — O(depth), no sibling
// access. Reads validate one bucket per level, touching only the stored
// headers of the files sharing the bucket.

// treeID is the canonical identifier of a node in the hash tree,
// namespaced by store kind.
func treeID(ns *namespace, name string) string { return ns.kind + ":" + name }

// rollbackFailed counts a rejected validation, records it in the audit
// trail (a rollback failure is direct evidence of host tampering under
// the threat model), and passes the error through.
func (fm *fileManager) rollbackFailed(err error) error {
	fm.obs.rollbackFailures.Inc()
	fm.obs.auditEmitStats(fm.rs, audit.Event{Event: audit.EventRollbackFailure, Detail: err.Error()})
	return err
}

// bucketOp describes one child-hash change in a parent's buckets.
// A zero oldMain means the child is new; a zero newMain means it is being
// removed.
type bucketOp struct {
	child   string
	oldMain rollback.Digest
	newMain rollback.Digest
}

// writeLeaf writes a leaf file (content file, ACL, or administration
// file) and returns its previous and new main hashes (zero values when
// rollback protection is off, or when the file did not exist).
func (fm *fileManager) writeLeaf(ns *namespace, name string, body []byte) (oldMain, newMain rollback.Digest, err error) {
	if !fm.rollbackOn {
		fm.putBlob(ns, name, nil, body)
		return rollback.Digest{}, rollback.Digest{}, nil
	}
	oldMain, err = fm.previousMain(ns, name)
	if err != nil && !errors.Is(err, ErrNotFound) { // not found: creating
		return oldMain, newMain, err
	}
	newMain = fm.hasher.LeafMain(treeID(ns, name), rollback.ContentDigest(body))
	fm.putBlob(ns, name, &rollback.Header{Main: newMain}, body)
	return oldMain, newMain, nil
}

// loadDir loads an inner node's header and decoded directory body.
func (fm *fileManager) loadDir(ns *namespace, name string) (*rollback.Header, *dirBody, error) {
	hdr, body, err := fm.getBlob(ns, name)
	if err != nil {
		return nil, nil, err
	}
	db, err := decodeDirBody(body)
	if err != nil {
		return nil, nil, err
	}
	return hdr, db, nil
}

// writeRootNode initializes a namespace root with the given body and no
// children (group store) — used only at first start.
func (fm *fileManager) writeRootNode(ns *namespace, db *dirBody) {
	body := db.encode()
	var hdr *rollback.Header
	if fm.rollbackOn {
		hdr = &rollback.Header{Inner: true}
		hdr.Main = fm.hasher.InnerMain(treeID(ns, ns.rootName), rollback.ContentDigest(body), &hdr.Buckets)
	}
	fm.putRootBlob(ns, hdr, body)
}

// applyToParent mutates an inner node: an optional directory-body change
// plus bucket updates for changed children, then recomputes the node's
// main hash and propagates the change to the namespace root, committing
// the root guard. Without rollback protection the bucket updates are
// moot, so a call that leaves the directory body alone (an overwrite of
// an existing child) has nothing to write and does not touch the parent.
func (fm *fileManager) applyToParent(ns *namespace, parentName string, mutate func(*dirBody) error, ops []bucketOp) error {
	if !fm.rollbackOn && mutate == nil {
		return nil
	}
	hdr, body, err := fm.getBlob(ns, parentName)
	if err != nil {
		return err
	}
	if fm.rollbackOn {
		if err := fm.proveForWrite(ns, parentName, hdr, body); err != nil {
			return err
		}
	}
	db, err := decodeDirBody(body)
	if err != nil {
		return err
	}
	if mutate != nil {
		if err := mutate(db); err != nil {
			return err
		}
	}
	body = db.encode()
	if !fm.rollbackOn {
		fm.putBlob(ns, parentName, nil, body)
		return nil
	}
	oldMain := hdr.Main
	fm.applyBucketOps(hdr, ops)
	hdr.Main = fm.hasher.InnerMain(treeID(ns, parentName), rollback.ContentDigest(body), &hdr.Buckets)
	if parentName == ns.rootName {
		fm.putRootBlob(ns, hdr, body)
		return nil
	}
	fm.putBlob(ns, parentName, hdr, body)
	return fm.propagateReplace(ns, parentName, oldMain, hdr.Main)
}

func (fm *fileManager) applyBucketOps(hdr *rollback.Header, ops []bucketOp) {
	for _, op := range ops {
		child := op.child
		switch {
		case op.oldMain.IsZero():
			hdr.Buckets.AddChild(fm.hasher, child, op.newMain)
		case op.newMain.IsZero():
			hdr.Buckets.RemoveChild(fm.hasher, child, op.oldMain)
		default:
			hdr.Buckets.ReplaceChild(fm.hasher, child, op.oldMain, op.newMain)
		}
	}
}

// propagateReplace walks from child's parent to the root, swapping the
// child's main hash in each ancestor's bucket and re-deriving the
// ancestor's main hash.
func (fm *fileManager) propagateReplace(ns *namespace, child string, oldMain, newMain rollback.Digest) error {
	depth := 0
	defer func() { fm.obs.treeUpdateDepth.Observe(uint64(depth)) }()
	for name := ns.parentOf(child); name != ""; name = ns.parentOf(name) {
		depth++
		hdr, body, err := fm.getBlob(ns, name)
		if err != nil {
			return err
		}
		if err := fm.proveForWrite(ns, name, hdr, body); err != nil {
			return err
		}
		hdr.Buckets.ReplaceChild(fm.hasher, treeID(ns, child), oldMain, newMain)
		prev := hdr.Main
		hdr.Main = fm.hasher.InnerMain(treeID(ns, name), rollback.ContentDigest(body), &hdr.Buckets)
		if name == ns.rootName {
			fm.putRootBlob(ns, hdr, body)
		} else {
			fm.putBlob(ns, name, hdr, body)
		}
		child, oldMain, newMain = name, prev, hdr.Main
	}
	return nil
}

// treeChildren enumerates the tree children of an inner node from its
// directory body: in the content store each entry contributes the child
// itself and its ACL file; the root additionally parents its own ACL.
func (fm *fileManager) treeChildren(ns *namespace, name string, db *dirBody) []string {
	var out []string
	if ns == fm.group {
		for _, e := range db.entries {
			out = append(out, e.Name)
		}
		return out
	}
	for _, e := range db.entries {
		child := name + e.Name
		if e.IsDir {
			child += "/"
		}
		out = append(out, child, aclName(child))
	}
	if name == ns.rootName {
		out = append(out, aclName(name))
	}
	return out
}

// validateNode performs the read-path rollback check of paper §V-D: the
// node's own main hash is recomputed from its content; then, for each
// ancestor level, the single bucket containing the child is recomputed
// from the stored main hashes of the files sharing it; finally the root's
// main hash is checked against the root guard (§V-E).
//
// The verified-main cache (caches.go) ends the walk early. A node whose
// main equals the one the enclave last proved current is valid without
// any ancestor; a walk stops at the first ancestor that is cached, once
// that ancestor's bucket verified. A cached main that differs from the
// stored one is a rollback. A walk that reached the guard or a cached
// ancestor caches the main of every node it proved.
func (fm *fileManager) validateNode(ns *namespace, name string, hdr *rollback.Header, body []byte) error {
	if !fm.rollbackOn {
		return nil
	}
	if hdr == nil {
		return fm.rollbackFailed(fmt.Errorf("%w: %s: missing rollback header", ErrIntegrity, name))
	}
	var want rollback.Digest
	if hdr.Inner {
		want = fm.hasher.InnerMain(treeID(ns, name), rollback.ContentDigest(body), &hdr.Buckets)
	} else {
		want = fm.hasher.LeafMain(treeID(ns, name), rollback.ContentDigest(body))
	}
	if want != hdr.Main {
		return fm.rollbackFailed(fmt.Errorf("%w: %s: stale main hash", ErrRollback, name))
	}
	depth := 0
	defer func() { fm.obs.treeValidateDepth.Observe(uint64(depth)) }()
	gen := fm.cache.Gen()
	id := treeID(ns, name)
	if hit, err := fm.checkVerified(name, id, hdr.Main); hit || err != nil {
		return err
	}
	if name == ns.rootName {
		if err := fm.guardCheck(ns, hdr); err != nil {
			return fm.rollbackFailed(fmt.Errorf("%w: %s: %v", ErrRollback, name, err))
		}
	}

	proven := []verifiedMain{{id, hdr.Main}}
	child := name
	childMain := hdr.Main
	for anc := ns.parentOf(name); anc != ""; anc = ns.parentOf(anc) {
		depth++
		ancHdr, ancBody, err := fm.getBlob(ns, anc)
		if err != nil {
			return err
		}
		ancDB, err := decodeDirBody(ancBody)
		if err != nil {
			return err
		}
		ancID := treeID(ns, anc)
		recomputed := fm.hasher.InnerMain(ancID, rollback.ContentDigest(ancBody), &ancHdr.Buckets)
		if recomputed != ancHdr.Main {
			return fm.rollbackFailed(fmt.Errorf("%w: %s: stale main hash", ErrRollback, anc))
		}
		cached, err := fm.checkVerified(anc, ancID, ancHdr.Main)
		if err != nil {
			return err
		}
		// Recompute the single bucket holding child from the stored main
		// hashes of the files sharing it.
		childID := treeID(ns, child)
		bucketIdx := fm.hasher.BucketIndex(childID)
		var mains []rollback.Digest
		for _, sibling := range fm.treeChildren(ns, anc, ancDB) {
			sibID := treeID(ns, sibling)
			if fm.hasher.BucketIndex(sibID) != bucketIdx {
				continue
			}
			if sibling == child {
				mains = append(mains, childMain)
				continue
			}
			sibHdr, err := fm.readHeader(ns, sibling)
			if err != nil {
				return err
			}
			mains = append(mains, sibHdr.Main)
		}
		if err := ancHdr.Buckets.VerifyBucket(fm.hasher, childID, mains); err != nil {
			return fm.rollbackFailed(fmt.Errorf("%w: %s: %v", ErrRollback, anc, err))
		}
		if cached {
			break
		}
		if anc == ns.rootName {
			if err := fm.guardCheck(ns, ancHdr); err != nil {
				return fm.rollbackFailed(fmt.Errorf("%w: %s: %v", ErrRollback, anc, err))
			}
		}
		proven = append(proven, verifiedMain{ancID, ancHdr.Main})
		child, childMain = anc, ancHdr.Main
	}
	// Under the generation captured before the walk's first fetch: a
	// write that invalidated any node meanwhile rejects them all. A view
	// that staged a write may have proven staged state, which the store
	// does not hold yet; fillCache skips those.
	for _, p := range proven {
		fm.fillCache(verifiedPfx+p.id, p.main, len(p.main), gen)
	}
	return nil
}

// verifiedMain is one node a validation walk proved current.
type verifiedMain struct {
	id   string
	main rollback.Digest
}

// checkVerified looks a node's stored main up in the verified cache: hit
// reports that the enclave proved this main current, and a cached main
// that differs is a detected rollback. A name the active operation
// staged is never a hit, as for the relations: staging invalidated it,
// a view that staged a write fills no entry, and the lock manager keeps
// every other request off the namespace until the operation applied.
func (fm *fileManager) checkVerified(name, id string, main rollback.Digest) (hit bool, err error) {
	cached, ok := fm.verified(id)
	if !ok {
		return false, nil
	}
	if cached != main {
		return true, fm.rollbackFailed(fmt.Errorf("%w: %s: main hash differs from the verified one", ErrRollback, name))
	}
	return true, nil
}

// proveForWrite makes sure an inner node a write is about to rehash into
// the tree is current: a read of a cached descendant no longer walks
// through its ancestors, so a rolled-back one folded into a new
// guard-committed root would go unnoticed. A verified-cache hit compares
// the mains; a miss runs the read-path check (validateNode), which walks
// to the guard or the first cached ancestor. A node the active operation
// already staged was derived in-enclave moments ago and needs neither.
func (fm *fileManager) proveForWrite(ns *namespace, name string, hdr *rollback.Header, body []byte) error {
	if fm.staging() {
		if sp, _ := fm.tx.staged(ns, name); sp != nil {
			return nil
		}
	}
	if hit, err := fm.checkVerified(name, treeID(ns, name), hdr.Main); hit || err != nil {
		return err
	}
	return fm.validateNode(ns, name, hdr, body)
}

// publishVerified caches the main of every blob an applied operation
// wrote: the enclave computed each one, and the store now holds it —
// roots included, whose guard commit applyIntent made before installing
// them. Aborted operations, failed installs and recovery replays never
// get here; they only invalidated.
func (fm *fileManager) publishVerified(tx *opCtx) {
	if !fm.rollbackOn {
		return
	}
	gen := fm.cache.Gen()
	for _, id := range tx.order {
		sp, ok := tx.puts[id]
		if !ok {
			continue
		}
		if hdr, _, err := rollback.DecodeHeader(sp.hdrEnc); err == nil {
			key := verifiedPfx + id
			fm.cache.Put(key, hdr.Main, charge(key, len(hdr.Main)), gen)
		}
	}
}

// previousMain returns the main hash a node's parent bucket holds for it
// — the one a write must replace. The verified cache answers when it
// can; otherwise the stored header does, as it did before the cache
// (ErrNotFound for a node that does not exist).
func (fm *fileManager) previousMain(ns *namespace, name string) (rollback.Digest, error) {
	if m, ok := fm.verified(treeID(ns, name)); ok {
		return m, nil
	}
	hdr, err := fm.readHeader(ns, name)
	if err != nil {
		return rollback.Digest{}, err
	}
	return hdr.Main, nil
}

// guardCheck verifies a root header against the namespace guard. While
// the root is staged in the active operation its token is a placeholder
// (the guard commit happens at apply time), so the check is skipped —
// the staged main hash was derived in-enclave moments ago.
func (fm *fileManager) guardCheck(ns *namespace, hdr *rollback.Header) error {
	if fm.staging() {
		if sp, _ := fm.tx.staged(ns, ns.rootName); sp != nil {
			return nil
		}
	}
	return ns.guard.Check(hdr.Main, hdr.Token)
}

// validateAll is the full fsck walk used by Server.Fsck and the
// fault-injection harness: every node of both namespaces is loaded,
// decoded, and — with rollback protection on — validated against the
// hash tree and root guards; every directory entry must resolve and
// every dedup indirection must reach its content. With rollback off it
// degrades to a structural check that still catches dangling entries
// and undecodable bodies.
func (fm *fileManager) validateAll() error {
	for _, ns := range []*namespace{fm.content, fm.group} {
		if err := fm.validateSubtree(ns, ns.rootName); err != nil {
			return err
		}
	}
	return nil
}

func (fm *fileManager) validateSubtree(ns *namespace, name string) error {
	hdr, body, err := fm.getBlob(ns, name)
	if err != nil {
		return err
	}
	if err := fm.validateNode(ns, name, hdr, body); err != nil {
		return err
	}
	if ns.isInner(name) {
		db, err := decodeDirBody(body)
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ErrIntegrity, name, err)
		}
		for _, child := range fm.treeChildren(ns, name, db) {
			if err := fm.validateSubtree(ns, child); err != nil {
				return err
			}
		}
		return nil
	}
	return fm.validateLeafBody(ns, name, body)
}

// validateLeafBody decodes a leaf according to its namespace role and
// resolves dedup indirections, so the fsck proves every reachable byte
// is actually readable.
func (fm *fileManager) validateLeafBody(ns *namespace, name string, body []byte) error {
	if ns == fm.group {
		var err error
		switch {
		case strings.HasPrefix(name, memberNamePfx):
			_, err = acl.DecodeMemberList(body)
		case name == groupListName:
			_, err = acl.DecodeGroupList(body)
		}
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ErrIntegrity, name, err)
		}
		return nil
	}
	if strings.HasSuffix(name, ".acl") {
		if _, err := acl.DecodeACL(body); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrIntegrity, name, err)
		}
		return nil
	}
	_, hName, err := decodeContentBody(body)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrIntegrity, name, err)
	}
	if hName != "" {
		if fm.dedup == nil {
			return fmt.Errorf("%w: %s: dedup reference without dedup store", ErrIntegrity, name)
		}
		if _, err := fm.dedup.Get(hName); err != nil {
			return fmt.Errorf("%w: %s: unresolvable dedup reference: %v", ErrIntegrity, name, err)
		}
	}
	return nil
}
