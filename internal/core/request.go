package core

import (
	"context"
	"errors"
	"fmt"

	"segshare/internal/acl"
	"segshare/internal/audit"
	"segshare/internal/fspath"
	"segshare/internal/obs"
)

// The request layer is the one implementation of an Algo-1 request
// (paper Fig. 1: request handler → access control → file manager). Both
// transports call it — the HTTP handler (handler.go, webdav.go) and
// DirectSession (direct.go) — and only parse input and shape output.
// Each method runs, once and in this order: first-contact provisioning,
// the request's lock plan (locks.go), the access-control call, the
// authorization or change audit record, and the heavy-hitter retag of
// group-targeted mutations. TestTransportsDelegateToRequestLayer fails
// on a transport that grows a second copy of any of them.

// request is one request on its way from a transport to access control:
// the caller, its op class, its telemetry, and the access-control view
// bound to it. Transports hold it by value, so it costs no allocation.
type request struct {
	s  *Server
	u  acl.UserID
	op string
	tr *obs.Trace
	rs *obs.ReqStats
	ac *accessControl
}

// newRequest binds user u's request to its telemetry and to a view of
// access control that charges store, cache and journal work to rs and
// observes ctx (nil: never cancelled). The request is charged to the
// caller's default group ("user:<id>") in the heavy-hitter sketch until
// a group-targeted mutation retags it.
func (s *Server) newRequest(u acl.UserID, op string, tr *obs.Trace, rs *obs.ReqStats, ctx context.Context) request {
	s.obs.tagRequestGroup(tr, "user:"+string(u))
	return request{s: s, u: u, op: op, tr: tr, rs: rs, ac: s.ac.withRequest(rs, ctx)}
}

// record ends a request's access-control step. It writes the audit
// record — nil is an allow, ErrPermissionDenied a deny, and any other
// error (not found, bad request, integrity, cancellation) is no
// authorization decision and writes nothing — charging the enqueue to
// the request's stats. ev names the subject; one without an Event is a
// file authorization check. Then a request whose ev names a group is
// charged to that group in the heavy-hitter sketch.
func (rq request) record(ev audit.Event, err error) {
	switch {
	case rq.s.obs.audit == nil:
	case err == nil:
		ev.Decision = audit.DecisionAllow
	case errors.Is(err, ErrPermissionDenied):
		ev.Decision = audit.DecisionDeny
	}
	if ev.Decision != "" {
		if ev.Event == "" {
			ev.Event = audit.EventFileAuthzAllow
			if ev.Decision == audit.DecisionDeny {
				ev.Event = audit.EventFileAuthzDeny
			}
		}
		ev.Op, ev.RequestID, ev.User = rq.op, rq.tr.ID(), string(rq.u)
		rq.s.obs.auditEmitStats(rq.rs, ev)
	}
	rq.s.obs.tagRequestGroup(rq.tr, ev.Group)
}

// getFile reads a content file.
func (rq request) getFile(path fspath.Path) ([]byte, error) {
	unlock := rq.s.locks.read(rq.rs, scopeFSRead)
	content, err := rq.ac.GetFile(rq.u, path)
	unlock()
	rq.record(audit.Event{Path: path.String()}, err)
	return content, err
}

// getFileRange reads one byte range of a content file.
func (rq request) getFileRange(path fspath.Path, br ByteRange) (RangeResult, error) {
	unlock := rq.s.locks.read(rq.rs, scopeFSRead)
	res, err := rq.ac.GetFileRange(rq.u, path, br)
	unlock()
	rq.record(audit.Event{Path: path.String()}, err)
	return res, err
}

// listDir lists a directory.
func (rq request) listDir(path fspath.Path) ([]ListedEntry, error) {
	unlock := rq.s.locks.read(rq.rs, scopeFSRead)
	entries, err := rq.ac.GetDir(rq.u, path)
	unlock()
	rq.record(audit.Event{Path: path.String()}, err)
	return entries, err
}

// propfind answers a WebDAV PROPFIND under one read lock: a file's size,
// or — with children set — a directory's listing and each readable child
// file's size (sizes[i] belongs to entries[i]; 0 for directories and
// files the caller may not read). One record covers the request.
func (rq request) propfind(path fspath.Path, children bool) (size int64, entries []ListedEntry, sizes []int64, err error) {
	unlock := rq.s.locks.read(rq.rs, scopeFSRead)
	defer unlock()
	if !path.IsDir() {
		content, err := rq.ac.GetFile(rq.u, path)
		rq.record(audit.Event{Path: path.String()}, err)
		return int64(len(content)), nil, nil, err
	}
	entries, err = rq.ac.GetDir(rq.u, path)
	rq.record(audit.Event{Path: path.String()}, err)
	if err != nil || !children {
		return 0, nil, nil, err
	}
	sizes = make([]int64, len(entries))
	for i, e := range entries {
		if e.IsDir || !e.Permission.Has(acl.PermRead) {
			continue
		}
		if child, err := path.ChildFile(e.Name); err == nil {
			if content, err := rq.ac.GetFile(rq.u, child); err == nil {
				sizes[i] = int64(len(content))
			}
		}
	}
	return 0, entries, sizes, nil
}

// putFile creates or overwrites a content file from a raw content body
// (bodyRaw ‖ content), which it takes over.
func (rq request) putFile(path fspath.Path, body []byte) (created bool, err error) {
	err = rq.s.provisionUser(rq.rs, rq.u)
	if err == nil {
		unlock := rq.s.locks.exclusive(rq.rs, scopeFSWrite)
		created, err = rq.ac.PutFile(rq.u, path, body)
		unlock()
	}
	rq.record(audit.Event{Path: path.String()}, err)
	return created, err
}

// mkdir creates a directory.
func (rq request) mkdir(path fspath.Path) error {
	err := rq.s.provisionUser(rq.rs, rq.u)
	if err == nil {
		unlock := rq.s.locks.exclusive(rq.rs, scopeFSWrite)
		err = rq.ac.PutDir(rq.u, path)
		unlock()
	}
	rq.record(audit.Event{Path: path.String()}, err)
	return err
}

// remove deletes a file or an empty directory.
func (rq request) remove(path fspath.Path) error {
	unlock := rq.s.locks.exclusive(rq.rs, scopeFSWrite)
	err := rq.ac.Remove(rq.u, path)
	unlock()
	rq.record(audit.Event{Path: path.String()}, err)
	return err
}

// move relocates a file or a directory subtree.
func (rq request) move(src, dst fspath.Path) error {
	unlock := rq.s.locks.exclusive(rq.rs, scopeFSWrite)
	err := rq.ac.Move(rq.u, src, dst)
	unlock()
	rq.record(audit.Event{Path: src.String() + " -> " + dst.String()}, err)
	return err
}

// setPermission sets group's permission on path. Granting to a default
// group ("user:x") may create its group-list record on demand, which the
// exclusive plan covers too.
func (rq request) setPermission(path fspath.Path, group acl.GroupName, p acl.Permission) error {
	unlock := rq.s.locks.exclusive(rq.rs, scopeFSWrite)
	err := rq.ac.SetPermission(rq.u, path, group, p)
	unlock()
	rq.record(audit.Event{Event: audit.EventACLChange, Path: path.String(), Group: string(group),
		Detail: "permission=" + string(FormatPermission(p))}, err)
	return err
}

// setInherit toggles permission inheritance on path.
func (rq request) setInherit(path fspath.Path, inherit bool) error {
	unlock := rq.s.locks.exclusive(rq.rs, scopeFSWrite)
	err := rq.ac.SetInherit(rq.u, path, inherit)
	unlock()
	rq.record(audit.Event{Event: audit.EventACLChange, Path: path.String(),
		Detail: fmt.Sprintf("inherit=%t", inherit)}, err)
	return err
}

// setFileOwner grants or revokes group's ownership of path; like
// setPermission it may create a group record.
func (rq request) setFileOwner(path fspath.Path, group acl.GroupName, owner bool) error {
	unlock := rq.s.locks.exclusive(rq.rs, scopeFSWrite)
	err := rq.ac.SetFileOwner(rq.u, path, group, owner)
	unlock()
	rq.record(audit.Event{Event: audit.EventACLChange, Path: path.String(), Group: string(group),
		Detail: fmt.Sprintf("owner=%t", owner)}, err)
	return err
}

// groupChange runs one group-store mutation (add_u, rmv_u, rGO, group
// deletion): provision the given users, then call under the group write
// plan, then record ev. Provisioning comes first so that a never-seen
// user's identity relations (or the FSO root ACL) are never bootstrapped
// inside the group-only critical section.
func (rq request) groupChange(ev audit.Event, call func() error, provision ...acl.UserID) error {
	err := rq.s.provisionUser(rq.rs, provision...)
	if err == nil {
		unlock := rq.s.locks.groupWrite(rq.rs)
		err = call()
		unlock()
	}
	ev.Event = audit.EventGroupChange
	rq.record(ev, err)
	return err
}

// addUser adds user to group, creating the group on first use; both
// principals are provisioned.
func (rq request) addUser(user acl.UserID, group acl.GroupName) error {
	return rq.groupChange(audit.Event{Target: string(user), Group: string(group)},
		func() error { return rq.ac.AddUser(rq.u, user, group) }, rq.u, user)
}

func (rq request) removeUser(user acl.UserID, group acl.GroupName) error {
	return rq.groupChange(audit.Event{Target: string(user), Group: string(group)},
		func() error { return rq.ac.RemoveUser(rq.u, user, group) }, rq.u)
}

func (rq request) setGroupOwner(group, ownerGroup acl.GroupName, owner bool) error {
	return rq.groupChange(audit.Event{Group: string(group), Detail: fmt.Sprintf("ownerGroup=%s owner=%t", ownerGroup, owner)},
		func() error { return rq.ac.SetGroupOwner(rq.u, group, ownerGroup, owner) }, rq.u)
}

func (rq request) deleteGroup(group acl.GroupName) error {
	return rq.groupChange(audit.Event{Group: string(group), Detail: "delete"},
		func() error { return rq.ac.DeleteGroup(rq.u, group) }, rq.u)
}

// whoami returns the caller's groups and the groups it owns. Reading
// one's own memberships is no authorization decision, so it writes no
// record.
func (rq request) whoami() (groups, owned []acl.GroupName, err error) {
	unlock := rq.s.locks.read(rq.rs, scopeGroupRead)
	defer unlock()
	if groups, err = rq.ac.Memberships(rq.u); err == nil {
		owned, err = rq.ac.OwnedGroups(rq.u)
	}
	return groups, owned, err
}
