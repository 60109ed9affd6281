package core

import (
	"context"
	"errors"
	"net/http"
	"time"

	"segshare/internal/acl"
	"segshare/internal/fspath"
	"segshare/internal/obs"
	"segshare/internal/store"
)

// DirectSession executes requests for a user directly against the
// enclave, bypassing the network layer. It serves two purposes: an
// embedded API for programs that link the server in-process, and fast
// corpus setup for the benchmark harness (populating thousands of files
// through TLS would measure the network, not the system under test).
// Authorization is enforced exactly as over the wire; only transport and
// certificate parsing are skipped.
//
// Direct operations flow through the same telemetry chokepoint as HTTP
// requests (finishRequest): one trace, one ReqStats collector, one wide
// event per call — unless wide events are disabled, in which case the
// wrapper degenerates to a plain call with a nil collector so baseline
// benchmarks measure the un-instrumented path.
type DirectSession struct {
	s *Server
	u acl.UserID
}

// Direct returns an in-process session for the given user ID. The caller
// vouches for the identity — in the deployed system identities only ever
// come from client certificates.
func (s *Server) Direct(user string) *DirectSession {
	return &DirectSession{s: s, u: acl.UserID(user)}
}

func (d *DirectSession) parse(path string) (fspath.Path, error) {
	return fspath.Parse(path)
}

// statusForErr is the one error→status table: writeMappedErr answers
// HTTP requests from it and direct sessions feed it to their wide events
// and SLO records, so both transports bucket alike.
func statusForErr(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrPermissionDenied):
		return http.StatusForbidden
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrGroupNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists), errors.Is(err, ErrNotEmpty):
		return http.StatusConflict
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrRangeNotSatisfiable):
		return http.StatusRequestedRangeNotSatisfiable
	case errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrCanceled), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client is gone; the status exists for telemetry only.
		return StatusClientClosedRequest
	case errors.Is(err, ErrDegraded), errors.Is(err, ErrOverloaded),
		errors.Is(err, store.ErrSaturated), errors.Is(err, store.ErrCircuitOpen):
		// Fast rejections before any trusted state changed: degraded
		// read-only mode, admission shed, or a saturated backend pool.
		// Unlike the 500s below, which signal store/integrity trouble
		// (ErrIntegrity, ErrRollback, anything unmapped), these tell
		// well-behaved clients to back off and retry.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// observeDirect runs one direct operation through the request telemetry
// chokepoint. fn receives the per-call stats collector and the
// access-control view bound to it, and returns the response byte count
// for the wide event.
func (d *DirectSession) observeDirect(op string, bytesIn int64, fn func(rs *obs.ReqStats, ac *accessControl) (bytesOut int64, err error)) error {
	if !d.s.obs.wideEvents {
		_, err := fn(nil, d.s.ac)
		return err
	}
	rs := &obs.ReqStats{}
	tr := d.s.obs.beginRequest(op, rs)
	d.s.obs.tagRequestGroup(tr, "user:"+string(d.u))
	start := time.Now()
	bytesOut, err := fn(rs, d.s.ac.withStats(rs))
	d.s.obs.finishRequest(op, statusForErr(err), time.Since(start), bytesIn, bytesOut, tr, rs)
	return err
}

// Mkdir creates a directory.
func (d *DirectSession) Mkdir(path string) error {
	p, err := d.parse(path)
	if err != nil {
		return err
	}
	return d.observeDirect("fs_mkcol", 0, func(rs *obs.ReqStats, ac *accessControl) (int64, error) {
		if err := d.s.provisionUser(rs, d.u); err != nil {
			return 0, err
		}
		unlock := d.s.locks.fsWrite(rs, false, p)
		defer unlock()
		return 0, ac.PutDir(d.u, p)
	})
}

// Upload creates or updates a content file.
func (d *DirectSession) Upload(path string, content []byte) error {
	p, err := d.parse(path)
	if err != nil {
		return err
	}
	return d.observeDirect("fs_put", int64(len(content)), func(rs *obs.ReqStats, ac *accessControl) (int64, error) {
		if err := d.s.provisionUser(rs, d.u); err != nil {
			return 0, err
		}
		unlock := d.s.locks.fsWrite(rs, false, p)
		defer unlock()
		_, err := ac.PutFile(d.u, p, content)
		return 0, err
	})
}

// Download returns a file's content.
func (d *DirectSession) Download(path string) ([]byte, error) {
	p, err := d.parse(path)
	if err != nil {
		return nil, err
	}
	var content []byte
	err = d.observeDirect("fs_get", 0, func(rs *obs.ReqStats, ac *accessControl) (int64, error) {
		unlock := d.s.locks.fsRead(rs, p)
		defer unlock()
		var gerr error
		content, gerr = ac.GetFile(d.u, p)
		return int64(len(content)), gerr
	})
	return content, err
}

// List returns a directory listing.
func (d *DirectSession) List(path string) ([]ListedEntry, error) {
	p, err := d.parse(path)
	if err != nil {
		return nil, err
	}
	var entries []ListedEntry
	err = d.observeDirect("fs_get", 0, func(rs *obs.ReqStats, ac *accessControl) (int64, error) {
		unlock := d.s.locks.fsRead(rs, p)
		defer unlock()
		var gerr error
		entries, gerr = ac.GetDir(d.u, p)
		return 0, gerr
	})
	return entries, err
}

// Remove deletes a file or empty directory.
func (d *DirectSession) Remove(path string) error {
	p, err := d.parse(path)
	if err != nil {
		return err
	}
	return d.observeDirect("fs_delete", 0, func(rs *obs.ReqStats, ac *accessControl) (int64, error) {
		unlock := d.s.locks.fsWrite(rs, false, p)
		defer unlock()
		return 0, ac.Remove(d.u, p)
	})
}

// Move relocates a file or directory subtree.
func (d *DirectSession) Move(src, dst string) error {
	sp, err := d.parse(src)
	if err != nil {
		return err
	}
	dp, err := d.parse(dst)
	if err != nil {
		return err
	}
	return d.observeDirect("fs_move", 0, func(rs *obs.ReqStats, ac *accessControl) (int64, error) {
		unlock := d.s.locks.moveLocks(rs, sp, dp)
		defer unlock()
		return 0, ac.Move(d.u, sp, dp)
	})
}

// SetPermission sets a group's permission on a path ("none" clears).
func (d *DirectSession) SetPermission(path, group string, permission PermissionSpec) error {
	p, err := d.parse(path)
	if err != nil {
		return err
	}
	perm, err := ParsePermission(permission)
	if err != nil {
		return err
	}
	return d.observeDirect("api_permission", 0, func(rs *obs.ReqStats, ac *accessControl) (int64, error) {
		unlock := d.s.locks.fsWrite(rs, true, p)
		defer unlock()
		return 0, ac.SetPermission(d.u, p, acl.GroupName(group), perm)
	})
}

// SetInherit toggles permission inheritance.
func (d *DirectSession) SetInherit(path string, inherit bool) error {
	p, err := d.parse(path)
	if err != nil {
		return err
	}
	return d.observeDirect("api_inherit", 0, func(rs *obs.ReqStats, ac *accessControl) (int64, error) {
		unlock := d.s.locks.fsWrite(rs, false, p)
		defer unlock()
		return 0, ac.SetInherit(d.u, p, inherit)
	})
}

// AddUser adds a user to a group (creating it on first use).
func (d *DirectSession) AddUser(user, group string) error {
	return d.observeDirect("api_groups_add", 0, func(rs *obs.ReqStats, ac *accessControl) (int64, error) {
		if err := d.s.provisionUser(rs, d.u, acl.UserID(user)); err != nil {
			return 0, err
		}
		unlock := d.s.locks.groupWrite(rs)
		defer unlock()
		return 0, ac.AddUser(d.u, acl.UserID(user), acl.GroupName(group))
	})
}

// RemoveUser removes a user from a group.
func (d *DirectSession) RemoveUser(user, group string) error {
	return d.observeDirect("api_groups_remove", 0, func(rs *obs.ReqStats, ac *accessControl) (int64, error) {
		if err := d.s.provisionUser(rs, d.u); err != nil {
			return 0, err
		}
		unlock := d.s.locks.groupWrite(rs)
		defer unlock()
		return 0, ac.RemoveUser(d.u, acl.UserID(user), acl.GroupName(group))
	})
}

// StoredContentBytes reports the content store's total size; the
// storage-overhead experiment reads it.
func (s *Server) StoredContentBytes() (int64, error) {
	return s.cfg.ContentStore.TotalBytes()
}
