package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"segshare/internal/acl"
	"segshare/internal/audit"
	"segshare/internal/ca"
	"segshare/internal/fspath"
	"segshare/internal/obs"
)

// The request handler (paper Fig. 1) parses each request, allocates it to
// the user identified by the client certificate, and dispatches through
// the request layer (request.go) to the access control component. The
// protocol is WebDAV-flavoured HTTP under /fs/ (GET, PUT, DELETE, MKCOL,
// MOVE, PROPFIND) plus a JSON management API under /api/ for the
// permission and group requests of Algo 1.

// FSPrefix is the URL prefix of the file-system namespace.
const FSPrefix = "/fs"

// PermissionSpec is the wire form of a permission set.
type PermissionSpec string

// ParsePermission maps the wire form to permission bits.
func ParsePermission(s PermissionSpec) (acl.Permission, error) {
	switch s {
	case "r":
		return acl.PermRead, nil
	case "w":
		return acl.PermWrite, nil
	case "rw":
		return acl.PermReadWrite, nil
	case "deny":
		return acl.PermDeny, nil
	case "none":
		return acl.PermNone, nil
	default:
		return 0, fmt.Errorf("%w: permission %q", ErrBadRequest, s)
	}
}

// FormatPermission is the inverse of ParsePermission for responses.
func FormatPermission(p acl.Permission) PermissionSpec {
	switch {
	case p.Has(acl.PermDeny):
		return "deny"
	case p.Has(acl.PermReadWrite):
		return "rw"
	case p.Has(acl.PermWrite):
		return "w"
	case p.Has(acl.PermRead):
		return "r"
	default:
		return "none"
	}
}

// ListingEntry is the JSON form of one directory child.
type ListingEntry struct {
	Name       string         `json:"name"`
	IsDir      bool           `json:"isDir"`
	Permission PermissionSpec `json:"permission"`
}

// Listing is the JSON body of a directory GET/PROPFIND.
type Listing struct {
	Path    string         `json:"path"`
	Entries []ListingEntry `json:"entries"`
}

// WhoAmI is the JSON body of GET /api/whoami.
type WhoAmI struct {
	UserID   string   `json:"userId"`
	Email    string   `json:"email,omitempty"`
	FullName string   `json:"fullName,omitempty"`
	Groups   []string `json:"groups"`
	// OwnedGroups are the groups the user may manage (auth_g).
	OwnedGroups []string `json:"ownedGroups,omitempty"`
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) handler() http.Handler {
	return s.instrument(func(w http.ResponseWriter, r *http.Request, op string, tr *obs.Trace, rs *obs.ReqStats) {
		endAuthn := tr.Span("authn")
		id, err := identityFromRequest(r)
		endAuthn()
		if err != nil {
			s.obs.auditEmitStats(rs, audit.Event{
				Event:     audit.EventAuthnFailure,
				Op:        op,
				RequestID: tr.ID(),
			})
			writeErr(w, http.StatusUnauthorized, err)
			return
		}
		s.obs.auditEmitStats(rs, audit.Event{
			Event:     audit.EventAuthnSuccess,
			Op:        op,
			RequestID: tr.ID(),
			User:      id.UserID,
		})
		rq := s.newRequest(acl.UserID(id.UserID), op, tr, rs, r.Context())
		defer tr.Span("dispatch")()
		switch {
		case r.URL.Path == FSPrefix || strings.HasPrefix(r.URL.Path, FSPrefix+"/"):
			s.serveFS(w, r, rq)
		case strings.HasPrefix(r.URL.Path, "/api/"):
			serveAPI(w, r, rq, id)
		default:
			writeErr(w, http.StatusNotFound, fmt.Errorf("%w: unknown path %s", ErrBadRequest, r.URL.Path))
		}
	})
}

// opClass buckets a request into its operation class — the only request
// attribute that may label exported telemetry. The class set is closed
// and compile-time constant; logical paths, user IDs, and group names
// never leave the enclave (leak budget, package obs).
func opClass(r *http.Request) string {
	switch {
	case r.URL.Path == FSPrefix || strings.HasPrefix(r.URL.Path, FSPrefix+"/"):
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			return "fs_get"
		case http.MethodPut:
			return "fs_put"
		case http.MethodDelete:
			return "fs_delete"
		case "MKCOL":
			return "fs_mkcol"
		case "MOVE":
			return "fs_move"
		case "PROPFIND":
			return "fs_propfind"
		case http.MethodOptions:
			return "fs_options"
		default:
			return "fs_other"
		}
	case strings.HasPrefix(r.URL.Path, "/api/"):
		switch strings.TrimPrefix(r.URL.Path, "/api/") {
		case "whoami":
			return "api_whoami"
		case "permission":
			return "api_permission"
		case "inherit":
			return "api_inherit"
		case "owner":
			return "api_owner"
		case "groups/add":
			return "api_groups_add"
		case "groups/remove":
			return "api_groups_remove"
		case "groups/owner":
			return "api_groups_owner"
		case "groups/delete":
			return "api_groups_delete"
		default:
			return "api_other"
		}
	default:
		return "other"
	}
}

// connCtxKey carries the server-side net.Conn through the request
// context (installed by http.Server.ConnContext in Serve).
type connCtxKey struct{}

// bridgeCallCounts unwraps the request's connection down to the
// enclave-TLS bridge conn and reads its cumulative ecall/ocall
// counters. Requests not served over the trusted endpoint (tests using
// httptest, DirectSession) return zeros.
func bridgeCallCounts(r *http.Request) (ecalls, ocalls int64) {
	conn, _ := r.Context().Value(connCtxKey{}).(interface{ NetConn() net.Conn })
	if conn == nil {
		return 0, 0
	}
	bc, _ := conn.NetConn().(interface{ BridgeCallCounts() (int64, int64) })
	if bc == nil {
		return 0, 0
	}
	return bc.BridgeCallCounts()
}

// statusRecorder captures the response status and body size.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// countingBody counts request body bytes actually consumed.
type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

// instrument wraps the request handler with the per-request telemetry:
// one trace, one ReqStats collector, one latency observation, and one
// wide event per request, labeled by operation class only, plus a
// structured log line (request id, op class, status, duration — byte
// counts are already visible to the host via TLS record sizes, so
// logging them leaks nothing new). next receives the op class, trace and
// stats collector as arguments.
func (s *Server) instrument(next func(w http.ResponseWriter, r *http.Request, op string, tr *obs.Trace, rs *obs.ReqStats)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := opClass(r)
		rs := &obs.ReqStats{}
		tr := s.obs.beginRequest(op, rs)
		// The trace id doubles as the request id in log lines and audit
		// records, so all three can be joined after the fact.
		id := tr.ID()

		ecall0, ocall0 := bridgeCallCounts(r)

		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		rw := &statusRecorder{ResponseWriter: w}

		start := time.Now()
		// Admission (DESIGN §16): drain rejects everything new; the
		// adaptive limiter admits, queues, or sheds by op class. A shed
		// request still flows through the full telemetry tail below, so
		// 503s are visible in every metric, trace, and log line.
		release, admitErr := s.admit(r.Context(), op)
		if admitErr != nil {
			writeMappedErr(rw, admitErr)
		} else {
			if s.maxBody > 0 {
				r.Body = http.MaxBytesReader(rw, r.Body, s.maxBody)
			}
			next(rw, r, op, tr, rs)
			release(time.Since(start))
		}
		dur := time.Since(start)

		if rw.status == 0 {
			rw.status = http.StatusOK
		}
		// Attribute the connection's ecall/ocall delta to this request.
		// HTTP keep-alive serializes requests per connection, so the delta
		// belongs to this request alone.
		if ecall1, ocall1 := bridgeCallCounts(r); ecall1 > ecall0 || ocall1 > ocall0 {
			rs.AddBridgeCalls(ecall1-ecall0, ocall1-ocall0)
		}
		sampled := s.obs.finishRequest(op, rw.status, dur, body.n, rw.bytes, tr, rs)
		s.obs.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.Uint64("id", id),
			slog.String("op", op),
			slog.Int("status", rw.status),
			slog.Duration("duration", dur),
			slog.Int64("bytesIn", body.n),
			slog.Int64("bytesOut", rw.bytes),
			slog.Bool("sampled", sampled))
	})
}

func identityFromRequest(r *http.Request) (ca.Identity, error) {
	if r.TLS == nil || len(r.TLS.PeerCertificates) == 0 {
		return ca.Identity{}, errors.New("segshare: no client certificate")
	}
	return ca.IdentityFromCertificate(r.TLS.PeerCertificates[0])
}

// fsPath extracts and validates the file-system path from the URL.
func fsPath(r *http.Request) (fspath.Path, error) {
	raw := strings.TrimPrefix(r.URL.Path, FSPrefix)
	if raw == "" {
		raw = "/"
	}
	return parseAPIPath(raw)
}

func (s *Server) serveFS(w http.ResponseWriter, r *http.Request, rq request) {
	path, err := fsPath(r)
	if err != nil {
		writeMappedErr(w, err)
		return
	}
	switch r.Method {
	case "PROPFIND":
		servePropfind(w, r, rq, path)

	case http.MethodOptions:
		serveOptions(w)

	case http.MethodGet, http.MethodHead:
		if path.IsDir() {
			entries, err := rq.listDir(path)
			if err != nil {
				writeMappedErr(w, err)
				return
			}
			listing := Listing{Path: path.String(), Entries: make([]ListingEntry, 0, len(entries))}
			for _, e := range entries {
				listing.Entries = append(listing.Entries, ListingEntry{
					Name:       e.Name,
					IsDir:      e.IsDir,
					Permission: FormatPermission(e.Permission),
				})
			}
			writeJSON(w, http.StatusOK, listing)
			return
		}
		// A valid single-range GET is served as 206 through the random-
		// access read path; malformed or multi-range specs fall through to
		// the full representation (RFC 9110 permits ignoring Range), as
		// does HEAD. If-Range also forces the full representation: this
		// server emits no validators (no ETag/Last-Modified), so no
		// If-Range validator can match, and RFC 9110 §13.1.5 says a
		// non-matching If-Range means "ignore Range" — a 206 here could
		// splice ranges of two different file versions at the client.
		if br, ok := parseRangeHeader(r.Header.Get("Range")); ok &&
			r.Method == http.MethodGet && r.Header.Get("If-Range") == "" {
			res, err := rq.getFileRange(path, br)
			if errors.Is(err, ErrRangeNotSatisfiable) {
				w.Header().Set("Accept-Ranges", "bytes")
				w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", res.Total))
				writeErr(w, http.StatusRequestedRangeNotSatisfiable, err)
				return
			}
			if err != nil {
				writeMappedErr(w, err)
				return
			}
			w.Header().Set("Accept-Ranges", "bytes")
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Range",
				fmt.Sprintf("bytes %d-%d/%d", res.Off, res.Off+int64(len(res.Data))-1, res.Total))
			w.Header().Set("Content-Length", strconv.Itoa(len(res.Data)))
			w.WriteHeader(http.StatusPartialContent)
			_, _ = w.Write(res.Data)
			return
		}
		content, err := rq.getFile(path)
		if err != nil {
			writeMappedErr(w, err)
			return
		}
		w.Header().Set("Accept-Ranges", "bytes")
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(content)))
		w.WriteHeader(http.StatusOK)
		if r.Method != http.MethodHead {
			_, _ = w.Write(content)
		}

	case http.MethodPut:
		body, err := s.readBody(r)
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				// The limit is configuration, not request data, so naming
				// it leaks nothing.
				writeMappedErr(w, fmt.Errorf("%w: body exceeds %d bytes", ErrTooLarge, mbe.Limit))
				return
			}
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		created, err := rq.putFile(path, body)
		if err != nil {
			writeMappedErr(w, err)
			return
		}
		if created {
			w.WriteHeader(http.StatusCreated)
		} else {
			w.WriteHeader(http.StatusNoContent)
		}

	case "MKCOL":
		if err := rq.mkdir(path); err != nil {
			writeMappedErr(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)

	case http.MethodDelete:
		if err := rq.remove(path); err != nil {
			writeMappedErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)

	case "MOVE":
		destRaw := r.Header.Get("Destination")
		if !strings.HasPrefix(destRaw, FSPrefix) {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("%w: Destination must start with %s", ErrBadRequest, FSPrefix))
			return
		}
		dst, err := fspath.Parse(strings.TrimPrefix(destRaw, FSPrefix))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := rq.move(path, dst); err != nil {
			writeMappedErr(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)

	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("%w: method %s", ErrBadRequest, r.Method))
	}
}

// API request bodies.
type (
	permissionReq struct {
		Path       string         `json:"path"`
		Group      string         `json:"group"`
		Permission PermissionSpec `json:"permission"`
	}
	inheritReq struct {
		Path    string `json:"path"`
		Inherit bool   `json:"inherit"`
	}
	ownerReq struct {
		Path  string `json:"path"`
		Group string `json:"group"`
		Owner bool   `json:"owner"`
	}
	membershipReq struct {
		User  string `json:"user"`
		Group string `json:"group"`
	}
	groupOwnerReq struct {
		Group      string `json:"group"`
		OwnerGroup string `json:"ownerGroup"`
		Owner      bool   `json:"owner"`
	}
	groupDeleteReq struct {
		Group string `json:"group"`
	}
)

func serveAPI(w http.ResponseWriter, r *http.Request, rq request, id ca.Identity) {
	route := strings.TrimPrefix(r.URL.Path, "/api/")
	if r.Method == http.MethodGet {
		if route != "whoami" {
			writeErr(w, http.StatusNotFound, fmt.Errorf("%w: unknown API %q", ErrBadRequest, route))
			return
		}
		groups, owned, err := rq.whoami()
		if err != nil {
			writeMappedErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, WhoAmI{
			UserID:      id.UserID,
			Email:       id.Email,
			FullName:    id.FullName,
			Groups:      groupNames(groups),
			OwnedGroups: groupNames(owned),
		})
		return
	}
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("%w: method %s", ErrBadRequest, r.Method))
		return
	}

	var err error
	switch route {
	case "permission":
		var req permissionReq
		if err = decodeJSON(r, &req); err != nil {
			break
		}
		var p acl.Permission
		if p, err = ParsePermission(req.Permission); err != nil {
			break
		}
		var path fspath.Path
		if path, err = parseAPIPath(req.Path); err != nil {
			break
		}
		err = rq.setPermission(path, acl.GroupName(req.Group), p)

	case "inherit":
		var req inheritReq
		if err = decodeJSON(r, &req); err != nil {
			break
		}
		var path fspath.Path
		if path, err = parseAPIPath(req.Path); err != nil {
			break
		}
		err = rq.setInherit(path, req.Inherit)

	case "owner":
		var req ownerReq
		if err = decodeJSON(r, &req); err != nil {
			break
		}
		var path fspath.Path
		if path, err = parseAPIPath(req.Path); err != nil {
			break
		}
		err = rq.setFileOwner(path, acl.GroupName(req.Group), req.Owner)

	case "groups/add":
		var req membershipReq
		if err = decodeJSON(r, &req); err == nil {
			err = rq.addUser(acl.UserID(req.User), acl.GroupName(req.Group))
		}

	case "groups/remove":
		var req membershipReq
		if err = decodeJSON(r, &req); err == nil {
			err = rq.removeUser(acl.UserID(req.User), acl.GroupName(req.Group))
		}

	case "groups/owner":
		var req groupOwnerReq
		if err = decodeJSON(r, &req); err == nil {
			err = rq.setGroupOwner(acl.GroupName(req.Group), acl.GroupName(req.OwnerGroup), req.Owner)
		}

	case "groups/delete":
		var req groupDeleteReq
		if err = decodeJSON(r, &req); err == nil {
			err = rq.deleteGroup(acl.GroupName(req.Group))
		}

	default:
		err = fmt.Errorf("%w: unknown API %q", ErrBadRequest, route)
	}
	if err != nil {
		writeMappedErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// parseRangeHeader parses a single-range "bytes=a-b" / "bytes=a-" /
// "bytes=-n" header. Multi-range and malformed specs return ok=false so
// the caller serves the full representation instead.
func parseRangeHeader(h string) (ByteRange, bool) {
	const pfx = "bytes="
	if !strings.HasPrefix(h, pfx) {
		return ByteRange{}, false
	}
	spec := strings.TrimSpace(strings.TrimPrefix(h, pfx))
	if spec == "" || strings.Contains(spec, ",") {
		return ByteRange{}, false
	}
	dash := strings.Index(spec, "-")
	if dash < 0 {
		return ByteRange{}, false
	}
	first, last := strings.TrimSpace(spec[:dash]), strings.TrimSpace(spec[dash+1:])
	if first == "" {
		n, err := strconv.ParseInt(last, 10, 64)
		if err != nil || n <= 0 {
			return ByteRange{}, false
		}
		return ByteRange{Start: -1, End: -1, SuffixLen: n}, true
	}
	start, err := strconv.ParseInt(first, 10, 64)
	if err != nil || start < 0 {
		return ByteRange{}, false
	}
	if last == "" {
		return ByteRange{Start: start, End: -1}, true
	}
	end, err := strconv.ParseInt(last, 10, 64)
	if err != nil || end < start {
		return ByteRange{}, false
	}
	return ByteRange{Start: start, End: end}, true
}

func parseAPIPath(raw string) (fspath.Path, error) {
	p, err := fspath.Parse(raw)
	if err != nil {
		return fspath.Path{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return p, nil
}

// readBody reads a PUT body into a raw content body (bodyRaw ‖ bytes), so
// no later copy prepends the tag. A declared Content-Length within the
// cap sizes it exactly; chunked bodies, over-cap declarations and a
// disabled cap grow it as io.ReadAll would, and MaxBytesReader trips.
func (s *Server) readBody(r *http.Request) ([]byte, error) {
	if r.ContentLength < 0 || r.ContentLength > s.maxBody {
		buf := bytes.NewBuffer(append(make([]byte, 0, bytes.MinRead), bodyRaw))
		_, err := buf.ReadFrom(r.Body)
		return buf.Bytes(), err
	}
	body := make([]byte, 1+r.ContentLength)
	body[0] = bodyRaw
	_, err := io.ReadFull(r.Body, body[1:])
	return body, err
}

func decodeJSON(r *http.Request, into any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("%w: body exceeds %d bytes", ErrTooLarge, mbe.Limit)
		}
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// StatusClientClosedRequest is the non-standard status (nginx's 499)
// recorded when a request ends because its client disconnected first.
// Nothing meaningful reaches the client — it is gone — but the status
// keeps cancellations distinguishable in metrics, traces, and logs.
const StatusClientClosedRequest = 499

// retryAfterSeconds is the constant Retry-After hint on every 503. All
// three 503 causes (shed, degraded read-only mode, saturated worker
// pool) clear on the order of a breaker cooldown or an AIMD interval —
// a couple of seconds — so one honest constant beats a leaky oracle.
const retryAfterSeconds = "2"

// writeMappedErr answers a request with the status statusForErr maps its
// error to; every 503 carries the Retry-After hint.
func writeMappedErr(w http.ResponseWriter, err error) {
	status := statusForErr(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeErr(w, status, err)
}

func groupNames(groups []acl.GroupName) []string {
	names := make([]string, len(groups))
	for i, g := range groups {
		names[i] = string(g)
	}
	return names
}
