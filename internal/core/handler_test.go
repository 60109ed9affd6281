package core

import (
	"bytes"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"encoding/pem"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/store"
)

// handlerFixture builds a Server (without network plumbing) plus a way to
// invoke its handler as an authenticated user.
type handlerFixture struct {
	server    *Server
	authority *ca.Authority
	certs     map[string]*x509.Certificate
}

func newHandlerFixture(t *testing.T) *handlerFixture {
	t.Helper()
	authority, err := ca.New("handler test CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(platform, Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: store.NewMemory(),
		GroupStore:   store.NewMemory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return &handlerFixture{server: server, authority: authority, certs: make(map[string]*x509.Certificate)}
}

func (f *handlerFixture) cert(t *testing.T, user string) *x509.Certificate {
	t.Helper()
	if c, ok := f.certs[user]; ok {
		return c
	}
	cred, err := f.authority.IssueClientCertificate(ca.Identity{UserID: user}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	block, _ := pem.Decode(cred.CertPEM)
	cert, err := x509.ParseCertificate(block.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	f.certs[user] = cert
	return cert
}

// do performs a request as the given user (empty user = no client cert).
func (f *handlerFixture) do(t *testing.T, user, method, target string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return f.serve(t, user, req)
}

// serve runs a prepared request through the handler as the given user.
func (f *handlerFixture) serve(t *testing.T, user string, req *http.Request) *httptest.ResponseRecorder {
	t.Helper()
	if user != "" {
		req.TLS = &tls.ConnectionState{PeerCertificates: []*x509.Certificate{f.cert(t, user)}}
	} else {
		req.TLS = &tls.ConnectionState{}
	}
	rec := httptest.NewRecorder()
	f.server.handler().ServeHTTP(rec, req)
	return rec
}

func TestHandlerStatusCodes(t *testing.T) {
	f := newHandlerFixture(t)

	// Build state: alice creates a dir and a file.
	if rec := f.do(t, "alice", "MKCOL", "/fs/docs/", nil, nil); rec.Code != http.StatusCreated {
		t.Fatalf("MKCOL = %d: %s", rec.Code, rec.Body)
	}
	if rec := f.do(t, "alice", http.MethodPut, "/fs/docs/a.txt", []byte("v1"), nil); rec.Code != http.StatusCreated {
		t.Fatalf("PUT create = %d: %s", rec.Code, rec.Body)
	}

	tests := []struct {
		name   string
		user   string
		method string
		target string
		body   []byte
		hdr    map[string]string
		want   int
	}{
		{name: "update is 204", user: "alice", method: "PUT", target: "/fs/docs/a.txt", body: []byte("v2"), want: 204},
		{name: "get is 200", user: "alice", method: "GET", target: "/fs/docs/a.txt", want: 200},
		{name: "list is 200", user: "alice", method: "GET", target: "/fs/docs/", want: 200},
		{name: "propfind multistatus", user: "alice", method: "PROPFIND", target: "/fs/docs/", want: 207},
		{name: "options", user: "alice", method: "OPTIONS", target: "/fs/docs/", want: 200},
		{name: "head", user: "alice", method: "HEAD", target: "/fs/docs/a.txt", want: 200},
		{name: "missing file 404", user: "alice", method: "GET", target: "/fs/docs/nope", want: 404},
		{name: "foreign read 403", user: "eve", method: "GET", target: "/fs/docs/a.txt", want: 403},
		{name: "foreign list 403", user: "eve", method: "GET", target: "/fs/docs/", want: 403},
		{name: "duplicate mkcol 409", user: "alice", method: "MKCOL", target: "/fs/docs/", want: 409},
		{name: "remove non-empty dir 409", user: "alice", method: "DELETE", target: "/fs/docs/", want: 409},
		{name: "bad path 400", user: "alice", method: "GET", target: "/fs/docs/../a.txt", want: 400},
		{name: "bad method 405", user: "alice", method: "PATCH", target: "/fs/docs/a.txt", want: 405},
		{name: "no certificate 401", user: "", method: "GET", target: "/fs/docs/a.txt", want: 401},
		{name: "unknown prefix 404", user: "alice", method: "GET", target: "/other", want: 404},
		{name: "unknown api post 400", user: "alice", method: "POST", target: "/api/nope", body: []byte("{}"), want: 400},
		{name: "api get only whoami", user: "alice", method: "GET", target: "/api/permission", want: 404},
		{name: "api bad json 400", user: "alice", method: "POST", target: "/api/permission", body: []byte("{"), want: 400},
		{name: "api unknown field 400", user: "alice", method: "POST", target: "/api/permission", body: []byte(`{"bogus":1}`), want: 400},
		{
			name: "move without destination 400",
			user: "alice", method: "MOVE", target: "/fs/docs/a.txt", want: 400,
		},
		{
			name: "move with bad destination 400",
			user: "alice", method: "MOVE", target: "/fs/docs/a.txt",
			hdr:  map[string]string{"Destination": "/fs/bad//path"},
			want: 400,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rec := f.do(t, tt.user, tt.method, tt.target, tt.body, tt.hdr)
			if rec.Code != tt.want {
				t.Fatalf("status = %d, want %d (body: %s)", rec.Code, tt.want, rec.Body)
			}
		})
	}
}

func TestHandlerListingBody(t *testing.T) {
	f := newHandlerFixture(t)
	if rec := f.do(t, "alice", "MKCOL", "/fs/d/", nil, nil); rec.Code != 201 {
		t.Fatal(rec.Body)
	}
	if rec := f.do(t, "alice", "PUT", "/fs/d/file", []byte("x"), nil); rec.Code != 201 {
		t.Fatal(rec.Body)
	}
	if rec := f.do(t, "alice", "MKCOL", "/fs/d/sub/", nil, nil); rec.Code != 201 {
		t.Fatal(rec.Body)
	}
	rec := f.do(t, "alice", "GET", "/fs/d/", nil, nil)
	if rec.Code != 200 {
		t.Fatalf("GET dir = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var listing Listing
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatalf("decode listing: %v", err)
	}
	if listing.Path != "/d/" || len(listing.Entries) != 2 {
		t.Fatalf("listing = %+v", listing)
	}
	for _, e := range listing.Entries {
		if e.Permission != "rw" {
			t.Fatalf("owner permission = %s", e.Permission)
		}
	}
}

func TestHandlerMove(t *testing.T) {
	f := newHandlerFixture(t)
	if rec := f.do(t, "alice", "PUT", "/fs/a.txt", []byte("content"), nil); rec.Code != 201 {
		t.Fatal(rec.Body)
	}
	rec := f.do(t, "alice", "MOVE", "/fs/a.txt", nil, map[string]string{"Destination": "/fs/b.txt"})
	if rec.Code != 201 {
		t.Fatalf("MOVE = %d: %s", rec.Code, rec.Body)
	}
	if rec := f.do(t, "alice", "GET", "/fs/a.txt", nil, nil); rec.Code != 404 {
		t.Fatalf("old path = %d", rec.Code)
	}
	rec = f.do(t, "alice", "GET", "/fs/b.txt", nil, nil)
	if rec.Code != 200 || rec.Body.String() != "content" {
		t.Fatalf("new path = %d %q", rec.Code, rec.Body)
	}
}

func TestHandlerAPIFlow(t *testing.T) {
	f := newHandlerFixture(t)
	if rec := f.do(t, "alice", "PUT", "/fs/f", []byte("x"), nil); rec.Code != 201 {
		t.Fatal(rec.Body)
	}

	post := func(user, route, body string) *httptest.ResponseRecorder {
		return f.do(t, user, "POST", "/api/"+route, []byte(body), map[string]string{"Content-Type": "application/json"})
	}
	if rec := post("alice", "groups/add", `{"user":"bob","group":"team"}`); rec.Code != 204 {
		t.Fatalf("groups/add = %d: %s", rec.Code, rec.Body)
	}
	if rec := post("alice", "permission", `{"path":"/f","group":"team","permission":"r"}`); rec.Code != 204 {
		t.Fatalf("permission = %d: %s", rec.Code, rec.Body)
	}
	if rec := f.do(t, "bob", "GET", "/fs/f", nil, nil); rec.Code != 200 {
		t.Fatalf("bob GET = %d", rec.Code)
	}
	if rec := post("alice", "permission", `{"path":"/f","group":"team","permission":"bogus"}`); rec.Code != 400 {
		t.Fatalf("bad permission = %d", rec.Code)
	}
	if rec := post("alice", "permission", `{"path":"relative","group":"team","permission":"r"}`); rec.Code != 400 {
		t.Fatalf("bad path = %d", rec.Code)
	}
	if rec := post("bob", "groups/add", `{"user":"eve","group":"team"}`); rec.Code != 403 {
		t.Fatalf("non-owner groups/add = %d", rec.Code)
	}
	if rec := post("alice", "groups/remove", `{"user":"bob","group":"missing"}`); rec.Code != 404 {
		t.Fatalf("unknown group = %d: %s", rec.Code, rec.Body)
	}
	if rec := post("alice", "inherit", `{"path":"/f","inherit":true}`); rec.Code != 204 {
		t.Fatalf("inherit = %d: %s", rec.Code, rec.Body)
	}
	if rec := post("alice", "owner", `{"path":"/f","group":"user:bob","owner":true}`); rec.Code != 204 {
		t.Fatalf("owner = %d: %s", rec.Code, rec.Body)
	}
	if rec := post("alice", "groups/owner", `{"group":"team","ownerGroup":"user:bob","owner":true}`); rec.Code != 204 {
		t.Fatalf("groups/owner = %d: %s", rec.Code, rec.Body)
	}
	if rec := post("alice", "groups/delete", `{"group":"team"}`); rec.Code != 204 {
		t.Fatalf("groups/delete = %d: %s", rec.Code, rec.Body)
	}

	rec := f.do(t, "alice", "GET", "/api/whoami", nil, nil)
	if rec.Code != 200 {
		t.Fatalf("whoami = %d", rec.Code)
	}
	var who WhoAmI
	if err := json.Unmarshal(rec.Body.Bytes(), &who); err != nil {
		t.Fatal(err)
	}
	if who.UserID != "alice" {
		t.Fatalf("whoami = %+v", who)
	}
}

func TestParseFormatPermission(t *testing.T) {
	for _, spec := range []PermissionSpec{"r", "w", "rw", "deny", "none"} {
		p, err := ParsePermission(spec)
		if err != nil {
			t.Fatalf("ParsePermission(%s): %v", spec, err)
		}
		if got := FormatPermission(p); got != spec {
			t.Fatalf("round trip %s -> %s", spec, got)
		}
	}
	if _, err := ParsePermission("x"); err == nil {
		t.Fatal("bogus permission accepted")
	}
}

// GET and HEAD must announce the plaintext length up front — clients
// size progress bars from it, and HEAD must carry it without a body.
func TestContentLengthFromPlaintext(t *testing.T) {
	f := newHandlerFixture(t)
	content := []byte("exactly twenty-three by")
	if rec := f.do(t, "alice", http.MethodPut, "/fs/a.txt", content, nil); rec.Code != 201 {
		t.Fatalf("PUT = %d: %s", rec.Code, rec.Body)
	}
	rec := f.do(t, "alice", http.MethodGet, "/fs/a.txt", nil, nil)
	if rec.Code != 200 {
		t.Fatalf("GET = %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(len(content)) {
		t.Fatalf("GET Content-Length = %q, want %d", got, len(content))
	}
	if rec.Body.Len() != len(content) {
		t.Fatalf("GET body %d bytes, want %d", rec.Body.Len(), len(content))
	}
	rec = f.do(t, "alice", http.MethodHead, "/fs/a.txt", nil, nil)
	if rec.Code != 200 {
		t.Fatalf("HEAD = %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(len(content)) {
		t.Fatalf("HEAD Content-Length = %q, want %d", got, len(content))
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("HEAD returned %d body bytes", rec.Body.Len())
	}
}

// TestPutBodyRead covers how a PUT body is read: into a raw content body
// (the bodyRaw tag, then the bytes), which for a declared length within
// the cap is a buffer of exactly that size plus the tag; a body shorter than
// declared is a 400 that stores nothing; a declared or chunked body over
// the cap is a 413; a chunked body within the cap is stored whole.
func TestPutBodyRead(t *testing.T) {
	f, _ := newOverloadFixture(t, func(cfg *Config) { cfg.MaxBodyBytes = 64 })
	put := func(target string, body []byte, declared int64) *httptest.ResponseRecorder {
		// io.NopCloser hides the reader's length, so httptest leaves
		// ContentLength at -1 (a chunked upload) unless declared here.
		req := httptest.NewRequest("PUT", target, io.NopCloser(bytes.NewReader(body)))
		req.ContentLength = declared
		return f.serve(t, "alice", req)
	}
	small, big := bytes.Repeat([]byte("s"), 32), bytes.Repeat([]byte("b"), 128)

	for _, tc := range []struct {
		name     string
		body     []byte
		declared int64
		want     int
	}{
		{"declared", small, 32, 201},
		{"chunked", small, -1, 201},
		{"empty", nil, 0, 201},
		{"short", small[:10], 32, 400},
		{"declared-over-cap", big, 128, 413},
		{"chunked-over-cap", big, -1, 413},
	} {
		target := "/fs/" + tc.name
		if rec := put(target, tc.body, tc.declared); rec.Code != tc.want {
			t.Fatalf("%s: PUT = %d, want %d: %s", tc.name, rec.Code, tc.want, rec.Body)
		}
		rec := f.do(t, "alice", "GET", target, nil, nil)
		if tc.want != 201 {
			if rec.Code != 404 {
				t.Fatalf("%s: GET after rejected PUT = %d, want 404", tc.name, rec.Code)
			}
			continue
		}
		if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), tc.body) {
			t.Fatalf("%s: GET = %d with %d bytes, want the %d stored", tc.name, rec.Code, rec.Body.Len(), len(tc.body))
		}
	}

	want := encodeRawBody(small)
	req := httptest.NewRequest("PUT", "/fs/x", bytes.NewReader(small))
	body, err := f.server.readBody(req)
	if err != nil || !bytes.Equal(body, want) || cap(body) != len(want) {
		t.Fatalf("readBody = %d bytes (cap %d), err %v; want exactly %d", len(body), cap(body), err, len(want))
	}
	req = httptest.NewRequest("PUT", "/fs/x", io.NopCloser(bytes.NewReader(small)))
	req.ContentLength = -1
	if body, err := f.server.readBody(req); err != nil || !bytes.Equal(body, want) {
		t.Fatalf("chunked readBody = %q, err %v; want %q", body, err, want)
	}
}
