package client

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"segshare/internal/ca"
	"segshare/internal/core"
)

// fakeServer implements just enough of the SeGShare wire protocol to
// exercise every client method in-package, with mutual TLS.
type fakeServer struct {
	t     *testing.T
	files map[string][]byte
	calls []string
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.calls = append(f.calls, r.Method+" "+r.URL.Path)
	switch {
	case r.URL.Path == "/api/whoami":
		json.NewEncoder(w).Encode(core.WhoAmI{UserID: "alice", Groups: []string{"user:alice"}})
	case strings.HasPrefix(r.URL.Path, "/api/"):
		body, _ := io.ReadAll(r.Body)
		var decoded map[string]any
		if err := json.Unmarshal(body, &decoded); err != nil {
			http.Error(w, `{"error":"bad json"}`, http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case strings.HasPrefix(r.URL.Path, core.FSPrefix):
		f.serveFS(w, r)
	default:
		http.Error(w, `{"error":"unknown"}`, http.StatusNotFound)
	}
}

func (f *fakeServer) serveFS(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, core.FSPrefix)
	switch r.Method {
	case http.MethodPut:
		body, _ := io.ReadAll(r.Body)
		if _, ok := f.files[path]; ok {
			f.files[path] = body
			w.WriteHeader(http.StatusNoContent)
			return
		}
		f.files[path] = body
		w.WriteHeader(http.StatusCreated)
	case http.MethodGet:
		if strings.HasSuffix(path, "/") {
			json.NewEncoder(w).Encode(core.Listing{Path: path, Entries: []core.ListingEntry{
				{Name: "x", Permission: "rw"},
			}})
			return
		}
		data, ok := f.files[path]
		if !ok {
			http.Error(w, `{"error":"missing"}`, http.StatusNotFound)
			return
		}
		if strings.HasSuffix(path, ".stream") {
			w.(http.Flusher).Flush() // chunked, no Content-Length
		} else {
			w.Header().Set("Content-Length", strconv.Itoa(len(data))) // as the real handler does
		}
		w.Write(data)
	case http.MethodDelete:
		if _, ok := f.files[path]; !ok {
			http.Error(w, `{"error":"missing"}`, http.StatusNotFound)
			return
		}
		delete(f.files, path)
		w.WriteHeader(http.StatusNoContent)
	case "MKCOL":
		w.WriteHeader(http.StatusCreated)
	case "MOVE":
		dst := strings.TrimPrefix(r.Header.Get("Destination"), core.FSPrefix)
		data, ok := f.files[path]
		if !ok {
			http.Error(w, `{"error":"missing"}`, http.StatusNotFound)
			return
		}
		delete(f.files, path)
		f.files[dst] = data
		w.WriteHeader(http.StatusCreated)
	default:
		http.Error(w, `{"error":"method"}`, http.StatusMethodNotAllowed)
	}
}

// startFake brings up the fake server with mTLS under a throwaway CA and
// returns a connected client, its Config adjusted by opts.
func startFake(t *testing.T, opts ...func(*Config)) (*Client, *fakeServer) {
	t.Helper()
	authority, err := ca.New("fake server CA")
	if err != nil {
		t.Fatal(err)
	}
	serverCred, err := authority.IssueServerCertificate([]string{"localhost", "127.0.0.1"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	serverCert, err := serverCred.TLSCertificate()
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeServer{t: t, files: make(map[string][]byte)}
	srv := httptest.NewUnstartedServer(fake)
	srv.TLS = &tls.Config{
		Certificates: []tls.Certificate{serverCert},
		ClientCAs:    authority.CertPool(),
		ClientAuth:   tls.RequireAndVerifyClientCert,
	}
	srv.StartTLS()
	t.Cleanup(srv.Close)

	cred, err := authority.IssueClientCertificate(ca.Identity{UserID: "alice"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Addr:       strings.TrimPrefix(srv.URL, "https://"),
		ServerName: "127.0.0.1",
		CACertPEM:  authority.CertificatePEM(),
		Credential: cred,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	client, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return client, fake
}

func TestClientMethodsAgainstFakeServer(t *testing.T) {
	client, fake := startFake(t)

	if err := client.Mkdir("/d/"); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	if err := client.Upload("/d/f", []byte("one")); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	// Second upload hits the 204 update path.
	if err := client.UploadStream("/d/f", bytes.NewReader([]byte("two")), 3); err != nil {
		t.Fatalf("UploadStream: %v", err)
	}
	got, err := client.Download("/d/f")
	if err != nil || string(got) != "two" {
		t.Fatalf("Download: %q %v", got, err)
	}
	var sink bytes.Buffer
	if err := client.DownloadTo("/d/f", &sink); err != nil || sink.String() != "two" {
		t.Fatalf("DownloadTo: %q %v", sink.String(), err)
	}
	listing, err := client.List("/d/")
	if err != nil || len(listing.Entries) != 1 {
		t.Fatalf("List: %+v %v", listing, err)
	}
	if err := client.Move("/d/f", "/d/g"); err != nil {
		t.Fatalf("Move: %v", err)
	}
	if _, err := client.Download("/d/f"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("download moved-away: %v", err)
	}
	if err := client.Remove("/d/g"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := client.Remove("/d/g"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("double remove: %v", err)
	}

	// Management API round trips.
	if err := client.SetPermission("/d", "team", "rw"); err != nil {
		t.Fatalf("SetPermission: %v", err)
	}
	if err := client.SetInherit("/d", true); err != nil {
		t.Fatalf("SetInherit: %v", err)
	}
	if err := client.SetOwner("/d", "team", true); err != nil {
		t.Fatalf("SetOwner: %v", err)
	}
	if err := client.AddUser("bob", "team"); err != nil {
		t.Fatalf("AddUser: %v", err)
	}
	if err := client.RemoveUser("bob", "team"); err != nil {
		t.Fatalf("RemoveUser: %v", err)
	}
	if err := client.SetGroupOwner("team", "admins", true); err != nil {
		t.Fatalf("SetGroupOwner: %v", err)
	}
	if err := client.DeleteGroup("team"); err != nil {
		t.Fatalf("DeleteGroup: %v", err)
	}
	who, err := client.WhoAmI()
	if err != nil || who.UserID != "alice" {
		t.Fatalf("WhoAmI: %+v %v", who, err)
	}

	if len(fake.calls) == 0 {
		t.Fatal("fake server saw no calls")
	}
}

// TestDownloadSizesBufferFromContentLength verifies that Download reads a
// body of declared length into one exactly sized buffer — about the
// object's size in allocations, where a growing buffer costs two to four
// times that — without losing the keep-alive connection, and still reads
// a body of unknown length.
func TestDownloadSizesBufferFromContentLength(t *testing.T) {
	var dials atomic.Int32
	client, fake := startFake(t, func(cfg *Config) {
		cfg.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return (&net.Dialer{}).DialContext(ctx, network, addr)
		}
	})
	data := bytes.Repeat([]byte("segshare"), 1<<17) // 1 MiB
	fake.files["/big"] = data
	fake.files["/big.stream"] = data
	for _, path := range []string{"/big", "/big.stream"} {
		if got, err := client.Download(path); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Download(%s) = %d bytes, %v", path, len(got), err)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := client.Download("/big"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(len(data))*3/2 {
		t.Fatalf("Download of %d bytes allocated %d bytes", len(data), alloc)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials for three downloads, want 1 (keep-alive lost)", n)
	}
}
