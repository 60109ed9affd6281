package core

import (
	"bytes"
	"crypto/x509"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/store"
)

func TestParseRangeHeader(t *testing.T) {
	tests := []struct {
		in   string
		want ByteRange
		ok   bool
	}{
		{"bytes=0-99", ByteRange{Start: 0, End: 99}, true},
		{"bytes=100-", ByteRange{Start: 100, End: -1}, true},
		{"bytes=-50", ByteRange{Start: -1, End: -1, SuffixLen: 50}, true},
		{"bytes= 5-9", ByteRange{Start: 5, End: 9}, true},
		{"bytes=7-7", ByteRange{Start: 7, End: 7}, true},
		{"", ByteRange{}, false},
		{"bytes=", ByteRange{}, false},
		{"bytes=abc-def", ByteRange{}, false},
		{"bytes=9-5", ByteRange{}, false},     // end before start
		{"bytes=-0", ByteRange{}, false},      // zero-length suffix
		{"bytes=0-0,5-9", ByteRange{}, false}, // multi-range: serve full
		{"bytes=5", ByteRange{}, false},       // no dash
		{"chunks=0-5", ByteRange{}, false},    // wrong unit
		{"bytes=-5-9", ByteRange{}, false},    // negative start
	}
	for _, tc := range tests {
		got, ok := parseRangeHeader(tc.in)
		if ok != tc.ok || got != tc.want {
			t.Errorf("parseRangeHeader(%q) = (%+v, %t), want (%+v, %t)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestByteRangeResolve(t *testing.T) {
	tests := []struct {
		name    string
		br      ByteRange
		total   int64
		off     int64
		length  int64
		wantErr bool
	}{
		{"interior", ByteRange{Start: 10, End: 19}, 100, 10, 10, false},
		{"open ended", ByteRange{Start: 90, End: -1}, 100, 90, 10, false},
		{"end clamped", ByteRange{Start: 50, End: 9999}, 100, 50, 50, false},
		{"suffix", ByteRange{Start: -1, End: -1, SuffixLen: 25}, 100, 75, 25, false},
		{"suffix clamped", ByteRange{Start: -1, End: -1, SuffixLen: 500}, 100, 0, 100, false},
		{"single byte", ByteRange{Start: 99, End: 99}, 100, 99, 1, false},
		{"start at EOF", ByteRange{Start: 100, End: -1}, 100, 0, 0, true},
		{"start past EOF", ByteRange{Start: 500, End: 600}, 100, 0, 0, true},
		{"suffix of empty file", ByteRange{Start: -1, End: -1, SuffixLen: 10}, 0, 0, 0, true},
	}
	for _, tc := range tests {
		off, length, err := tc.br.resolve(tc.total)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: resolve err = %v, wantErr %t", tc.name, err, tc.wantErr)
			continue
		}
		if err == nil && (off != tc.off || length != tc.length) {
			t.Errorf("%s: resolve = (%d, %d), want (%d, %d)", tc.name, off, length, tc.off, tc.length)
		}
	}
}

// FuzzParseRangeHeader feeds arbitrary Range header values through the
// parser and the resolver: neither may panic, a rejected header yields
// the zero ByteRange, and an accepted one resolves against any file size
// either to ErrRangeNotSatisfiable or to a non-empty window inside the
// file (0 <= off, off+length <= total, no overflow).
func FuzzParseRangeHeader(f *testing.F) {
	f.Add("bytes=0-99", int64(100))
	f.Add("bytes=100-", int64(100))
	f.Add("bytes=-50", int64(7))
	f.Add("bytes= 5 - 9 ", int64(0))
	f.Add("bytes=0-9223372036854775807", int64(1))
	f.Add("bytes=-9223372036854775807", int64(9223372036854775807))
	f.Add("bytes=9223372036854775807-", int64(9223372036854775807))
	f.Add("bytes=0-0,5-9", int64(10))
	f.Add("bytes=--1", int64(10))
	f.Fuzz(func(t *testing.T, header string, total int64) {
		br, ok := parseRangeHeader(header)
		if !ok {
			if br != (ByteRange{}) {
				t.Fatalf("parseRangeHeader(%q) rejected but returned %+v", header, br)
			}
			return
		}
		if total < 0 {
			total = -(total + 1)
		}
		off, length, err := br.resolve(total)
		if err != nil {
			if !errors.Is(err, ErrRangeNotSatisfiable) {
				t.Fatalf("%+v.resolve(%d): err = %v, want ErrRangeNotSatisfiable", br, total, err)
			}
			return
		}
		if off < 0 || length < 1 || off+length < off || off+length > total {
			t.Fatalf("%+v.resolve(%d) = (off %d, length %d), outside the file", br, total, off, length)
		}
	})
}

// newHandlerFixtureWith builds a handler fixture with the given feature
// set (dedup gets its own backend). The plain configuration exercises the
// random-access fast path; dedup and rollback configurations exercise the
// full-read fallback, which must answer identically.
func newHandlerFixtureWith(t *testing.T, features Features) *handlerFixture {
	t.Helper()
	authority, err := ca.New("range test CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: store.NewMemory(),
		GroupStore:   store.NewMemory(),
		Features:     features,
	}
	if features.Dedup {
		cfg.DedupStore = store.NewMemory()
	}
	server, err := NewServer(platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return &handlerFixture{server: server, authority: authority, certs: make(map[string]*x509.Certificate)}
}

// TestRangeGET drives the Range request surface through the handler for
// every body representation: the raw fast path, the dedup indirection
// fallback, and the rollback-header fallback. The responses must be
// byte-identical across all three.
func TestRangeGET(t *testing.T) {
	const size = 10000 // spans three 4 KiB chunks, so interior ranges cross chunk seams
	content := make([]byte, size)
	for i := range content {
		content[i] = byte(i % 251)
	}

	configs := []struct {
		name     string
		features Features
	}{
		{"raw fast path", Features{}},
		{"dedup fallback", Features{Dedup: true}},
		{"rollback fallback", Features{RollbackProtection: true, Guard: GuardCounter}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			f := newHandlerFixtureWith(t, cfg.features)
			if rec := f.do(t, "alice", "MKCOL", "/fs/docs/", nil, nil); rec.Code != http.StatusCreated {
				t.Fatalf("MKCOL = %d: %s", rec.Code, rec.Body)
			}
			if rec := f.do(t, "alice", http.MethodPut, "/fs/docs/a.bin", content, nil); rec.Code != http.StatusCreated {
				t.Fatalf("PUT = %d: %s", rec.Code, rec.Body)
			}

			ranges := []struct {
				name     string
				header   string
				wantBody []byte
				wantCR   string
			}{
				{"first 100", "bytes=0-99", content[:100], "bytes 0-99/10000"},
				{"cross chunk seam", "bytes=4000-4200", content[4000:4201], "bytes 4000-4200/10000"},
				{"open ended", "bytes=9900-", content[9900:], "bytes 9900-9999/10000"},
				{"suffix", "bytes=-100", content[9900:], "bytes 9900-9999/10000"},
				{"end clamped", "bytes=5000-99999", content[5000:], "bytes 5000-9999/10000"},
				{"single byte", "bytes=4096-4096", content[4096:4097], "bytes 4096-4096/10000"},
			}
			for _, rc := range ranges {
				t.Run(rc.name, func(t *testing.T) {
					rec := f.do(t, "alice", http.MethodGet, "/fs/docs/a.bin", nil, map[string]string{"Range": rc.header})
					if rec.Code != http.StatusPartialContent {
						t.Fatalf("GET %s = %d: %s", rc.header, rec.Code, rec.Body)
					}
					if got := rec.Header().Get("Content-Range"); got != rc.wantCR {
						t.Fatalf("Content-Range = %q, want %q", got, rc.wantCR)
					}
					if got := rec.Header().Get("Accept-Ranges"); got != "bytes" {
						t.Fatalf("Accept-Ranges = %q, want bytes", got)
					}
					if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(len(rc.wantBody)) {
						t.Fatalf("Content-Length = %q, want %d", got, len(rc.wantBody))
					}
					if !bytes.Equal(rec.Body.Bytes(), rc.wantBody) {
						t.Fatalf("body mismatch: got %d bytes, want %d", rec.Body.Len(), len(rc.wantBody))
					}
				})
			}

			t.Run("unsatisfiable is 416", func(t *testing.T) {
				rec := f.do(t, "alice", http.MethodGet, "/fs/docs/a.bin", nil, map[string]string{"Range": "bytes=10000-"})
				if rec.Code != http.StatusRequestedRangeNotSatisfiable {
					t.Fatalf("GET = %d: %s", rec.Code, rec.Body)
				}
				if got := rec.Header().Get("Content-Range"); got != "bytes */10000" {
					t.Fatalf("Content-Range = %q, want bytes */10000", got)
				}
			})

			// Malformed and multi-range specs are ignored: full 200.
			for _, h := range []string{"bytes=9-5", "bytes=0-0,5-9", "bytes=-0", "chunks=0-5"} {
				rec := f.do(t, "alice", http.MethodGet, "/fs/docs/a.bin", nil, map[string]string{"Range": h})
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), content) {
					t.Fatalf("GET with Range %q = %d (%d bytes), want 200 full body", h, rec.Code, rec.Body.Len())
				}
			}

			// If-Range forces the full representation (RFC 9110 §13.1.5):
			// this server emits no validators, so no If-Range validator
			// can match and serving a 206 could splice two file versions
			// at the client. Both validator forms must behave the same.
			t.Run("if-range forces full 200", func(t *testing.T) {
				for _, v := range []string{`"some-etag"`, "Tue, 01 Jan 2030 00:00:00 GMT"} {
					rec := f.do(t, "alice", http.MethodGet, "/fs/docs/a.bin", nil,
						map[string]string{"Range": "bytes=0-99", "If-Range": v})
					if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), content) {
						t.Fatalf("GET with If-Range %q = %d (%d bytes), want 200 full body",
							v, rec.Code, rec.Body.Len())
					}
					if got := rec.Header().Get("Content-Range"); got != "" {
						t.Fatalf("If-Range response carries Content-Range %q", got)
					}
				}
			})

			t.Run("head ignores range", func(t *testing.T) {
				rec := f.do(t, "alice", http.MethodHead, "/fs/docs/a.bin", nil, map[string]string{"Range": "bytes=0-99"})
				if rec.Code != http.StatusOK {
					t.Fatalf("HEAD = %d", rec.Code)
				}
				if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(size) {
					t.Fatalf("HEAD Content-Length = %q, want %d", got, size)
				}
			})

			t.Run("full get advertises ranges", func(t *testing.T) {
				rec := f.do(t, "alice", http.MethodGet, "/fs/docs/a.bin", nil, nil)
				if rec.Code != http.StatusOK {
					t.Fatalf("GET = %d", rec.Code)
				}
				if got := rec.Header().Get("Accept-Ranges"); got != "bytes" {
					t.Fatalf("Accept-Ranges = %q, want bytes", got)
				}
			})

			t.Run("foreign range read is 403", func(t *testing.T) {
				rec := f.do(t, "eve", http.MethodGet, "/fs/docs/a.bin", nil, map[string]string{"Range": "bytes=0-99"})
				if rec.Code != http.StatusForbidden {
					t.Fatalf("GET = %d: %s", rec.Code, rec.Body)
				}
			})

			t.Run("range on missing file is 404", func(t *testing.T) {
				rec := f.do(t, "alice", http.MethodGet, "/fs/docs/nope", nil, map[string]string{"Range": "bytes=0-99"})
				if rec.Code != http.StatusNotFound {
					t.Fatalf("GET = %d: %s", rec.Code, rec.Body)
				}
			})

			t.Run("range on directory lists normally", func(t *testing.T) {
				rec := f.do(t, "alice", http.MethodGet, "/fs/docs/", nil, map[string]string{"Range": "bytes=0-99"})
				if rec.Code != http.StatusOK {
					t.Fatalf("GET dir = %d: %s", rec.Code, rec.Body)
				}
			})
		})
	}
}

// TestRangeGETAfterUpdate pins that a range read observes the latest
// write, not a stale representation — the fast path re-reads the backend
// blob on every request.
func TestRangeGETAfterUpdate(t *testing.T) {
	f := newHandlerFixtureWith(t, Features{})
	if rec := f.do(t, "alice", "MKCOL", "/fs/docs/", nil, nil); rec.Code != http.StatusCreated {
		t.Fatalf("MKCOL = %d", rec.Code)
	}
	if rec := f.do(t, "alice", http.MethodPut, "/fs/docs/a.bin", bytes.Repeat([]byte("A"), 8192), nil); rec.Code != http.StatusCreated {
		t.Fatalf("PUT = %d", rec.Code)
	}
	if rec := f.do(t, "alice", http.MethodPut, "/fs/docs/a.bin", []byte("tiny"), nil); rec.Code != http.StatusNoContent {
		t.Fatalf("PUT update = %d", rec.Code)
	}
	rec := f.do(t, "alice", http.MethodGet, "/fs/docs/a.bin", nil, map[string]string{"Range": "bytes=1-2"})
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("GET = %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Body.String(); got != "in" {
		t.Fatalf("body = %q, want %q", got, "in")
	}
	if got := rec.Header().Get("Content-Range"); got != "bytes 1-2/4" {
		t.Fatalf("Content-Range = %q, want bytes 1-2/4", got)
	}
	// The old 8 KiB size is gone: its tail is now unsatisfiable.
	rec = f.do(t, "alice", http.MethodGet, "/fs/docs/a.bin", nil, map[string]string{"Range": "bytes=8000-"})
	if rec.Code != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("GET stale tail = %d", rec.Code)
	}
}
