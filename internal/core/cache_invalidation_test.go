package core

import (
	"bytes"
	"errors"
	"testing"

	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/store"
)

// newTunedServer is newDirectServer with caller-controlled tuning knobs
// (lock shards, cache budget, features); the PKI is filled in, and so are
// the stores the caller left nil.
func newTunedServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	authority, err := ca.New("tuned CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.CACertPEM = authority.CertificatePEM()
	if cfg.ContentStore == nil {
		cfg.ContentStore = store.NewMemory()
	}
	if cfg.GroupStore == nil {
		cfg.GroupStore = store.NewMemory()
	}
	server, err := NewServer(platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return server
}

// These tests pin the security property of the relation cache: a
// revocation — permission cleared, access denied, or group membership
// removed — is visible to the *very next* request, with no grace window.
// Each test first proves the relation the authorization reads was
// cache-resident, so a pass can't come from caching being accidentally
// off.

func cached(s *Server, key string) bool {
	_, ok := s.fm.cache.Get(key)
	return ok
}

// warmRead downloads the path a few times so the ACL, membership, and
// directory relations for it are all cache-resident.
func warmRead(t *testing.T, d *DirectSession, path string, want []byte) {
	t.Helper()
	for i := 0; i < 3; i++ {
		got, err := d.Download(path)
		if err != nil {
			t.Fatalf("warm read %s: %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("warm read %s = %q, want %q", path, got, want)
		}
	}
}

func TestPermissionRevocationVisibleImmediately(t *testing.T) {
	server := newDirectServer(t)
	alice := server.Direct("alice")
	bob := server.Direct("bob")

	if err := alice.Mkdir("/d/"); err != nil {
		t.Fatal(err)
	}
	if err := alice.Upload("/d/f", []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if err := alice.AddUser("bob", "team"); err != nil {
		t.Fatal(err)
	}
	if err := alice.SetPermission("/d/f", "team", "r"); err != nil {
		t.Fatal(err)
	}
	warmRead(t, bob, "/d/f", []byte("secret"))
	if !cached(server, aclName("/d/f")) {
		t.Fatal("the ACL of /d/f is not cached; the revocation test would prove nothing")
	}

	// Revoke and read back-to-back: the grant must be gone on the very
	// next request even though the old ACL was cache-hot a moment ago.
	if err := alice.SetPermission("/d/f", "team", "none"); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Download("/d/f"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("read after permission revocation: %v, want ErrPermissionDenied", err)
	}
}

func TestExplicitDenyVisibleImmediately(t *testing.T) {
	server := newDirectServer(t)
	alice := server.Direct("alice")
	bob := server.Direct("bob")

	if err := alice.Mkdir("/d/"); err != nil {
		t.Fatal(err)
	}
	if err := alice.Upload("/d/f", []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if err := alice.AddUser("bob", "team"); err != nil {
		t.Fatal(err)
	}
	if err := alice.SetPermission("/d/f", "team", "rw"); err != nil {
		t.Fatal(err)
	}
	warmRead(t, bob, "/d/f", []byte("secret"))

	if err := alice.SetPermission("/d/f", "team", "deny"); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Download("/d/f"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("read after deny: %v, want ErrPermissionDenied", err)
	}
}

func TestMembershipRevocationVisibleImmediately(t *testing.T) {
	server := newDirectServer(t)
	alice := server.Direct("alice")
	bob := server.Direct("bob")

	if err := alice.Mkdir("/d/"); err != nil {
		t.Fatal(err)
	}
	if err := alice.Upload("/d/f", []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if err := alice.AddUser("bob", "team"); err != nil {
		t.Fatal(err)
	}
	if err := alice.SetPermission("/d/f", "team", "r"); err != nil {
		t.Fatal(err)
	}
	warmRead(t, bob, "/d/f", []byte("secret"))
	if !cached(server, memberListName("bob")) {
		t.Fatal("bob's member list is not cached; the revocation test would prove nothing")
	}

	// Kick bob out of the group; his cached member list must not grant
	// him one more read.
	if err := alice.RemoveUser("bob", "team"); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Download("/d/f"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("read after membership revocation: %v, want ErrPermissionDenied", err)
	}
}

// Grants must propagate just as immediately as revocations: a user with
// a cache-hot denial gains access the moment the grant lands.
func TestGrantVisibleImmediately(t *testing.T) {
	server := newDirectServer(t)
	alice := server.Direct("alice")
	bob := server.Direct("bob")

	if err := alice.Mkdir("/d/"); err != nil {
		t.Fatal(err)
	}
	if err := alice.Upload("/d/f", []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if err := alice.AddUser("bob", "team"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := bob.Download("/d/f"); !errors.Is(err, ErrPermissionDenied) {
			t.Fatalf("read before grant: %v, want ErrPermissionDenied", err)
		}
	}
	if err := alice.SetPermission("/d/f", "team", "r"); err != nil {
		t.Fatal(err)
	}
	got, err := bob.Download("/d/f")
	if err != nil || !bytes.Equal(got, []byte("secret")) {
		t.Fatalf("read after grant: %q, %v", got, err)
	}
}

// Directory listings come from the cached parent body; a removal must be
// reflected in the immediately following PROPFIND/List.
func TestDirListingInvalidatedOnChildRemoval(t *testing.T) {
	server := newDirectServer(t)
	alice := server.Direct("alice")

	if err := alice.Mkdir("/d/"); err != nil {
		t.Fatal(err)
	}
	if err := alice.Upload("/d/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if entries, err := alice.List("/d/"); err != nil || len(entries) != 1 {
			t.Fatalf("warm list: %v %v", entries, err)
		}
	}
	if !cached(server, "/d/") {
		t.Fatal("the body of /d/ is not cached")
	}
	if err := alice.Remove("/d/f"); err != nil {
		t.Fatal(err)
	}
	entries, err := alice.List("/d/")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("listing after removal still shows %v", entries)
	}
}

// The same revocation sequences must behave identically with the caches
// disabled — the cache is a pure performance layer.
func TestRevocationParityWithCacheDisabled(t *testing.T) {
	server := newTunedServer(t, Config{CacheBytes: -1})
	alice := server.Direct("alice")
	bob := server.Direct("bob")

	if err := alice.Mkdir("/d/"); err != nil {
		t.Fatal(err)
	}
	if err := alice.Upload("/d/f", []byte("secret")); err != nil {
		t.Fatal(err)
	}
	if err := alice.AddUser("bob", "team"); err != nil {
		t.Fatal(err)
	}
	if err := alice.SetPermission("/d/f", "team", "r"); err != nil {
		t.Fatal(err)
	}
	warmRead(t, bob, "/d/f", []byte("secret"))
	if hits := server.CacheStats().Hits; hits != 0 {
		t.Fatalf("cache disabled but recorded %d hits", hits)
	}
	if err := alice.SetPermission("/d/f", "team", "none"); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Download("/d/f"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("read after revocation (cache off): %v, want ErrPermissionDenied", err)
	}
}
