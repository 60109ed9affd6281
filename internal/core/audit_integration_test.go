package core

import (
	"bytes"
	"crypto/x509"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"segshare/internal/audit"
	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/obs"
	"segshare/internal/store"
)

// newAuditFixture builds a fully-featured server with the audit log
// enabled on a dedicated backend, returning both so the test can verify
// the persisted log offline afterwards.
func newAuditFixture(t *testing.T, auditStore store.Backend) *handlerFixture {
	t.Helper()
	authority, err := ca.New("audit test CA")
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
		Features: Features{
			RollbackProtection: true,
			Guard:              GuardCounter,
		},
		Obs:        obs.NewRegistry(),
		AuditStore: auditStore,
		Audit:      audit.Options{CheckpointEvery: 4, Overflow: audit.OverflowBlock},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return &handlerFixture{server: server, authority: authority, certs: make(map[string]*x509.Certificate)}
}

// TestAuditTrailEndToEnd drives a workload covering every audited event
// class through the full handler stack, then closes the server and
// verifies the persisted log offline with keys re-derived from SK_r —
// the same procedure an operator runs with segshare-audit.
func TestAuditTrailEndToEnd(t *testing.T) {
	auditStore := store.NewMemory()
	f := newAuditFixture(t, auditStore)

	steps := []struct {
		user, method, target string
		body                 []byte
		want                 int
	}{
		{"alice", "MKCOL", "/fs/reports/", nil, 201},
		{"alice", "PUT", "/fs/reports/q3.txt", []byte("numbers"), 201},
		{"alice", "GET", "/fs/reports/q3.txt", nil, 200},
		{"alice", "POST", "/api/groups/add", []byte(`{"group":"finance","user":"bob"}`), 204},
		{"alice", "POST", "/api/permission", []byte(`{"path":"/reports/q3.txt","group":"finance","permission":"r"}`), 204},
		{"bob", "GET", "/fs/reports/q3.txt", nil, 200},
		{"eve", "GET", "/fs/reports/q3.txt", nil, 403}, // authz deny
		{"", "GET", "/fs/reports/q3.txt", nil, 401},    // authn failure
	}
	for _, s := range steps {
		if rec := f.do(t, s.user, s.method, s.target, s.body, nil); rec.Code != s.want {
			t.Fatalf("%s %s = %d (want %d): %s", s.method, s.target, rec.Code, s.want, rec.Body)
		}
	}

	// The live head endpoint serves counts and the sealed chain head, and
	// must leak no workload identity.
	rec := httptest.NewRecorder()
	f.server.AuditHeadHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/audit/head", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/audit/head = %d: %s", rec.Code, rec.Body)
	}
	var head audit.Head
	if err := json.Unmarshal(rec.Body.Bytes(), &head); err != nil {
		t.Fatal(err)
	}
	if head.Records == 0 {
		t.Fatal("audit head reports zero records after workload")
	}
	for _, leak := range []string{"alice", "bob", "eve", "reports", "q3.txt", "finance"} {
		if bytes.Contains(rec.Body.Bytes(), []byte(leak)) {
			t.Fatalf("/debug/audit/head leaks %q: %s", leak, rec.Body)
		}
	}

	// Snapshot inputs for offline verification, then shut down (flushes
	// the tail and seals the final checkpoint).
	keys, err := audit.DeriveKeys(f.server.RootKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.server.Close(); err != nil {
		t.Fatal(err)
	}
	// Close seals a final checkpoint, so the counter is read after it.
	liveCounter := f.server.Enclave().Counter("audit-log").Value()

	var dump bytes.Buffer
	res, err := audit.Verify(auditStore, keys, audit.VerifyOptions{
		ExpectCounter: liveCounter,
		Dump:          &dump,
	})
	if err != nil {
		t.Fatalf("offline verification failed: %v", err)
	}
	if res.Records < uint64(len(steps)) {
		t.Fatalf("log holds %d records for %d requests", res.Records, len(steps))
	}

	// Every audited event class from the workload must be present, with
	// identity intact after decryption — plus the key_op from startup and
	// the root-key export above.
	var recs []audit.Record
	dec := json.NewDecoder(&dump)
	for dec.More() {
		var r audit.Record
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	find := func(match func(audit.Record) bool) *audit.Record {
		for i := range recs {
			if match(recs[i]) {
				return &recs[i]
			}
		}
		return nil
	}
	if r := find(func(r audit.Record) bool { return r.Event == audit.EventKeyOp && r.Detail == "root_generate" }); r == nil {
		t.Error("missing key_op root_generate record")
	}
	if r := find(func(r audit.Record) bool { return r.Event == audit.EventKeyOp && r.Detail == "root_export" }); r == nil {
		t.Error("missing key_op root_export record")
	}
	if r := find(func(r audit.Record) bool { return r.Event == audit.EventAuthnFailure }); r == nil {
		t.Error("missing authn_failure record")
	}
	deny := find(func(r audit.Record) bool { return r.Event == audit.EventFileAuthzDeny })
	if deny == nil {
		t.Fatal("missing authz_deny record")
	}
	if deny.User != "eve" || deny.Path != "/reports/q3.txt" || deny.RequestID == 0 {
		t.Errorf("authz_deny record incomplete: %+v", deny)
	}
	grp := find(func(r audit.Record) bool { return r.Event == audit.EventGroupChange })
	if grp == nil {
		t.Fatal("missing group_change record")
	}
	if grp.User != "alice" || grp.Target != "bob" || grp.Group != "finance" {
		t.Errorf("group_change record incomplete: %+v", grp)
	}
	aclRec := find(func(r audit.Record) bool { return r.Event == audit.EventACLChange })
	if aclRec == nil {
		t.Fatal("missing acl_change record")
	}
	if aclRec.Path != "/reports/q3.txt" || aclRec.Group != "finance" {
		t.Errorf("acl_change record incomplete: %+v", aclRec)
	}
	if r := find(func(r audit.Record) bool { return r.Event == audit.EventFileAuthzAllow && r.User == "bob" }); r == nil {
		t.Error("missing authz_allow record for bob's shared read")
	}

	// Nothing identity-bearing may sit in the audit store in plaintext.
	names, err := auditStore.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		body, err := auditStore.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, leak := range []string{"alice", "bob", "eve", "reports", "finance"} {
			if bytes.Contains(body, []byte(leak)) {
				t.Fatalf("audit segment %s leaks %q in plaintext", n, leak)
			}
		}
	}
}

// TestAuditRollbackFailureRecorded forces a rollback-validation failure
// and checks it lands in the audit trail: once for a rolled-back file
// read back, once for a rolled-back root written through.
func TestAuditRollbackFailureRecorded(t *testing.T) {
	for _, tc := range []struct {
		name, object, method, target string
	}{
		{"file", "/a.txt", http.MethodGet, "/fs/a.txt"},
		{"root", "/", http.MethodPut, "/fs/b.txt"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			auditStore := store.NewMemory()
			content := store.NewMemory()
			authority, err := ca.New("audit test CA")
			if err != nil {
				t.Fatal(err)
			}
			platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
			if err != nil {
				t.Fatal(err)
			}
			server, err := NewServer(platform, Config{
				CACertPEM:    authority.CertificatePEM(),
				ContentStore: content,
				GroupStore:   store.NewMemory(),
				Features:     Features{RollbackProtection: true},
				Obs:          obs.NewRegistry(),
				AuditStore:   auditStore,
				Audit:        audit.Options{Overflow: audit.OverflowBlock},
			})
			if err != nil {
				t.Fatal(err)
			}
			f := &handlerFixture{server: server, authority: authority, certs: make(map[string]*x509.Certificate)}

			if rec := f.do(t, "alice", http.MethodPut, "/fs/a.txt", []byte("v2"), nil); rec.Code != 201 {
				t.Fatalf("PUT = %d: %s", rec.Code, rec.Body)
			}
			// Remember one object, update the file, then roll back only
			// that object and leave the others that changed with it
			// current — a partial rollback the hash tree must reject
			// (restoring every object would be a consistent whole-store
			// rollback, which needs the §V-E guard to catch and is
			// exercised elsewhere).
			old, err := content.Get(tc.object)
			if err != nil {
				t.Fatal(err)
			}
			if rec := f.do(t, "alice", http.MethodPut, "/fs/a.txt", []byte("v3"), nil); rec.Code != 204 {
				t.Fatalf("PUT update = %d: %s", rec.Code, rec.Body)
			}
			if cur, err := content.Get(tc.object); err != nil || bytes.Equal(cur, old) {
				t.Fatalf("update left %s unchanged (%v); cannot stage rollback", tc.object, err)
			}
			if err := content.Put(tc.object, old); err != nil {
				t.Fatal(err)
			}
			var body []byte
			if tc.method == http.MethodPut {
				body = []byte("new")
			}
			rec := f.do(t, "alice", tc.method, tc.target, body, nil)
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("%s %s after rollback = %d (want 500): %s", tc.method, tc.target, rec.Code, rec.Body)
			}

			keys, err := audit.DeriveKeys(server.RootKey())
			if err != nil {
				t.Fatal(err)
			}
			if err := server.Close(); err != nil {
				t.Fatal(err)
			}
			var dump bytes.Buffer
			if _, err := audit.Verify(auditStore, keys, audit.VerifyOptions{Dump: &dump}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(dump.Bytes(), []byte(`"event":"rollback_failure"`)) {
				t.Fatalf("no rollback_failure record in audit dump:\n%s", dump.String())
			}
		})
	}
}
