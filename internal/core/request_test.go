package core

import (
	"bytes"
	"crypto/x509"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"
	"time"

	"segshare/internal/audit"
	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/obs"
	"segshare/internal/store"
)

// TestTransportsDelegateToRequestLayer keeps the one request path one:
// the transports (handler.go, webdav.go, direct.go) parse input and shape
// output, and request.go does the rest. It fails on a transport call to
// any lock-manager method (enumerated from locks.go, so a new plan is
// covered) or to provisionUser, and on any audit.Event a transport builds
// other than the two authentication events, which only HTTP can write.
func TestTransportsDelegateToRequestLayer(t *testing.T) {
	fset := token.NewFileSet()
	locks, err := parser.ParseFile(fset, "locks.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	forbidden := map[string]bool{"provisionUser": true}
	for _, decl := range locks.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv == nil {
			continue
		}
		if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
			if id, ok := star.X.(*ast.Ident); ok && id.Name == "lockManager" {
				forbidden[fn.Name.Name] = true
			}
		}
	}
	for _, plan := range []string{"read", "groupWrite", "exclusive"} {
		if !forbidden[plan] {
			t.Fatalf("locks.go declares no lockManager.%s; the guard enumerates the wrong receiver", plan)
		}
	}

	authnEvents := map[string]bool{"EventAuthnSuccess": true, "EventAuthnFailure": true}
	seenAuthn := 0
	for _, name := range []string{"handler.go", "webdav.go", "direct.go"} {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && forbidden[sel.Sel.Name] {
					t.Errorf("%s calls %s: lock plans and provisioning belong to the request layer (request.go)",
						fset.Position(n.Pos()), sel.Sel.Name)
				}
			case *ast.CompositeLit:
				if !isSelector(n.Type, "audit", "Event") {
					return true
				}
				event := ""
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Event" {
							if sel, ok := kv.Value.(*ast.SelectorExpr); ok {
								event = sel.Sel.Name
							}
						}
					}
				}
				if !authnEvents[event] {
					t.Errorf("%s builds an audit.Event %q: authorization and change records belong to the request layer (request.go)",
						fset.Position(n.Pos()), event)
				} else {
					seenAuthn++
				}
			}
			return true
		})
	}
	if seenAuthn != len(authnEvents) {
		t.Errorf("found %d authentication events in the transports, want %d: the guard no longer sees them", seenAuthn, len(authnEvents))
	}
}

func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

// newAuditedServer builds a server with a complete audit trail (audit
// log on OverflowBlock) and the heavy-hitter sketch, returning the audit
// store for offline verification.
func newAuditedServer(t *testing.T, exporter *obs.Exporter) (*handlerFixture, store.Backend) {
	t.Helper()
	authority, err := ca.New("request layer test CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	auditStore := store.NewMemory()
	server, err := NewServer(platform, Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: store.NewMemory(),
		GroupStore:   store.NewMemory(),
		Obs:          obs.NewRegistry(),
		AuditStore:   auditStore,
		Audit:        audit.Options{Overflow: audit.OverflowBlock},
		Exporter:     exporter,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return &handlerFixture{server: server, authority: authority, certs: make(map[string]*x509.Certificate)}, auditStore
}

// auditRecords closes the server and returns its decrypted trail.
func auditRecords(t *testing.T, server *Server, auditStore store.Backend) []audit.Record {
	t.Helper()
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
	var recs []audit.Record
	for dec := json.NewDecoder(&dump); dec.More(); {
		var r audit.Record
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	return recs
}

// TestDirectAndHTTPAuditAlike runs one op script over HTTP on one server
// and through direct sessions on another. Apart from the authentication
// records only HTTP can write, both audit trails must hold the same
// records, and both heavy-hitter sketches must charge every request —
// group-targeted mutations included — to the same groups.
func TestDirectAndHTTPAuditAlike(t *testing.T) {
	type step struct {
		user, method, target string
		body                 []byte
		hdr                  map[string]string
		want                 int
		direct               func(alice, eve *DirectSession) error
		deny                 bool
	}
	script := []step{
		{"alice", "MKCOL", "/fs/docs/", nil, nil, 201,
			func(a, _ *DirectSession) error { return a.Mkdir("/docs/") }, false},
		{"alice", "PUT", "/fs/docs/a.txt", []byte("v1"), nil, 201,
			func(a, _ *DirectSession) error { return a.Upload("/docs/a.txt", []byte("v1")) }, false},
		{"alice", "GET", "/fs/docs/a.txt", nil, nil, 200,
			func(a, _ *DirectSession) error { _, err := a.Download("/docs/a.txt"); return err }, false},
		{"eve", "GET", "/fs/docs/a.txt", nil, nil, 403,
			func(_, e *DirectSession) error { _, err := e.Download("/docs/a.txt"); return err }, true},
		{"alice", "POST", "/api/permission", []byte(`{"path":"/docs/a.txt","group":"user:bob","permission":"r"}`), nil, 204,
			func(a, _ *DirectSession) error { return a.SetPermission("/docs/a.txt", "user:bob", "r") }, false},
		{"alice", "POST", "/api/groups/add", []byte(`{"user":"bob","group":"team"}`), nil, 204,
			func(a, _ *DirectSession) error { return a.AddUser("bob", "team") }, false},
		{"alice", "POST", "/api/groups/remove", []byte(`{"user":"bob","group":"team"}`), nil, 204,
			func(a, _ *DirectSession) error { return a.RemoveUser("bob", "team") }, false},
		{"alice", "MOVE", "/fs/docs/a.txt", nil, map[string]string{"Destination": "/fs/docs/b.txt"}, 201,
			func(a, _ *DirectSession) error { return a.Move("/docs/a.txt", "/docs/b.txt") }, false},
		{"alice", "DELETE", "/fs/docs/b.txt", nil, nil, 204,
			func(a, _ *DirectSession) error { return a.Remove("/docs/b.txt") }, false},
	}

	wire, wireAudit := newAuditedServer(t, nil)
	for _, s := range script {
		if rec := wire.do(t, s.user, s.method, s.target, s.body, s.hdr); rec.Code != s.want {
			t.Fatalf("%s %s = %d (want %d): %s", s.method, s.target, rec.Code, s.want, rec.Body)
		}
	}
	direct, directAudit := newAuditedServer(t, nil)
	alice, eve := direct.server.Direct("alice"), direct.server.Direct("eve")
	for _, s := range script {
		if err := s.direct(alice, eve); (err != nil) != s.deny || (s.deny && !errors.Is(err, ErrPermissionDenied)) {
			t.Fatalf("direct %s %s: %v", s.method, s.target, err)
		}
	}

	// Every request is charged to the same group on both servers. Each
	// server keys its own pseudonyms, so compare per group name.
	for _, group := range []string{"user:alice", "user:eve", "user:bob", "team"} {
		wireN := hotRequests(wire.server, group)
		if directN := hotRequests(direct.server, group); wireN != directN || wireN == 0 {
			t.Errorf("%s charged %d requests over HTTP, %d directly", group, wireN, directN)
		}
	}

	comparable := func(recs []audit.Record) []audit.Record {
		var out []audit.Record
		for _, r := range recs {
			if r.Event == audit.EventAuthnSuccess || r.Event == audit.EventAuthnFailure {
				continue
			}
			r.Seq, r.TimeNanos, r.RequestID = 0, 0, 0
			out = append(out, r)
		}
		return out
	}
	wireRecs := comparable(auditRecords(t, wire.server, wireAudit))
	directRecs := comparable(auditRecords(t, direct.server, directAudit))
	if !reflect.DeepEqual(wireRecs, directRecs) {
		t.Fatalf("audit trails differ\nHTTP:   %+v\ndirect: %+v", wireRecs, directRecs)
	}
	// Two key operations (root generate, root export) plus one record per step.
	if len(directRecs) != 2+len(script) {
		t.Fatalf("direct trail holds %d records, want %d: %+v", len(directRecs), 2+len(script), directRecs)
	}
}

// hotRequests returns the heavy-hitter request count charged to group.
func hotRequests(s *Server, group string) uint64 {
	id := s.obs.pseud.Pseudonym(group)
	for _, e := range s.obs.hot.Snapshot().Entries {
		if e.ID == id {
			return e.RequestsLe
		}
	}
	return 0
}

// TestAuditEnqueueChargedToRequest checks that the time a request spends
// handing its audit records to the writer reaches its wide event, over
// HTTP and through direct sessions alike. With OverflowBlock the enqueue
// is the one place the log can stall a request.
func TestAuditEnqueueChargedToRequest(t *testing.T) {
	sink := obs.NewMemorySink()
	exporter := obs.NewExporter(sink, obs.ExporterOptions{FlushInterval: 5 * time.Millisecond})
	t.Cleanup(func() { exporter.Close() })
	f, _ := newAuditedServer(t, exporter)

	if rec := f.do(t, "alice", "PUT", "/fs/a.txt", []byte("wire"), nil); rec.Code != 201 {
		t.Fatalf("PUT = %d: %s", rec.Code, rec.Body)
	}
	if err := f.server.Direct("alice").Upload("/b.txt", []byte("direct")); err != nil {
		t.Fatal(err)
	}

	var puts []obs.WideEvent
	for deadline := time.Now().Add(5 * time.Second); len(puts) < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("exported %d fs_put wide events, want 2", len(puts))
		}
		puts = puts[:0]
		for _, rec := range sink.Records() {
			if rec.Kind == "wide_event" && rec.Event != nil && rec.Event.Op == "fs_put" {
				puts = append(puts, *rec.Event)
			}
		}
	}
	for i, ev := range puts {
		if ev.AuditEnqueueNs == 0 {
			t.Errorf("fs_put wide event %d (trace %d) carries no audit enqueue time", i, ev.TraceID)
		}
	}
}
