package core

import (
	"crypto/tls"
	"fmt"
	"sync"
	"testing"
	"time"

	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/store"
)

// gatedStore blocks every Get once armed until release closes, and
// reports the first blocked Get on entered.
type gatedStore struct {
	store.Backend
	mu      sync.Mutex
	armed   bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedStore) arm() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.armed = true
}

func (g *gatedStore) Get(name string) ([]byte, error) {
	g.mu.Lock()
	armed := g.armed
	if armed && g.entered != nil {
		close(g.entered)
		g.entered = nil
	}
	g.mu.Unlock()
	if armed {
		<-g.release
	}
	return g.Backend.Get(name)
}

// TestCloseReturnsWithParkedDelivery verifies that Server.Close does not
// wait on a terminator pump parked in a delivery: a request whose handler
// has not read its 4 MiB body (here, blocked in a store read) fills the
// connection's in-enclave receive buffer, and only closing the endpoint
// wakes the pump. Close must close it before it waits for the pumps.
func TestCloseReturnsWithParkedDelivery(t *testing.T) {
	authority, err := ca.New("close test CA")
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	gate := &gatedStore{Backend: store.NewMemory(), entered: entered, release: make(chan struct{})}
	cfg := Config{CACertPEM: authority.CertificatePEM(), ContentStore: gate, GroupStore: store.NewMemory()}
	server, err := NewServer(platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	t.Cleanup(release)
	expected, err := ExpectedMeasurement(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := authority.ProvisionServer(server.Certifier(), platform.AttestationPublicKey(), expected,
		[]string{"localhost"}, time.Hour); err != nil {
		t.Fatal(err)
	}
	addr, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	cred, err := authority.IssueClientCertificate(ca.Identity{UserID: "alice"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := cred.TLSCertificate()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tls.Dial("tcp", addr.String(), &tls.Config{
		RootCAs:      authority.CertPool(),
		Certificates: []tls.Certificate{cert},
		ServerName:   "localhost",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const bodyLen = 4 << 20
	gate.arm()
	if _, err := fmt.Fprintf(conn, "GET %s/a.txt HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n",
		FSPrefix, bodyLen); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("GET never reached the content store")
	}
	go conn.Write(make([]byte, bodyLen)) // returns once the connection closes

	// The pump parks once the unread body passes the buffer bound; its
	// delivery then stays in flight on the bridge.
	for deadline, stable := time.Now().Add(10*time.Second), 0; stable < 5; time.Sleep(10 * time.Millisecond) {
		if server.bridge.Pending() > 0 {
			stable++
		} else {
			stable = 0
		}
		if time.Now().After(deadline) {
			t.Fatal("the pump never parked in a delivery")
		}
	}

	closed := make(chan error, 1)
	go func() { closed <- server.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(3 * time.Second):
		release() // let the handler finish so the parked pump and Close unwind
		<-closed
		t.Fatal("Close blocked behind a pump parked in a delivery")
	}
}
