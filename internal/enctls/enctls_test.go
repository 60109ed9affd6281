package enctls

import (
	"bufio"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"segshare/internal/ca"
	"segshare/internal/enclave"
)

// testPKI builds a CA, a server certificate for 127.0.0.1, and a client
// credential.
type testPKI struct {
	authority  *ca.Authority
	serverCert tls.Certificate
	clientCert tls.Certificate
	pool       *x509.CertPool
}

func newTestPKI(t *testing.T) *testPKI {
	t.Helper()
	authority, err := ca.New("enctls test CA")
	if err != nil {
		t.Fatal(err)
	}
	cred, err := authority.IssueClientCertificate(ca.Identity{UserID: "alice"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	clientCert, err := cred.TLSCertificate()
	if err != nil {
		t.Fatal(err)
	}
	return &testPKI{
		authority:  authority,
		serverCert: issueServerCert(t, authority),
		clientCert: clientCert,
		pool:       authority.CertPool(),
	}
}

// issueServerCert provisions a server certificate through the CA's
// attestation flow with an in-test certifier.
func issueServerCert(t *testing.T, authority *ca.Authority) tls.Certificate {
	t.Helper()
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	code := enclave.CodeIdentity{Name: "segshare", Version: 1}
	encl, err := platform.Launch(code)
	if err != nil {
		t.Fatal(err)
	}
	certifier := &testCertifier{enclave: encl}
	err = authority.ProvisionServer(certifier, platform.AttestationPublicKey(), code.Measurement(), []string{"localhost"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(certifier.key)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(certifier.installed)
	if err != nil {
		t.Fatal(err)
	}
	parsedKey, err := x509.ParseECPrivateKey(keyDER)
	if err != nil {
		t.Fatal(err)
	}
	return tls.Certificate{
		Certificate: [][]byte{certifier.installed},
		PrivateKey:  parsedKey,
		Leaf:        cert,
	}
}

type testCertifier struct {
	enclave   *enclave.Enclave
	key       *ecdsa.PrivateKey
	installed []byte
}

func (c *testCertifier) CertificationRequest() (*enclave.Quote, []byte, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	c.key = key
	csrDER, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{
		Subject: pkix.Name{CommonName: "segshare-enclave"},
	}, key)
	if err != nil {
		return nil, nil, err
	}
	quote, err := c.enclave.Quote(ca.CSRReportData(csrDER))
	if err != nil {
		return nil, nil, err
	}
	return quote, csrDER, nil
}

func (c *testCertifier) InstallCertificate(certDER []byte) error {
	c.installed = certDER
	return nil
}

// echoFixture runs a line-echo service behind the split TLS stack and
// returns the dial address.
func echoFixture(t *testing.T, pki *testPKI) string {
	t.Helper()
	return serveFixture(t, pki, func(conn net.Conn) {
		r := bufio.NewReader(conn)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			if _, err := io.WriteString(conn, "echo:"+line); err != nil {
				return
			}
		}
	})
}

// serveFixture runs serve on every connection accepted behind the split
// TLS stack, closing the connection when serve returns, and returns the
// dial address. Cleanup tears the stack down and waits for serve.
func serveFixture(t *testing.T, pki *testPKI, serve func(net.Conn)) string {
	t.Helper()
	bridge := enclave.NewBridge(enclave.BridgeConfig{})
	endpoint := NewTrustedEndpoint(bridge, &tls.Config{
		Certificates: []tls.Certificate{pki.serverCert},
		ClientCAs:    pki.pool,
	})
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	term := NewUntrustedTerminator(bridge, tcp)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := endpoint.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				defer conn.Close()
				serve(conn)
			}(conn)
		}
	}()
	t.Cleanup(func() {
		term.Close()
		endpoint.Close()
		bridge.Close()
		wg.Wait()
	})
	return term.Addr().String()
}

func clientConfig(pki *testPKI, withCert bool) *tls.Config {
	conf := &tls.Config{
		RootCAs:    pki.pool,
		ServerName: "localhost",
	}
	if withCert {
		conf.Certificates = []tls.Certificate{pki.clientCert}
	}
	return conf
}

func TestEndToEndEcho(t *testing.T) {
	pki := newTestPKI(t)
	addr := echoFixture(t, pki)

	conn, err := tls.Dial("tcp", addr, clientConfig(pki, true))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()

	for i := 0; i < 5; i++ {
		msg := fmt.Sprintf("hello %d\n", i)
		if _, err := io.WriteString(conn, msg); err != nil {
			t.Fatalf("write: %v", err)
		}
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if line != "echo:"+msg {
			t.Fatalf("echo = %q", line)
		}
	}

	// The server presented the enclave certificate signed by the CA.
	state := conn.ConnectionState()
	if len(state.PeerCertificates) == 0 {
		t.Fatal("no server certificate")
	}
	if state.PeerCertificates[0].Subject.CommonName != "segshare-enclave" {
		t.Fatalf("server CN = %q", state.PeerCertificates[0].Subject.CommonName)
	}
}

func TestConcurrentClients(t *testing.T) {
	pki := newTestPKI(t)
	addr := echoFixture(t, pki)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := tls.Dial("tcp", addr, clientConfig(pki, true))
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			msg := fmt.Sprintf("client %d\n", i)
			if _, err := io.WriteString(conn, msg); err != nil {
				errs <- err
				return
			}
			line, err := bufio.NewReader(conn).ReadString('\n')
			if err != nil {
				errs <- err
				return
			}
			if line != "echo:"+msg {
				errs <- fmt.Errorf("client %d echo = %q", i, line)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientWithoutCertificateRejected(t *testing.T) {
	pki := newTestPKI(t)
	addr := echoFixture(t, pki)

	conn, err := tls.Dial("tcp", addr, clientConfig(pki, false))
	if err == nil {
		// TLS 1.3 reports the missing client cert on first use.
		_, err = io.WriteString(conn, "x\n")
		if err == nil {
			_, err = bufio.NewReader(conn).ReadString('\n')
		}
		conn.Close()
	}
	if err == nil {
		t.Fatal("connection without client certificate succeeded")
	}
}

func TestClientFromForeignCARejected(t *testing.T) {
	pki := newTestPKI(t)
	addr := echoFixture(t, pki)

	foreign, err := ca.New("foreign CA")
	if err != nil {
		t.Fatal(err)
	}
	cred, err := foreign.IssueClientCertificate(ca.Identity{UserID: "mallory"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	mallCert, err := cred.TLSCertificate()
	if err != nil {
		t.Fatal(err)
	}
	conf := clientConfig(pki, false)
	conf.Certificates = []tls.Certificate{mallCert}

	conn, err := tls.Dial("tcp", addr, conf)
	if err == nil {
		_, err = io.WriteString(conn, "x\n")
		if err == nil {
			_, err = bufio.NewReader(conn).ReadString('\n')
		}
		conn.Close()
	}
	if err == nil {
		t.Fatal("foreign-CA client accepted")
	}
}

func TestServerCertificateRoll(t *testing.T) {
	pki := newTestPKI(t)

	bridge := enclave.NewBridge(enclave.BridgeConfig{})
	endpoint := NewTrustedEndpoint(bridge, &tls.Config{
		Certificates: []tls.Certificate{pki.serverCert},
		ClientCAs:    pki.pool,
	})
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	term := NewUntrustedTerminator(bridge, tcp)
	defer func() {
		term.Close()
		endpoint.Close()
		bridge.Close()
	}()
	go func() {
		for {
			conn, err := endpoint.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(io.Discard, conn)
				conn.Close()
			}()
		}
	}()

	// Roll to a fresh certificate and verify new connections present it.
	newCert := issueServerCert(t, pki.authority)
	endpoint.SetCertificate(newCert)

	conn, err := tls.Dial("tcp", term.Addr().String(), clientConfig(pki, true))
	if err != nil {
		t.Fatalf("Dial after roll: %v", err)
	}
	defer conn.Close()
	if err := conn.Handshake(); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	got := conn.ConnectionState().PeerCertificates[0].SerialNumber
	want := newCert.Leaf.SerialNumber
	if got.Cmp(want) != 0 {
		t.Fatalf("serial = %v, want %v (rolled cert not in use)", got, want)
	}
}

func TestLargeTransfer(t *testing.T) {
	pki := newTestPKI(t)
	addr := echoFixture(t, pki)

	conn, err := tls.Dial("tcp", addr, clientConfig(pki, true))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// One long line exercises buffering and backpressure across the
	// bridge.
	payload := make([]byte, 2<<20)
	for i := range payload {
		payload[i] = 'a' + byte(i%26)
	}
	payload[len(payload)-1] = '\n'

	var (
		readErr error
		got     []byte
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		r := bufio.NewReaderSize(conn, 1<<16)
		got, readErr = r.ReadBytes('\n')
	}()
	if _, err := conn.Write(payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	<-done
	if readErr != nil {
		t.Fatalf("read: %v", readErr)
	}
	want := append([]byte("echo:"), payload...)
	if len(got) != len(want) {
		t.Fatalf("echoed %d bytes, want %d", len(got), len(want))
	}
}

// TestParkedDeliveriesDoNotStarveHandshakes pins the switchless bridge
// at the split-TLS seam: eight clients each push 4 MiB to a handler that
// finished the handshake but reads nothing more (as a request waiting
// for admission does), so eight deliveries park on full receive slabs.
// A ninth client must still complete its handshake.
func TestParkedDeliveriesDoNotStarveHandshakes(t *testing.T) {
	pki := newTestPKI(t)
	bridge := enclave.NewBridge(enclave.BridgeConfig{})
	endpoint := NewTrustedEndpoint(bridge, &tls.Config{
		Certificates: []tls.Certificate{pki.serverCert},
		ClientCAs:    pki.pool,
	})
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	term := NewUntrustedTerminator(bridge, tcp)

	// Server side: finish each handshake, then hold the connection unread.
	var (
		mu   sync.Mutex
		held []*trustedConn
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := endpoint.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(conn *tls.Conn) {
				defer wg.Done()
				if conn.Handshake() != nil {
					conn.Close()
					return
				}
				mu.Lock()
				held = append(held, conn.NetConn().(*trustedConn))
				mu.Unlock()
			}(conn.(*tls.Conn))
		}
	}()
	t.Cleanup(func() {
		endpoint.Close() // wakes the parked deliveries
		term.Close()
		bridge.Close()
		wg.Wait()
	})

	const parked = 8
	push := make([]byte, 4<<20)
	for i := 0; i < parked; i++ {
		conn, err := tls.Dial("tcp", term.Addr().String(), clientConfig(pki, true))
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		t.Cleanup(func() { conn.Close() })
		go conn.Write(push) // returns once the connection closes
	}

	// Wait until every held connection's receive slab is full and a
	// delivery is in flight for each: all eight pumps are parked.
	full := func() bool {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, c := range held {
			c.mu.Lock()
			if c.inEnd-c.inOff == maxBuffered {
				n++
			}
			c.mu.Unlock()
		}
		return n == parked && bridge.Pending() == parked
	}
	for deadline := time.Now().Add(10 * time.Second); !full(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("deliveries never filled the held connections")
		}
	}

	dialer := &net.Dialer{Timeout: 2 * time.Second} // covers the handshake
	conn, err := tls.DialWithDialer(dialer, "tcp", term.Addr().String(), clientConfig(pki, true))
	if err != nil {
		t.Fatalf("handshake beside %d parked deliveries: %v", parked, err)
	}
	conn.Close()
}

// TestWriteDeadlineReachesSocket pins write deadlines over the enclave
// listener: a large write to a client that never reads fails with a
// timeout once the deadline passes, instead of pinning the writer
// until the client goes away.
func TestWriteDeadlineReachesSocket(t *testing.T) {
	pki := newTestPKI(t)
	type result struct {
		err     error
		elapsed time.Duration
	}
	done := make(chan result, 1)
	addr := serveFixture(t, pki, func(conn net.Conn) {
		if err := conn.(*tls.Conn).Handshake(); err != nil {
			done <- result{err: err}
			return
		}
		start := time.Now()
		if err := conn.SetWriteDeadline(start.Add(200 * time.Millisecond)); err != nil {
			done <- result{err: err}
			return
		}
		_, err := conn.Write(make([]byte, 64<<20))
		done <- result{err, time.Since(start)}
	})
	conn, err := tls.Dial("tcp", addr, clientConfig(pki, true))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	select {
	case r := <-done:
		var nerr net.Error
		if !errorsAs(r.err, &nerr) || !nerr.Timeout() {
			t.Fatalf("write to a client that never reads: want timeout, got %v", r.err)
		}
		if r.elapsed > 2*time.Second {
			t.Fatalf("write timed out after %v, want within 2s", r.elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write to a client that never reads still blocked 5s past its 200ms deadline")
	}
}

// TestWarmEchoAllocs pins the transport's steady-state allocations: a
// warmed 4 KiB echo round trip through terminator, bridge and endpoint,
// both TLS ends included. Records are copied through pooled slabs and
// reused buffers, so the round trip allocates nothing per record.
func TestWarmEchoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled slabs at random")
	}
	pki := newTestPKI(t)
	addr := serveFixture(t, pki, func(conn net.Conn) {
		buf := make([]byte, 4<<10)
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				return
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	})
	conn, err := tls.Dial("tcp", addr, clientConfig(pki, true))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg, reply := make([]byte, 4<<10), make([]byte, 4<<10)
	roundTrip := func() {
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, reply); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		roundTrip()
	}
	const budget = 2
	if n := testing.AllocsPerRun(200, roundTrip); n > budget {
		t.Fatalf("warm 4 KiB echo = %.0f allocs, budget %d", n, budget)
	}
}

func TestTrustedConnReadDeadline(t *testing.T) {
	conn := newTrustedConn(1, func(uint64, []byte, time.Time) error { return nil }, func(uint64) {})

	// An already-expired deadline fails immediately with a timeout.
	if err := conn.SetReadDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	_, err := conn.Read(buf)
	var nerr net.Error
	if !errorsAs(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want timeout error, got %v", err)
	}

	// A future deadline expires while blocked in Read, twice: the second
	// wait re-arms the connection's timer.
	for i := 0; i < 2; i++ {
		if err := conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err = conn.Read(buf)
		if !errorsAs(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("wait %d: want timeout error, got %v", i, err)
		}
		if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
			t.Fatalf("wait %d: read returned after %v, before the deadline", i, elapsed)
		}
	}

	// Clearing the deadline lets delivered data through.
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	go conn.deliver([]byte("data"))
	n, err := conn.Read(buf)
	if err != nil || n != 4 {
		t.Fatalf("Read after deliver: %d %v", n, err)
	}

	// EOF after drain.
	conn.deliverEOF()
	if _, err := conn.Read(buf); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestSetDeadlineSetsWriteSide pins that SetDeadline bounds writes too:
// the next write carries the deadline to the terminator.
func TestSetDeadlineSetsWriteSide(t *testing.T) {
	var got time.Time
	conn := newTrustedConn(1, func(_ uint64, _ []byte, deadline time.Time) error { got = deadline; return nil }, func(uint64) {})
	want := time.Now().Add(time.Hour)
	if err := conn.SetDeadline(want); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("write carried deadline %v, want %v", got, want)
	}
}

func errorsAs(err error, target *net.Error) bool {
	if err == nil {
		return false
	}
	ne, ok := err.(net.Error)
	if ok {
		*target = ne
	}
	return ok
}
