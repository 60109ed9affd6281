package enctls

import (
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"segshare/internal/enclave"
)

// Bridge operation names shared by the two halves. Every payload starts
// with the connection id (8 bytes, big endian); an opWrite payload then
// carries the write deadline (Unix nanoseconds, 0 for none) and the
// bytes. Payloads are reused once a call returns, so the data and write
// handlers copy what they keep before they return.
const (
	opOpen  = "enctls.open"  // ecall: new client connection
	opData  = "enctls.data"  // ecall: bytes from the network
	opEOF   = "enctls.eof"   // ecall: network read side finished
	opWrite = "enctls.write" // ocall: bytes to the network
	opClose = "enctls.close" // ocall: enclave closed the connection
)

const writeHeader = 16 // the id and deadline before an opWrite's bytes

// ErrEndpointClosed is returned by Accept after Close.
var ErrEndpointClosed = errors.New("enctls: endpoint closed")

// TrustedEndpoint is the enclave-resident half: it turns bridge traffic
// into net.Conns, wraps each in a TLS server connection using the
// enclave-held certificate, and exposes them through the net.Listener
// interface so the request handler (net/http) can serve on it directly.
//
// The TLS configuration always requires and verifies a client certificate
// against the configured CA pool, implementing the mutual authentication
// of paper §IV-A.
type TrustedEndpoint struct {
	bridge *enclave.Bridge

	mu       sync.Mutex
	tlsConf  *tls.Config
	conns    map[uint64]*trustedConn
	accept   chan net.Conn
	closed   bool
	closeErr chan struct{}
}

var _ net.Listener = (*TrustedEndpoint)(nil)

// NewTrustedEndpoint registers the trusted half on the bridge. tlsConf
// must carry the server certificate and the client CA pool; it is
// hardened here (min TLS 1.2, client certs required).
func NewTrustedEndpoint(bridge *enclave.Bridge, tlsConf *tls.Config) *TrustedEndpoint {
	conf := tlsConf.Clone()
	if conf.MinVersion == 0 {
		conf.MinVersion = tls.VersionTLS12
	}
	conf.ClientAuth = tls.RequireAndVerifyClientCert
	e := &TrustedEndpoint{
		bridge:   bridge,
		tlsConf:  conf,
		conns:    make(map[uint64]*trustedConn),
		accept:   make(chan net.Conn),
		closeErr: make(chan struct{}),
	}
	bridge.RegisterECall(opOpen, e.handleOpen)
	bridge.RegisterECall(opData, e.handleData)
	bridge.RegisterECall(opEOF, e.handleEOF)
	return e
}

// SetCertificate replaces the server certificate, used when the CA rolls
// the enclave's certificate at runtime (paper §IV-A).
func (e *TrustedEndpoint) SetCertificate(cert tls.Certificate) {
	e.mu.Lock()
	defer e.mu.Unlock()
	conf := e.tlsConf.Clone()
	conf.Certificates = []tls.Certificate{cert}
	e.tlsConf = conf
}

func splitID(payload []byte) (uint64, []byte, error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("enctls: short bridge payload")
	}
	return binary.BigEndian.Uint64(payload), payload[8:], nil
}

func (e *TrustedEndpoint) handleOpen(payload []byte) ([]byte, error) {
	id, _, err := splitID(payload)
	if err != nil {
		return nil, err
	}
	conn := newTrustedConn(id, e.writeOut, e.closeOut)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEndpointClosed
	}
	e.conns[id] = conn
	tlsConf := e.tlsConf
	e.mu.Unlock()

	tlsConn := tls.Server(conn, tlsConf)
	select {
	case e.accept <- tlsConn:
		return nil, nil
	case <-e.closeErr:
		return nil, ErrEndpointClosed
	}
}

func (e *TrustedEndpoint) handleData(payload []byte) ([]byte, error) {
	id, data, err := splitID(payload)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	conn := e.conns[id]
	e.mu.Unlock()
	if conn == nil {
		return nil, fmt.Errorf("enctls: data for unknown connection %d", id)
	}
	return nil, conn.deliver(data)
}

func (e *TrustedEndpoint) handleEOF(payload []byte) ([]byte, error) {
	id, _, err := splitID(payload)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	conn := e.conns[id]
	e.mu.Unlock()
	if conn != nil {
		conn.deliverEOF()
	}
	return nil, nil
}

// writeOut relays p to the socket through a pooled send slab, one ocall
// per slab-full; a record always fits in one.
func (e *TrustedEndpoint) writeOut(id uint64, p []byte, deadline time.Time) error {
	s := slabs.Get().(*slab)
	defer slabs.Put(s)
	var dl int64
	if !deadline.IsZero() {
		dl = deadline.UnixNano()
	}
	binary.BigEndian.PutUint64(s[:], id)
	binary.BigEndian.PutUint64(s[8:], uint64(dl))
	for len(p) > 0 {
		n := copy(s[writeHeader:], p)
		if _, err := e.bridge.OCall(opWrite, s[:writeHeader+n]); err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

func (e *TrustedEndpoint) closeOut(id uint64) {
	e.mu.Lock()
	delete(e.conns, id)
	e.mu.Unlock()
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], id)
	// Best effort: the terminator may already be gone.
	_, _ = e.bridge.OCall(opClose, payload[:])
}

// Accept implements net.Listener. The returned conns are *tls.Conn with
// mutual authentication; the handshake runs lazily on first read/write.
func (e *TrustedEndpoint) Accept() (net.Conn, error) {
	select {
	case conn := <-e.accept:
		return conn, nil
	case <-e.closeErr:
		return nil, ErrEndpointClosed
	}
}

// Close implements net.Listener.
func (e *TrustedEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := make([]*trustedConn, 0, len(e.conns))
	for _, c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()
	close(e.closeErr)
	for _, c := range conns {
		c.Close()
	}
	return nil
}

// Addr implements net.Listener.
func (e *TrustedEndpoint) Addr() net.Addr { return bridgeAddr{} }
