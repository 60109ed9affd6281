// Package enctls implements SeGShare's split TLS interface (paper §IV-B,
// §VI): the *untrusted* TLS interface terminates the TCP connection
// (enclaves cannot perform I/O) and forwards raw records across the
// switchless call bridge; the *trusted* TLS interface inside the enclave
// performs the handshake with the enclave-held server certificate,
// requires and verifies client certificates against the hard-coded CA,
// and is the true endpoint of the secure channel.
//
// Concretely: an UntrustedTerminator accepts TCP connections and pumps
// bytes through bridge calls; a TrustedEndpoint exposes those byte
// streams as net.Conns inside the enclave, wraps them in crypto/tls
// server connections, and hands them to the request handler via a
// net.Listener interface, so net/http can serve directly on top.
package enctls

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// errConnClosed is returned from conn operations after Close.
var errConnClosed = errors.New("enctls: connection closed")

// maxBuffered is the size of the slabs records are copied through. A
// connection's receive slab bounds the bytes delivered but not yet read:
// a delivery that finds it full blocks until the handler drains it,
// which backpressures the TCP reader (the enclave keeps only a small,
// constant buffer per connection — paper §VI). A send slab carries one
// write ocall. Slabs come from a shared pool and go back when they
// drain, so an idle connection holds none.
const maxBuffered = 64 << 10

type slab = [maxBuffered]byte

var slabs = sync.Pool{New: func() any { return new(slab) }}

// bridgeAddr is the synthetic address of in-enclave connection endpoints.
type bridgeAddr struct{ id uint64 }

func (bridgeAddr) Network() string  { return "enclave-bridge" }
func (a bridgeAddr) String() string { return "bridge-conn" }

// trustedConn is the in-enclave side of one client connection: Read pulls
// bytes delivered by ECalls from the terminator; Write issues OCalls that
// the terminator relays to the TCP socket.
type trustedConn struct {
	id    uint64
	write func(id uint64, p []byte, deadline time.Time) error
	close func(id uint64)

	// ecalls counts enclave entries on this connection (data and EOF
	// deliveries from the terminator); ocalls counts enclave exits
	// (writes and the close relay). The core handler reads deltas of
	// these around each request to attribute boundary crossings to it.
	ecalls atomic.Int64
	ocalls atomic.Int64

	mu            sync.Mutex
	cond          *sync.Cond
	in            *slab // receive slab, nil while empty
	inOff, inEnd  int   // in[inOff:inEnd] is delivered and unread
	eof           bool
	closed        bool
	readDeadline  time.Time
	writeDeadline time.Time
	timer         *time.Timer // wakes a Read blocked until readDeadline
}

var _ net.Conn = (*trustedConn)(nil)

func newTrustedConn(id uint64, write func(uint64, []byte, time.Time) error, closeFn func(uint64)) *trustedConn {
	c := &trustedConn{id: id, write: write, close: closeFn}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// deliver copies bytes received from the untrusted side into the receive
// slab, blocking while it is full (backpressure on the TCP reader).
func (c *trustedConn) deliver(p []byte) error {
	c.ecalls.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return errConnClosed
		}
		if c.in == nil {
			c.in = slabs.Get().(*slab)
		}
		if c.inOff > 0 && len(p) > len(c.in)-c.inEnd {
			c.inEnd = copy(c.in[:], c.in[c.inOff:c.inEnd])
			c.inOff = 0
		}
		n := copy(c.in[c.inEnd:], p)
		c.inEnd += n
		p = p[n:]
		c.cond.Broadcast()
		if len(p) == 0 {
			return nil
		}
		c.cond.Wait()
	}
}

// deliverEOF marks the untrusted side's read loop as finished.
func (c *trustedConn) deliverEOF() {
	c.ecalls.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.eof = true
	c.cond.Broadcast()
}

// Read implements net.Conn.
func (c *trustedConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return 0, errConnClosed
		}
		if c.inEnd > c.inOff {
			n := copy(p, c.in[c.inOff:c.inEnd])
			c.inOff += n
			if c.inOff == c.inEnd {
				slabs.Put(c.in)
				c.in, c.inOff, c.inEnd = nil, 0, 0
			}
			c.cond.Broadcast()
			return n, nil
		}
		if c.eof {
			return 0, io.EOF
		}
		if dl := c.readDeadline; !dl.IsZero() {
			d := time.Until(dl)
			if d <= 0 {
				return 0, timeoutError{}
			}
			// Wake up at the deadline so the wait is bounded.
			if c.timer == nil {
				c.timer = time.AfterFunc(d, c.cond.Broadcast)
			} else {
				c.timer.Reset(d)
			}
			c.cond.Wait()
			c.timer.Stop()
			continue
		}
		c.cond.Wait()
	}
}

// Write implements net.Conn. The write deadline travels with the bytes;
// one set while a write is blocked applies from the next write.
func (c *trustedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	closed, deadline := c.closed, c.writeDeadline
	c.mu.Unlock()
	if closed {
		return 0, errConnClosed
	}
	c.ocalls.Add(1)
	if err := c.write(c.id, p, deadline); err != nil {
		return 0, err
	}
	return len(p), nil
}

// BridgeCallCounts returns the cumulative enclave boundary crossings on
// this connection: ecalls (deliveries in) and ocalls (writes and close
// out). The core handler snapshots these around a request to attribute
// crossings per request.
func (c *trustedConn) BridgeCallCounts() (ecalls, ocalls int64) {
	return c.ecalls.Load(), c.ocalls.Load()
}

// Close implements net.Conn.
func (c *trustedConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.ocalls.Add(1)
	c.close(c.id)
	return nil
}

// LocalAddr implements net.Conn.
func (c *trustedConn) LocalAddr() net.Addr { return bridgeAddr{id: c.id} }

// RemoteAddr implements net.Conn.
func (c *trustedConn) RemoteAddr() net.Addr { return bridgeAddr{id: c.id} }

// SetDeadline implements net.Conn.
func (c *trustedConn) SetDeadline(t time.Time) error {
	_ = c.SetWriteDeadline(t) // cannot fail
	return c.SetReadDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *trustedConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readDeadline = t
	c.cond.Broadcast()
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *trustedConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writeDeadline = t
	return nil
}

type timeoutError struct{}

func (timeoutError) Error() string   { return "enctls: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }
