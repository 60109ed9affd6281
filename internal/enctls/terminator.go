package enctls

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"segshare/internal/enclave"
)

// UntrustedTerminator is the host-process half: it owns the TCP listener
// (the enclave cannot perform I/O), forwards inbound bytes to the trusted
// endpoint through ECalls, and relays the enclave's OCall writes back to
// the sockets. It never sees plaintext — everything it shuttles is TLS
// record data.
type UntrustedTerminator struct {
	bridge   *enclave.Bridge
	listener net.Listener

	nextID atomic.Uint64
	mu     sync.Mutex
	conns  map[uint64]*hostConn
	closed bool
	wg     sync.WaitGroup
}

// hostConn is an accepted socket and its write deadline (Unix ns, 0: none).
type hostConn struct {
	net.Conn
	deadline atomic.Int64
}

// NewUntrustedTerminator wires the untrusted half onto the bridge and
// starts accepting on listener. Call Close to stop.
func NewUntrustedTerminator(bridge *enclave.Bridge, listener net.Listener) *UntrustedTerminator {
	t := &UntrustedTerminator{
		bridge:   bridge,
		listener: listener,
		conns:    make(map[uint64]*hostConn),
	}
	bridge.RegisterOCall(opWrite, t.handleWrite)
	bridge.RegisterOCall(opClose, t.handleClose)
	t.wg.Add(1)
	go t.acceptLoop()
	return t
}

// Addr returns the TCP address clients connect to.
func (t *UntrustedTerminator) Addr() net.Addr { return t.listener.Addr() }

func (t *UntrustedTerminator) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		id := t.nextID.Add(1)
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[id] = &hostConn{Conn: conn}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serveConn(id, conn)
	}
}

func (t *UntrustedTerminator) serveConn(id uint64, conn net.Conn) {
	defer t.wg.Done()
	defer t.dropConn(id, conn)

	// One id‖data buffer for the connection's life (opData copies it).
	buf := make([]byte, 8+32*1024)
	binary.BigEndian.PutUint64(buf, id)
	if _, err := t.bridge.ECall(opOpen, buf[:8]); err != nil {
		return
	}
	for {
		n, err := conn.Read(buf[8:])
		if n > 0 {
			if _, err := t.bridge.ECall(opData, buf[:8+n]); err != nil {
				return
			}
		}
		if err != nil {
			_, _ = t.bridge.ECall(opEOF, buf[:8])
			return
		}
	}
}

func (t *UntrustedTerminator) dropConn(id uint64, conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, id)
	t.mu.Unlock()
	conn.Close()
}

func (t *UntrustedTerminator) handleWrite(payload []byte) ([]byte, error) {
	if len(payload) < writeHeader {
		return nil, fmt.Errorf("enctls: short write payload")
	}
	id := binary.BigEndian.Uint64(payload)
	t.mu.Lock()
	conn := t.conns[id]
	t.mu.Unlock()
	if conn == nil {
		return nil, fmt.Errorf("enctls: write to unknown connection %d", id)
	}
	if dl := int64(binary.BigEndian.Uint64(payload[8:])); conn.deadline.Swap(dl) != dl {
		var deadline time.Time
		if dl != 0 {
			deadline = time.Unix(0, dl)
		}
		if err := conn.SetWriteDeadline(deadline); err != nil {
			return nil, err
		}
	}
	// The socket's error goes back as is: a missed deadline stays a
	// net.Error whose Timeout reports true.
	_, err := conn.Write(payload[writeHeader:])
	return nil, err
}

func (t *UntrustedTerminator) handleClose(payload []byte) ([]byte, error) {
	id, _, err := splitID(payload)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	conn := t.conns[id]
	delete(t.conns, id)
	t.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	return nil, nil
}

// Close stops accepting, closes all sockets, and waits for the pump
// goroutines to exit.
func (t *UntrustedTerminator) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]*hostConn, 0, len(t.conns))
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	err := t.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
