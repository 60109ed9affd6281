package main

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"segshare"
	"segshare/internal/journal"
)

// span is one traced interval. Spans of one request share Req (the id of
// the request's root span); Parent is 0 for roots and for background
// work that belongs to no request (the audit writer).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the payload size of a store span; 0 elsewhere.
	Bytes int `json:"bytes,omitempty"`
}

// tracer records spans in memory from the benchmark's own wrappers at the
// boundaries the public configuration exposes. It assumes one client: the
// store events between a root's start and end belong to that root. When
// disabled the wrappers cost one atomic load.
type tracer struct {
	enabled atomic.Bool
	epoch   time.Time
	nextID  atomic.Uint64
	current atomic.Uint64 // id of the root span in flight, 0 between requests

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// root runs fn as one request's root span.
func (t *tracer) root(layer, name string, fn func() error) error {
	if t == nil || !t.enabled.Load() {
		return fn()
	}
	id := t.nextID.Add(1)
	t.current.Store(id)
	start := t.now()
	err := fn()
	end := t.now()
	t.current.Store(0)
	t.add(span{ID: id, Req: id, Layer: layer, Name: name, Start: start, End: end})
	return err
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// tracedBackend is the Backend wrapper handed to the server as its
// content/group/dedup/audit store. It always counts bytes and calls; it
// records spans only while the tracer is enabled.
type tracedBackend struct {
	inner segshare.Backend
	role  string
	t     *tracer

	ops, bytesWritten, bytesRead atomic.Int64
	journalBytes                 atomic.Int64 // bytes written under journal.ObjectPrefix
}

func newTracedBackend(inner segshare.Backend, role string, t *tracer) *tracedBackend {
	return &tracedBackend{inner: inner, role: role, t: t}
}

func (b *tracedBackend) observe(op, name string, bytes int, fn func()) {
	b.ops.Add(1)
	if !b.t.enabled.Load() {
		fn()
		return
	}
	layer := "store"
	switch {
	case strings.HasPrefix(name, journal.ObjectPrefix):
		layer = "journal"
	case b.role == "audit":
		layer = "audit"
	}
	parent := b.t.current.Load()
	if b.role == "audit" {
		parent = 0 // the audit writer runs behind the request, not inside it
	}
	start := b.t.now()
	fn()
	b.t.add(span{
		ID: b.t.nextID.Add(1), Parent: parent, Req: parent,
		Layer: layer, Name: b.role + "." + op,
		Start: start, End: b.t.now(), Bytes: bytes,
	})
}

func (b *tracedBackend) Put(name string, data []byte) (err error) {
	b.bytesWritten.Add(int64(len(data)))
	if strings.HasPrefix(name, journal.ObjectPrefix) {
		b.journalBytes.Add(int64(len(data)))
	}
	b.observe("put", name, len(data), func() { err = b.inner.Put(name, data) })
	return err
}

func (b *tracedBackend) Get(name string) (data []byte, err error) {
	b.observe("get", name, 0, func() { data, err = b.inner.Get(name) })
	b.bytesRead.Add(int64(len(data)))
	return data, err
}

func (b *tracedBackend) Delete(name string) (err error) {
	b.observe("delete", name, 0, func() { err = b.inner.Delete(name) })
	return err
}

func (b *tracedBackend) Rename(oldName, newName string) (err error) {
	b.observe("rename", oldName, 0, func() { err = b.inner.Rename(oldName, newName) })
	return err
}

func (b *tracedBackend) Exists(name string) (ok bool, err error) {
	b.observe("exists", name, 0, func() { ok, err = b.inner.Exists(name) })
	return ok, err
}

func (b *tracedBackend) List() (names []string, err error) {
	b.observe("list", "", 0, func() { names, err = b.inner.List() })
	return names, err
}

func (b *tracedBackend) TotalBytes() (int64, error) { return b.inner.TotalBytes() }

// wireCounter counts bytes and TLS records crossing the server's TCP
// listener, both directions summed.
type wireCounter struct {
	bytes, records atomic.Int64
}

type countingListener struct {
	net.Listener
	w *wireCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, w: l.w}, nil
}

// countingConn follows the TLS record framing (5-byte header: type,
// version, length) of each direction to count records without decrypting.
// Read and Write each run on one goroutine at a time per connection, so
// the two scanners need no lock.
type countingConn struct {
	net.Conn
	w      *wireCounter
	rd, wr recordScanner
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.bytes.Add(int64(n))
	c.w.records.Add(c.rd.scan(p[:n]))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.bytes.Add(int64(n))
	c.w.records.Add(c.wr.scan(p[:n]))
	return n, err
}

// recordScanner walks a TLS byte stream and counts record headers.
type recordScanner struct {
	hdr     [5]byte
	hdrLen  int
	payload int // bytes of the current record still to skip
}

func (s *recordScanner) scan(p []byte) (records int64) {
	for len(p) > 0 {
		if s.payload > 0 {
			n := min(s.payload, len(p))
			s.payload -= n
			p = p[n:]
			continue
		}
		n := copy(s.hdr[s.hdrLen:], p)
		s.hdrLen += n
		p = p[n:]
		if s.hdrLen == len(s.hdr) {
			s.payload = int(s.hdr[3])<<8 | int(s.hdr[4])
			s.hdrLen = 0
			records++
		}
	}
	return records
}
