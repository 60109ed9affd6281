package audit

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"segshare/internal/enclave"
	"segshare/internal/obs"
	"segshare/internal/pae"
	"segshare/internal/store"
)

// Overflow selects what Emit does when the bounded queue is full. The
// trade-off is availability vs completeness: dropping keeps the request
// path wait-free under burst (drops are counted and visible in the
// metrics), blocking guarantees a complete trail at the cost of request
// latency coupling to audit-store throughput.
type Overflow int

const (
	// OverflowDrop discards the event and increments
	// segshare_audit_dropped_total. The default.
	OverflowDrop Overflow = iota
	// OverflowBlock blocks the emitter until the queue has room.
	OverflowBlock
)

// Default writer parameters.
const (
	DefaultSegmentEntries  = 256
	DefaultCheckpointEvery = 64
	DefaultBuffer          = 1024
)

// Options tunes the audit writer. The zero value selects the defaults.
type Options struct {
	// SegmentEntries is the number of frames per segment object before
	// the writer rolls to a new one.
	SegmentEntries int
	// CheckpointEvery is the number of records between checkpoints. Each
	// checkpoint costs one monotonic-counter increment, so this knob
	// trades truncation-detection granularity against counter wear
	// (paper §V-E).
	CheckpointEvery int
	// Buffer is the emit queue capacity.
	Buffer int
	// Overflow selects the full-queue policy.
	Overflow Overflow
	// Obs is the metric registry; nil means obs.Default().
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SegmentEntries <= 0 {
		o.SegmentEntries = DefaultSegmentEntries
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	if o.Buffer <= 0 {
		o.Buffer = DefaultBuffer
	}
	if o.Obs == nil {
		o.Obs = obs.Default()
	}
	return o
}

// Log is the append-only audit writer. Emit is safe for concurrent use
// and never does store I/O itself: a single background goroutine drains
// the queue, extends the chain, and persists segments, so the request
// path pays one channel send per audited event.
type Log struct {
	backend store.Backend
	keys    Keys
	rec     *pae.Cipher // seals records under keys.Enc
	counter *enclave.MonotonicCounter
	opt     Options

	recCh  chan Record
	syncCh chan chan error
	quit   chan struct{}
	done   chan struct{}

	closeOnce sync.Once

	// mu guards the chain state below; the loop goroutine writes it,
	// Head() reads it.
	mu          sync.Mutex
	seq         uint64
	head        [sha256.Size]byte
	checkpoints uint64
	lastCounter uint64
	segIdx      int
	segBuf      []byte
	segEntries  int
	sinceCkpt   int
	dirty       bool
	// uncounted marks a checkpoint whose counter increment waits for
	// the segment carrying it to be stored.
	uncounted bool
	lastErr   error

	reg        *obs.Registry
	dropped    *obs.Counter
	bytesTotal *obs.Counter
	ckptTotal  *obs.Counter
	errsTotal  *obs.Counter
	fsyncNS    *obs.Histogram
}

// Open resumes (or starts) the audit log stored in b. Existing segments
// are structurally verified — framing, chain, checkpoint MACs — and, when
// counter is non-nil, the final checkpoint must carry the enclave
// counter's current value or the one after it. One ahead is a crash
// between a checkpoint's store write and its increment (checkpointLocked
// writes ahead), and Open catches the counter up. A stored log that
// trails the counter was rolled back or truncated while the enclave was
// down, and Open fails with ErrLogRollback. counter may be nil (e.g. in
// benchmarks), which keeps the chain but loses the hardware truncation
// binding.
func Open(b store.Backend, keys Keys, counter *enclave.MonotonicCounter, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	rc, err := pae.NewCipher(keys.Enc)
	if err != nil {
		return nil, err
	}
	st, err := walk(b, keys.MAC, nil)
	if err != nil {
		return nil, err
	}
	if counter != nil {
		cv := counter.Value()
		if st.lastCounter != cv && st.lastCounter != cv+1 {
			return nil, fmt.Errorf("%w: last checkpoint counter %d, enclave counter %d",
				ErrLogRollback, st.lastCounter, cv)
		}
		if st.lastCounter != cv {
			if _, err := counter.Increment(); err != nil {
				return nil, fmt.Errorf("audit: catch up checkpoint counter: %w", err)
			}
		}
	}
	l := &Log{
		backend:     b,
		keys:        keys,
		rec:         rc,
		counter:     counter,
		opt:         opt,
		recCh:       make(chan Record, opt.Buffer),
		syncCh:      make(chan chan error),
		quit:        make(chan struct{}),
		done:        make(chan struct{}),
		seq:         st.seq,
		head:        st.head,
		checkpoints: st.checkpoints,
		lastCounter: st.lastCounter,
		segIdx:      st.segments + 1, // always append into a fresh segment
		reg:         opt.Obs,
		dropped:     opt.Obs.Counter("segshare_audit_dropped_total", "Audit events dropped by the overflow policy.", nil),
		bytesTotal:  opt.Obs.Counter("segshare_audit_bytes_total", "Encrypted audit bytes appended.", nil),
		ckptTotal:   opt.Obs.Counter("segshare_audit_checkpoints_total", "Audit checkpoints written (one counter increment each).", nil),
		errsTotal:   opt.Obs.Counter("segshare_audit_errors_total", "Audit append/flush failures.", nil),
		fsyncNS:     opt.Obs.Histogram("segshare_audit_fsync_ns", "Audit segment persist latency (ns).", nil),
	}
	go l.loop()
	return l, nil
}

// Emit queues one event. Under OverflowDrop a full queue drops the event
// (counted); under OverflowBlock the caller waits for room. Events
// emitted concurrently with Close may be discarded.
func (l *Log) Emit(ev Event) {
	rec := Record{
		TimeNanos: time.Now().UnixNano(),
		Event:     ev.Event,
		Decision:  ev.Decision,
		Op:        ev.Op,
		RequestID: ev.RequestID,
		User:      ev.User,
		Target:    ev.Target,
		Group:     ev.Group,
		Path:      ev.Path,
		Detail:    ev.Detail,
	}
	if l.opt.Overflow == OverflowBlock {
		select {
		case l.recCh <- rec:
		case <-l.quit:
		}
		return
	}
	select {
	case l.recCh <- rec:
	default:
		l.dropped.Inc()
	}
}

// Flush blocks until every event queued before the call is persisted and
// returns the first error seen since the previous Flush.
func (l *Log) Flush() error {
	ack := make(chan error, 1)
	select {
	case l.syncCh <- ack:
		return <-ack
	case <-l.done:
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.lastErr
	}
}

// Close drains the queue, writes a final checkpoint, persists the tail
// segment, and stops the writer.
func (l *Log) Close() error {
	l.closeOnce.Do(func() { close(l.quit) })
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastErr
}

// Head is the public, leak-budget-safe summary of the log: counts, the
// chain head (a digest over ciphertext the host already stores), and the
// checkpoint counter. No principals, paths, or record contents.
type Head struct {
	Records     uint64 `json:"records"`
	Checkpoints uint64 `json:"checkpoints"`
	Counter     uint64 `json:"counter"`
	ChainHead   string `json:"chainHead"`
}

// Head returns the current chain head state.
func (l *Log) Head() Head {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Head{
		Records:     l.seq,
		Checkpoints: l.checkpoints,
		Counter:     l.lastCounter,
		ChainHead:   hex.EncodeToString(l.head[:]),
	}
}

// Drops returns the number of events discarded by the overflow policy.
func (l *Log) Drops() uint64 { return l.dropped.Value() }

// Backlog returns how many emitted events are queued but not yet
// persisted, and the queue capacity. The stall watchdog compares the two
// to detect a wedged or lagging writer.
func (l *Log) Backlog() (queued, capacity int) {
	return len(l.recCh), cap(l.recCh)
}

// --- writer goroutine --------------------------------------------------

func (l *Log) loop() {
	defer close(l.done)
	for {
		select {
		case rec := <-l.recCh:
			l.append(rec)
			l.drain()
			l.flush()
		case ack := <-l.syncCh:
			l.drain()
			l.flush()
			l.mu.Lock()
			err := l.lastErr
			l.lastErr = nil
			l.mu.Unlock()
			ack <- err
		case <-l.quit:
			l.drain()
			l.finalCheckpoint()
			l.flush()
			return
		}
	}
}

// drain consumes every queued record without blocking.
func (l *Log) drain() {
	for {
		select {
		case rec := <-l.recCh:
			l.append(rec)
		default:
			return
		}
	}
}

// append seals one record onto the chain and schedules checkpoints and
// segment rolls.
func (l *Log) append(rec Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.Seq = l.seq + 1
	payload, err := sealRecord(l.rec, rec)
	if err != nil {
		l.errsTotal.Inc()
		l.lastErr = err
		return
	}
	l.seq = rec.Seq
	l.appendFrameLocked(kindRecord, rec.Seq, payload)
	l.reg.Counter("segshare_audit_records_total", "Audit records written, by event type.",
		obs.Labels{"event": string(rec.Event)}).Inc()
	l.sinceCkpt++
	if l.sinceCkpt >= l.opt.CheckpointEvery {
		l.checkpointLocked()
	}
	l.rollIfFullLocked()
}

// appendFrameLocked frames a payload, extends the chain, and grows the
// current segment buffer.
func (l *Log) appendFrameLocked(kind byte, seq uint64, payload []byte) {
	l.segBuf = encodeFrame(l.segBuf, kind, seq, payload)
	l.head = chainNext(l.head, kind, seq, payload)
	l.segEntries++
	l.dirty = true
	l.bytesTotal.Add(uint64(frameHeaderLen + len(payload)))
}

// checkpointLocked binds the current chain head to the next monotonic
// counter value and appends the sealed checkpoint frame. It writes
// ahead: the segment carrying the checkpoint is stored first and the
// counter incremented after, so a crash or store failure between the two
// leaves the stored log one step ahead of the counter (Open catches up),
// never behind it. While one checkpoint waits to be counted no second
// one is written, so the log is never two steps ahead; the records keep
// accumulating and the next append retries.
func (l *Log) checkpointLocked() {
	if l.uncounted {
		l.persistLocked()
		if l.uncounted {
			return
		}
	}
	next := l.lastCounter + 1
	c := checkpoint{seq: l.seq, counter: next, head: l.head}
	l.appendFrameLocked(kindCheckpoint, l.seq, encodeCheckpoint(l.keys.MAC, c))
	l.lastCounter = next
	l.checkpoints++
	l.sinceCkpt = 0
	l.ckptTotal.Inc()
	if l.counter != nil {
		l.uncounted = true
		l.persistLocked()
	}
}

// finalCheckpoint seals the tail on shutdown so a subsequent truncation
// of the last partial batch is detectable.
func (l *Log) finalCheckpoint() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sinceCkpt > 0 {
		l.checkpointLocked()
	}
}

// rollIfFullLocked starts a new segment once the current one is full and
// stored, so rolled segments are never dirty. A full segment whose store
// write fails keeps growing until a write succeeds: rolling past it
// would leave a gap in the entry sequence that no later Open accepts.
func (l *Log) rollIfFullLocked() {
	if l.segEntries < l.opt.SegmentEntries {
		return
	}
	l.persistLocked()
	if l.dirty {
		return
	}
	l.segIdx++
	l.segBuf = nil
	l.segEntries = 0
}

// flush persists the current segment if it has unwritten frames.
func (l *Log) flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.persistLocked()
}

// persistLocked stores the current segment if it has unwritten frames,
// then counts a checkpoint that was waiting for that write.
func (l *Log) persistLocked() {
	if l.dirty {
		t := obs.StartTimer(l.fsyncNS)
		err := l.backend.Put(segmentName(l.segIdx), l.segBuf)
		t.Stop()
		if err != nil {
			l.errsTotal.Inc()
			l.lastErr = fmt.Errorf("audit: persist segment %d: %w", l.segIdx, err)
			return
		}
		l.dirty = false
	}
	if l.uncounted {
		v, err := l.counter.Increment()
		switch {
		case err != nil:
			l.errsTotal.Inc()
			l.lastErr = fmt.Errorf("audit: checkpoint counter: %w", err)
			return // the next persist retries the increment
		case v != l.lastCounter:
			l.errsTotal.Inc()
			l.lastErr = fmt.Errorf("audit: checkpoint counter incremented to %d, stored checkpoint carries %d", v, l.lastCounter)
		}
		l.uncounted = false
	}
}
