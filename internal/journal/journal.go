// Package journal implements a sealed write-ahead intent journal that
// makes the file manager's multi-blob mutations atomic-on-recovery.
//
// Every SeGShare mutation is really a small transaction against the
// untrusted stores — content + ACL + parent directory file + rollback
// tree headers — but the backends only offer single-object puts. A fault
// or crash between those puts leaves a state the enclave itself later
// rejects as an integrity violation (paper §IV-C/§V-F assume the trusted
// proxy applies updates atomically, and §V-G's backup story presumes a
// consistent store to copy). The journal closes that window: the file
// manager seals the full intent (every blob to write or delete) into one
// journal object, commits it, applies the writes, and finally marks the
// intent applied. Recovery re-applies any intent that committed but was
// not marked applied; an intent that never finished committing is
// discarded, which rolls the operation back.
//
// Journal records are ordinary objects in a store.Backend, named
// "!journal:<seq>" next to the enclave's other reserved objects. The file
// manager seals every blob once, for its final name, before it commits;
// a record (see record.go) is a sealed header followed by those blobs,
// authenticated by the header's tag instead of encrypted a second time.
// Headers are hash-chained (like internal/audit) and numbered by an
// enclave monotonic counter, so a truncated journal is detected: the
// newest surviving record must sit within one step of the counter (the
// one-step slack is the legitimate crash window between the counter
// increment and the record write).
package journal

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"segshare/internal/obs"
	"segshare/internal/pae"
	"segshare/internal/store"
)

// ObjectPrefix is the reserved name prefix of journal records in the
// untrusted store.
const ObjectPrefix = "!journal:"

// ErrCorrupt reports a journal that fails integrity verification:
// undecryptable non-tail records, sequence gaps, broken hash chains, or
// truncation beyond the legitimate crash window. A corrupt journal is
// evidence of host tampering; recovery refuses to proceed.
var ErrCorrupt = errors.New("journal: corrupt")

// ErrClosed reports a commit attempted after the journal was closed by
// the graceful-drain path. Mutations racing a shutdown fail cleanly
// instead of writing intents nobody will apply.
var ErrClosed = errors.New("journal: closed")

// Counter is the enclave monotonic counter the journal binds sequence
// numbers to (satisfied by *enclave.MonotonicCounter).
type Counter interface {
	Increment() (uint64, error)
	Value() uint64
}

// Keys holds the journal sealing key derived from the root key SK_r.
type Keys struct {
	enc pae.Key
}

// DeriveKeys derives the journal keys from the root key (domain-separated
// from every other SK_r use).
func DeriveKeys(rootKey []byte) (Keys, error) {
	k, err := pae.DeriveKey(rootKey, "journal/record", nil)
	if err != nil {
		return Keys{}, err
	}
	return Keys{enc: k}, nil
}

// Write is one blob write inside an intent. Body is the object's final
// sealed bytes: the applier and recovery install it verbatim, so a replay
// is byte-identical and idempotent.
type Write struct {
	// Store names the namespace the write belongs to ("content"/"group").
	Store string
	// Name is the logical (pre-hiding) object name.
	Name string
	// Body is the sealed blob — or, with NeedsToken, plaintext.
	Body []byte
	// NeedsToken marks a namespace-root write, the one kind whose bytes
	// are not final at commit: its guard token is assigned at apply time
	// (a fresh guard commit per apply keeps replays valid). Body is then
	// the plaintext encoded rollback header ‖ body; it travels inside the
	// sealed record header and the applier seals it.
	NeedsToken bool
}

// Delete is one blob deletion inside an intent. Deletions apply after all
// writes and tolerate already-absent objects, so replays are idempotent.
type Delete struct {
	Store string
	Name  string
}

// Intent is one logical operation's journal record.
type Intent struct {
	Seq uint64
	// Op is the operation class (same closed set as the request metrics);
	// it is sealed with the rest of the record header.
	Op string
	// Prev is the SHA-256 of the predecessor record's sealed header.
	Prev    []byte
	Writes  []Write
	Deletes []Delete
}

// Options tunes a Journal.
type Options struct {
	// Obs is the metric registry; nil means obs.Default().
	Obs *obs.Registry
	// OnScan, when set, is called during Recover with the number of
	// records verified so far — a progress heartbeat the recovery-overrun
	// watchdog check and the /readyz reason use. It runs with the journal
	// lock held: keep it to a counter store.
	OnScan func(verified int)
}

// RecoverySet is the outcome of scanning the journal at startup:
// committed-but-unapplied intents in sequence order, plus the number of
// torn tail records discarded (commits that crashed before completing).
type RecoverySet struct {
	Pending   []*Intent
	Discarded int
}

// Journal is the intent journal. It is safe for concurrent use, though
// the file manager serializes mutations anyway.
type Journal struct {
	mu       sync.Mutex
	backend  store.Backend
	aead     *pae.Cipher
	ctr      Counter
	lastHash [sha256.Size]byte
	pending  int
	closed   bool
	onScan   func(verified int)

	commits     *obs.Counter
	commitBytes *obs.Counter
	replayed    *obs.Counter
	discardedC  *obs.Counter
	pendingG    *obs.Gauge
	commitNs    *obs.Histogram
}

func objectName(seq uint64) string {
	return fmt.Sprintf("%s%016x", ObjectPrefix, seq)
}

// Open attaches a journal to the backend. It does not recover pending
// intents — callers run Recover and re-apply what it returns before
// serving requests.
func Open(backend store.Backend, keys Keys, ctr Counter, opts Options) (*Journal, error) {
	reg := opts.Obs
	if reg == nil {
		reg = obs.Default()
	}
	aead, err := pae.NewCipher(keys.enc)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		backend:     backend,
		aead:        aead,
		ctr:         ctr,
		onScan:      opts.OnScan,
		commits:     reg.Counter("segshare_journal_commits_total", "Intent records committed to the write-ahead journal.", nil),
		commitBytes: reg.Counter("segshare_journal_commit_bytes_total", "Sealed journal record bytes written.", nil),
		replayed:    reg.Counter("segshare_journal_replayed_total", "Intents re-applied by the recovery pass.", nil),
		discardedC:  reg.Counter("segshare_journal_discarded_total", "Torn tail records discarded by the recovery pass.", nil),
		pendingG:    reg.Gauge("segshare_journal_pending", "Committed intents not yet marked applied.", nil),
		commitNs:    reg.Histogram("segshare_journal_commit_ns", "Journal commit latency (seal + store put, ns).", nil),
	}
	seqs, err := j.scan()
	if err != nil {
		return nil, err
	}
	if len(seqs) > 0 {
		raw, err := backend.Get(objectName(seqs[len(seqs)-1]))
		if err != nil {
			return nil, fmt.Errorf("journal: read head: %w", err)
		}
		// An unreadable head hashes as empty; Recover deals with it.
		_, sealed, err := openRecord(aead, raw)
		if errors.Is(err, ErrCorrupt) {
			return nil, err
		}
		j.lastHash = sha256.Sum256(sealed)
	}
	j.pending = len(seqs)
	j.pendingG.Set(int64(j.pending))
	return j, nil
}

// scan lists the journal objects and returns their sequence numbers in
// ascending order.
func (j *Journal) scan() ([]uint64, error) {
	names, err := j.backend.List()
	if err != nil {
		return nil, fmt.Errorf("journal: list: %w", err)
	}
	var seqs []uint64
	for _, name := range names {
		if !strings.HasPrefix(name, ObjectPrefix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimPrefix(name, ObjectPrefix), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: malformed record object %q", ErrCorrupt, name)
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })
	return seqs, nil
}

// Commit seals one intent and appends it to the journal, returning the
// assigned sequence number. The caller applies the writes only after
// Commit succeeds and calls MarkApplied when done. Bodies are copied into
// the record; the caller keeps ownership of writes.
func (j *Journal) Commit(op string, writes []Write, deletes []Delete) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	start := time.Now()
	seq, err := j.ctr.Increment()
	if err != nil {
		return 0, fmt.Errorf("journal: counter: %w", err)
	}
	blob, sealed, err := sealRecord(j.aead, &Intent{Seq: seq, Op: op, Prev: j.lastHash[:], Writes: writes, Deletes: deletes})
	if err != nil {
		return 0, fmt.Errorf("journal: seal: %w", err)
	}
	if err := j.backend.Put(objectName(seq), blob); err != nil {
		return 0, fmt.Errorf("journal: commit %d: %w", seq, err)
	}
	j.lastHash = sha256.Sum256(sealed)
	j.pending++
	j.pendingG.Set(int64(j.pending))
	j.commits.Inc()
	j.commitBytes.Add(uint64(len(blob)))
	j.commitNs.ObserveDuration(time.Since(start))
	return seq, nil
}

// MarkApplied removes a fully applied intent from the journal. An
// already-absent record is not an error (a crash between apply and
// MarkApplied replays the intent, whose MarkApplied then races nothing).
func (j *Journal) MarkApplied(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.backend.Delete(objectName(seq))
	if err != nil && !errors.Is(err, store.ErrNotExist) {
		return fmt.Errorf("journal: mark applied %d: %w", seq, err)
	}
	if j.pending > 0 {
		j.pending--
	}
	j.pendingG.Set(int64(j.pending))
	return nil
}

// Close stops the journal accepting new commits. MarkApplied still
// works — in-flight mutations that committed before the close must be
// able to retire their intents, otherwise a clean drain would leave a
// non-empty replay set. Close is idempotent.
func (j *Journal) Close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
}

// PendingCount returns the number of committed-but-unapplied intents.
func (j *Journal) PendingCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pending
}

// Recover scans, unseals, and verifies the journal, returning the
// intents to re-apply in order. Verification requires contiguous
// sequence numbers, an intact hash chain, and no record beyond the
// enclave counter; the newest record alone may be unreadable (a commit
// torn by the crash) and is then deleted and counted as discarded.
//
// In strict mode (normal startup) the newest surviving record must also
// sit within one counter step of the enclave counter — anything farther
// means the host truncated the journal. After a CA-authorized backup
// restoration the counter is legitimately ahead of the restored records,
// so that one check is relaxed (strict=false).
func (j *Journal) Recover(strict bool) (RecoverySet, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var set RecoverySet
	seqs, err := j.scan()
	if err != nil {
		return set, err
	}
	top := j.ctr.Value()
	var last [sha256.Size]byte // chain head so far; published on success
	for i, seq := range seqs {
		if seq > top {
			return set, fmt.Errorf("%w: record %d beyond enclave counter %d", ErrCorrupt, seq, top)
		}
		if i > 0 && seqs[i-1] != seq-1 {
			return set, fmt.Errorf("%w: gap between records %d and %d", ErrCorrupt, seqs[i-1], seq)
		}
		name := objectName(seq)
		blob, err := j.backend.Get(name)
		if err != nil {
			return set, fmt.Errorf("journal: read record %d: %w", seq, err)
		}
		rec, sealed, err := openRecord(j.aead, blob)
		if err != nil {
			if errors.Is(err, ErrCorrupt) || i != len(seqs)-1 {
				return set, fmt.Errorf("%w: record %d: %v", ErrCorrupt, seq, err)
			}
			// Torn tail: the crash interrupted this record's commit, so the
			// operation never applied — discard it (the rollback half of
			// recovery).
			if derr := j.backend.Delete(name); derr != nil && !errors.Is(derr, store.ErrNotExist) {
				return set, fmt.Errorf("journal: discard torn record %d: %w", seq, derr)
			}
			set.Discarded++
			j.discardedC.Inc()
			break
		}
		if rec.Seq != seq {
			return set, fmt.Errorf("%w: record %d claims sequence %d", ErrCorrupt, seq, rec.Seq)
		}
		if i > 0 && !bytes.Equal(rec.Prev, last[:]) {
			return set, fmt.Errorf("%w: record %d breaks the hash chain", ErrCorrupt, seq)
		}
		last = sha256.Sum256(sealed)
		set.Pending = append(set.Pending, rec)
		if j.onScan != nil {
			j.onScan(len(set.Pending))
		}
	}
	if strict && len(seqs) > 0 {
		if last := seqs[len(seqs)-1]; top-last > 1 {
			return set, fmt.Errorf("%w: newest record %d but enclave counter %d — journal truncated", ErrCorrupt, last, top)
		}
	}
	j.lastHash = last
	j.pending = len(set.Pending)
	j.pendingG.Set(int64(j.pending))
	j.replayed.Add(uint64(len(set.Pending)))
	return set, nil
}
