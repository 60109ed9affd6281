// Package audit implements SeGShare's tamper-evident security-event log.
//
// The threat model (paper §III) assumes a malicious cloud provider, so an
// audit trail kept in untrusted storage is worthless unless the provider
// can neither read it, forge records, reorder them, nor silently cut the
// tail off. This package reuses the paper's own machinery to get all four
// properties:
//
//   - Records are serialized inside the enclave and encrypted with
//     internal/pae (AES-GCM) under a key derived from the sealed root key
//     SK_r, so the host sees only ciphertext — principals, paths, and
//     group names never cross the boundary in the clear.
//   - Every entry extends a hash chain h_i = SHA-256(h_{i-1} ‖ entry_i)
//     over the *stored* bytes, so reordering or splicing breaks the chain.
//   - Periodic checkpoint entries carry the current chain head and the
//     value of an enclave monotonic counter, MACed under a second derived
//     key. A rolled-back or truncated log presents a stale counter value,
//     detectable exactly like content rollback (paper §V-E).
//
// The log is append-only and segmented: entries accumulate into numbered
// segment objects written through the untrusted store.Backend interface.
// cmd/segshare-audit verifies a log offline given the derived keys.
package audit

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"segshare/internal/pae"
)

// EventType is the closed set of audited security events. The set is
// compile-time constant; free-form event names are not accepted so the
// per-event metrics keep their bounded label space.
type EventType string

// Audited event types.
const (
	// EventAuthnSuccess: a client certificate was accepted.
	EventAuthnSuccess EventType = "authn_success"
	// EventAuthnFailure: a request carried no or an invalid certificate.
	EventAuthnFailure EventType = "authn_failure"
	// EventFileAuthzAllow: auth_f granted a file/directory operation.
	EventFileAuthzAllow EventType = "authz_allow"
	// EventFileAuthzDeny: auth_f or auth_g rejected an operation.
	EventFileAuthzDeny EventType = "authz_deny"
	// EventACLChange: a permission, inherit flag, or file owner changed.
	EventACLChange EventType = "acl_change"
	// EventGroupChange: a membership or group-ownership mutation.
	EventGroupChange EventType = "group_change"
	// EventRollbackFailure: rollback/integrity validation rejected stored
	// state.
	EventRollbackFailure EventType = "rollback_failure"
	// EventKeyOp: a root-key lifecycle operation (generate, unseal,
	// replicate, export).
	EventKeyOp EventType = "key_op"
	// EventRecovery: the journal recovery pass re-applied or discarded
	// incomplete intents at startup or after a backup restoration.
	EventRecovery EventType = "recovery"
	// EventWatchdog: the stall watchdog detected a healthy→stalled
	// transition on one of its checks and captured a profile snapshot.
	EventWatchdog EventType = "watchdog"
	// EventDegraded: a store circuit breaker changed state — the server
	// entered, probed, or left degraded read-only mode. Detail names the
	// store role and the transition (e.g. "content closed->open").
	EventDegraded EventType = "degraded"
	// EventSLOBreach: a burn-rate window pair crossed its threshold —
	// the service started consuming error budget fast enough to matter.
	// Detail carries the breach speed ("fast_burn"/"slow_burn"), Op the
	// affected operation class.
	EventSLOBreach EventType = "slo_breach"
	// EventDrain: the server completed (or timed out) a graceful drain.
	// Detail carries the wait duration and how many requests were still
	// in flight at the deadline ("clean" drains report 0).
	EventDrain EventType = "drain"
)

// Decisions recorded on authorization events.
const (
	DecisionAllow = "allow"
	DecisionDeny  = "deny"
)

// Event is what call sites emit. The writer assigns sequence number and
// timestamp. All identity-bearing fields (User, Target, Group, Path) are
// encrypted before they reach untrusted storage.
type Event struct {
	Event    EventType
	Decision string
	// Op is the operation class or API route, from the same closed set as
	// the request metrics.
	Op string
	// RequestID correlates the record with the request's trace span
	// (obs.Trace.ID) and structured log line.
	RequestID uint64
	// User is the acting principal; Target the affected principal (for
	// membership changes).
	User   string
	Target string
	Group  string
	Path   string
	Detail string
}

// Record is one sealed log entry: an Event plus writer-assigned ordering.
type Record struct {
	Seq       uint64    `json:"seq"`
	TimeNanos int64     `json:"time"`
	Event     EventType `json:"event"`
	Decision  string    `json:"decision,omitempty"`
	Op        string    `json:"op,omitempty"`
	RequestID uint64    `json:"reqId,omitempty"`
	User      string    `json:"user,omitempty"`
	Target    string    `json:"target,omitempty"`
	Group     string    `json:"group,omitempty"`
	Path      string    `json:"path,omitempty"`
	Detail    string    `json:"detail,omitempty"`
}

// Keys are the two audit keys derived from the root key SK_r: an
// encryption key for records and a MAC key for checkpoints. An operator
// who obtains SK_r (e.g. through the §V-F replication protocol) can
// re-derive them to verify and read the log offline.
type Keys struct {
	Enc pae.Key
	MAC []byte
}

// Key-derivation labels (domain separation against every other SK_r use).
const (
	labelRecordKey     = "audit/record"
	labelCheckpointKey = "audit/checkpoint"
)

// DeriveKeys derives the audit keys from the root key.
func DeriveKeys(rootKey []byte) (Keys, error) {
	enc, err := pae.DeriveKey(rootKey, labelRecordKey, nil)
	if err != nil {
		return Keys{}, fmt.Errorf("audit: derive record key: %w", err)
	}
	mac, err := pae.DeriveBytes(rootKey, labelCheckpointKey, nil, 32)
	if err != nil {
		return Keys{}, fmt.Errorf("audit: derive checkpoint key: %w", err)
	}
	return Keys{Enc: enc, MAC: mac}, nil
}

// --- wire format -------------------------------------------------------
//
// A segment object is a concatenation of frames:
//
//	kind(1) ‖ seq(8, big-endian) ‖ len(4, big-endian) ‖ payload
//
// kind 1 (record): payload is PAE ciphertext of the record, with
// associated data binding the format version and sequence number. The
// plaintext is recordCoded ‖ varint(time) ‖ uvarint(reqId) ‖ event code ‖
// decision code (indexes into eventCodes and decisionCodes), then
// uvarint(len) ‖ bytes for op, user, target, group, path and detail; the
// sequence number is the frame's. recordCompact, which spells the event
// and the decision out as the first two strings, and JSON (a leading
// '{') are the records of older logs; both still open.
// kind 2 (checkpoint): payload is seq(8) ‖ counter(8) ‖ head(32) ‖
// mac(32), where head is the chain head over all preceding entries and
// mac is HMAC-SHA256 under the checkpoint key.
//
// The chain covers the stored frame: h_i = SHA-256(h_{i-1} ‖ kind ‖ seq ‖
// payload). The sequence number rides in the clear — the host already
// counts entries as it stores them — so the verifier can localize
// reordering before attempting decryption.

const (
	kindRecord     byte = 1
	kindCheckpoint byte = 2

	frameHeaderLen    = 1 + 8 + 4
	checkpointBodyLen = 8 + 8 + 32 + 32

	// SegmentPrefix names segment objects in the audit store:
	// seg-00000001, seg-00000002, …
	SegmentPrefix = "seg-"
)

// chainSeed anchors h_0.
var chainSeed = sha256.Sum256([]byte("segshare-audit-log-v1"))

const recordAAD = "segshare-audit-record-v1"

func recordAssociatedData(seq uint64) []byte {
	ad := make([]byte, len(recordAAD)+8)
	copy(ad, recordAAD)
	binary.BigEndian.PutUint64(ad[len(recordAAD):], seq)
	return ad
}

// Tags of the binary record plaintexts (see the wire format).
const (
	recordCompact byte = 1
	recordCoded   byte = 2
)

// eventCodes and decisionCodes are the tables a recordCoded code indexes.
// Codes are on disk: append, never reorder.
var (
	eventCodes = []EventType{EventAuthnSuccess, EventAuthnFailure, EventFileAuthzAllow,
		EventFileAuthzDeny, EventACLChange, EventGroupChange, EventRollbackFailure, EventKeyOp,
		EventRecovery, EventWatchdog, EventDegraded, EventSLOBreach, EventDrain}
	decisionCodes = []string{"", DecisionAllow, DecisionDeny}
)

// recordStrings lists a record's string fields in their encoded order.
func recordStrings(rec *Record) []*string {
	return []*string{(*string)(&rec.Event), &rec.Decision, &rec.Op, &rec.User,
		&rec.Target, &rec.Group, &rec.Path, &rec.Detail}
}

// sealRecord serializes and encrypts one record under the record cipher.
// An event or decision outside the code tables is an error: both are
// closed sets.
func sealRecord(c *pae.Cipher, rec Record) ([]byte, error) {
	ev, dec := slices.Index(eventCodes, rec.Event), slices.Index(decisionCodes, rec.Decision)
	if ev < 0 || dec < 0 {
		return nil, fmt.Errorf("audit: seal record: event %q, decision %q has no code", rec.Event, rec.Decision)
	}
	// The string fields after the event and the decision, in
	// recordStrings order, on the stack: the plaintext is sized once.
	strs := [...]string{rec.Op, rec.User, rec.Target, rec.Group, rec.Path, rec.Detail}
	n := 1 + 2*binary.MaxVarintLen64 + 2 // format, time, request ID, event, decision
	for _, f := range strs {
		n += binary.MaxVarintLen64 + len(f)
	}
	plain := append(make([]byte, 0, n), recordCoded)
	plain = binary.AppendVarint(plain, rec.TimeNanos)
	plain = binary.AppendUvarint(plain, rec.RequestID)
	plain = append(plain, byte(ev), byte(dec))
	for _, f := range strs {
		plain = binary.AppendUvarint(plain, uint64(len(f)))
		plain = append(plain, f...)
	}
	ct, err := c.Seal(plain, recordAssociatedData(rec.Seq))
	if err != nil {
		return nil, fmt.Errorf("audit: seal record: %w", err)
	}
	return ct, nil
}

// openRecord reverses sealRecord, and opens the JSON records of older
// logs. Any authentication or decoding failure maps to ErrRecordCorrupt.
func openRecord(c *pae.Cipher, seq uint64, payload []byte) (Record, error) {
	plain, err := c.Open(payload, recordAssociatedData(seq))
	if err != nil {
		return Record{}, fmt.Errorf("%w: entry %d", ErrRecordCorrupt, seq)
	}
	rec := Record{Seq: seq}
	if len(plain) > 0 && plain[0] == '{' {
		if err := json.Unmarshal(plain, &rec); err != nil {
			return Record{}, fmt.Errorf("%w: entry %d: %v", ErrRecordCorrupt, seq, err)
		}
		if rec.Seq != seq {
			return Record{}, fmt.Errorf("%w: entry %d claims seq %d", ErrRecordCorrupt, seq, rec.Seq)
		}
		return rec, nil
	}
	bad := fmt.Errorf("%w: entry %d: malformed record", ErrRecordCorrupt, seq)
	if len(plain) == 0 || plain[0] != recordCompact && plain[0] != recordCoded {
		return Record{}, bad
	}
	p, strs := plain[1:], recordStrings(&rec)
	var n int
	if rec.TimeNanos, n = binary.Varint(p); n <= 0 {
		return Record{}, bad
	}
	p = p[n:]
	if rec.RequestID, n = binary.Uvarint(p); n <= 0 {
		return Record{}, bad
	}
	p = p[n:]
	if plain[0] == recordCoded {
		if len(p) < 2 || int(p[0]) >= len(eventCodes) || int(p[1]) >= len(decisionCodes) {
			return Record{}, bad
		}
		rec.Event, rec.Decision = eventCodes[p[0]], decisionCodes[p[1]]
		p, strs = p[2:], strs[2:]
	}
	for _, f := range strs {
		l, n := binary.Uvarint(p)
		if n <= 0 || l > uint64(len(p)-n) {
			return Record{}, bad
		}
		*f, p = string(p[n:n+int(l)]), p[n+int(l):]
	}
	if len(p) != 0 {
		return Record{}, bad
	}
	return rec, nil
}

// checkpoint is the plaintext content of a checkpoint frame.
type checkpoint struct {
	seq     uint64
	counter uint64
	head    [sha256.Size]byte
}

func checkpointMAC(macKey []byte, c checkpoint) [sha256.Size]byte {
	mac := hmac.New(sha256.New, macKey)
	mac.Write([]byte("segshare-audit-checkpoint-v1"))
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], c.seq)
	binary.BigEndian.PutUint64(buf[8:], c.counter)
	mac.Write(buf[:])
	mac.Write(c.head[:])
	var out [sha256.Size]byte
	copy(out[:], mac.Sum(nil))
	return out
}

func encodeCheckpoint(macKey []byte, c checkpoint) []byte {
	out := make([]byte, checkpointBodyLen)
	binary.BigEndian.PutUint64(out[0:8], c.seq)
	binary.BigEndian.PutUint64(out[8:16], c.counter)
	copy(out[16:48], c.head[:])
	tag := checkpointMAC(macKey, c)
	copy(out[48:80], tag[:])
	return out
}

// decodeCheckpoint parses and authenticates a checkpoint payload.
func decodeCheckpoint(macKey []byte, payload []byte) (checkpoint, error) {
	if len(payload) != checkpointBodyLen {
		return checkpoint{}, fmt.Errorf("%w: checkpoint body %d bytes", ErrCheckpointForged, len(payload))
	}
	var c checkpoint
	c.seq = binary.BigEndian.Uint64(payload[0:8])
	c.counter = binary.BigEndian.Uint64(payload[8:16])
	copy(c.head[:], payload[16:48])
	want := checkpointMAC(macKey, c)
	if !hmac.Equal(want[:], payload[48:80]) {
		return checkpoint{}, fmt.Errorf("%w: entry %d", ErrCheckpointForged, c.seq)
	}
	return c, nil
}

// encodeFrame appends one frame to buf and returns the extended buffer.
func encodeFrame(buf []byte, kind byte, seq uint64, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	hdr[0] = kind
	binary.BigEndian.PutUint64(hdr[1:9], seq)
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// chainNext advances the hash chain over one frame.
func chainNext(head [sha256.Size]byte, kind byte, seq uint64, payload []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(head[:])
	h.Write([]byte{kind})
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seq)
	h.Write(buf[:])
	h.Write(payload)
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// segmentName returns the store object name of the i-th segment (1-based).
func segmentName(i int) string { return fmt.Sprintf("%s%08d", SegmentPrefix, i) }

// Verification and integrity errors. Each class of tampering maps to a
// distinct error so an operator (and the test suite) can tell a flipped
// bit from a cut tail from a replayed checkpoint.
var (
	// ErrRecordCorrupt: a record ciphertext failed authentication (bit
	// flip, spliced foreign record, or wrong key).
	ErrRecordCorrupt = errors.New("audit: record authentication failed")
	// ErrTruncated: a segment ends mid-frame, a segment is missing from
	// the sequence, or the log holds fewer records than expected.
	ErrTruncated = errors.New("audit: log truncated")
	// ErrSegmentOrder: entries appear out of sequence (e.g. two segment
	// objects were swapped).
	ErrSegmentOrder = errors.New("audit: segments out of order")
	// ErrChainMismatch: a checkpoint's recorded chain head does not match
	// the recomputed chain.
	ErrChainMismatch = errors.New("audit: hash chain mismatch")
	// ErrCheckpointForged: a checkpoint failed MAC verification.
	ErrCheckpointForged = errors.New("audit: checkpoint authentication failed")
	// ErrCheckpointReplay: checkpoint counter values regress within the
	// log, or the final checkpoint is stale against the expected enclave
	// counter value — the signature of a replayed (rolled back) log.
	ErrCheckpointReplay = errors.New("audit: checkpoint replay")
	// ErrLogRollback: at startup, the persisted log trails the enclave's
	// monotonic counter — the stored log was rolled back or truncated
	// while the enclave was down — or leads it by more than the one
	// checkpoint a crash can leave uncounted.
	ErrLogRollback = errors.New("audit: stored log behind enclave counter")
)
