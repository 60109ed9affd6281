package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"segshare/internal/pae"
	"segshare/internal/store"
)

// walkState is the structural summary of a log after a full walk.
type walkState struct {
	head        [sha256.Size]byte
	seq         uint64 // last record sequence number
	checkpoints uint64
	lastCounter uint64 // counter of the last checkpoint
	segments    int
	bytes       int64
}

// walk reads every segment in order, verifying framing, sequence
// continuity, the hash chain, and checkpoint authenticity/monotonicity.
// onRecord, if non-nil, is called with each record frame's sequence
// number and ciphertext payload. macKey authenticates checkpoints.
func walk(b store.Backend, macKey []byte, onRecord func(seq uint64, payload []byte) error) (*walkState, error) {
	names, err := b.List()
	if err != nil {
		return nil, fmt.Errorf("audit: list segments: %w", err)
	}
	var segs []string
	for _, n := range names {
		if strings.HasPrefix(n, SegmentPrefix) {
			segs = append(segs, n)
		}
	}
	sort.Strings(segs)

	st := &walkState{head: chainSeed}
	for i, name := range segs {
		if want := segmentName(i + 1); name != want {
			return nil, fmt.Errorf("%w: segment %q where %q expected", ErrTruncated, name, want)
		}
		body, err := b.Get(name)
		if err != nil {
			return nil, fmt.Errorf("audit: read segment %s: %w", name, err)
		}
		st.segments++
		st.bytes += int64(len(body))
		atSegmentStart := true
		for len(body) > 0 {
			if len(body) < frameHeaderLen {
				return nil, fmt.Errorf("%w: %s ends inside a frame header", ErrTruncated, name)
			}
			kind := body[0]
			seq := binary.BigEndian.Uint64(body[1:9])
			plen := int(binary.BigEndian.Uint32(body[9:13]))
			if len(body) < frameHeaderLen+plen {
				return nil, fmt.Errorf("%w: %s ends inside a frame payload", ErrTruncated, name)
			}
			payload := body[frameHeaderLen : frameHeaderLen+plen]
			body = body[frameHeaderLen+plen:]

			switch kind {
			case kindRecord:
				if seq != st.seq+1 {
					if atSegmentStart {
						return nil, fmt.Errorf("%w: %s starts at entry %d, expected %d", ErrSegmentOrder, name, seq, st.seq+1)
					}
					return nil, fmt.Errorf("%w: entry %d follows %d", ErrSegmentOrder, seq, st.seq)
				}
				st.seq = seq
				if onRecord != nil {
					if err := onRecord(seq, payload); err != nil {
						return nil, err
					}
				}
			case kindCheckpoint:
				c, err := decodeCheckpoint(macKey, payload)
				if err != nil {
					return nil, err
				}
				if c.seq != st.seq {
					return nil, fmt.Errorf("%w: checkpoint covers entry %d at position %d", ErrChainMismatch, c.seq, st.seq)
				}
				if c.head != st.head {
					return nil, fmt.Errorf("%w: checkpoint after entry %d", ErrChainMismatch, st.seq)
				}
				if c.counter <= st.lastCounter {
					return nil, fmt.Errorf("%w: counter %d after %d", ErrCheckpointReplay, c.counter, st.lastCounter)
				}
				st.lastCounter = c.counter
				st.checkpoints++
			default:
				return nil, fmt.Errorf("%w: unknown frame kind %d", ErrTruncated, kind)
			}
			st.head = chainNext(st.head, kind, seq, payload)
			atSegmentStart = false
		}
	}
	return st, nil
}

// VerifyOptions tunes an offline verification.
type VerifyOptions struct {
	// ExpectCounter, when nonzero, is the enclave monotonic counter value
	// the log's final checkpoint must carry, or the one after it — a
	// checkpoint stored but not yet counted (obtained from the live
	// /debug/audit/head endpoint or the enclave platform). It catches
	// whole-log rollback to an older, internally consistent prefix.
	ExpectCounter uint64
	// ExpectRecords, when nonzero, is the exact number of records the log
	// must contain.
	ExpectRecords uint64
	// ExpectHead, when nonzero-length, is the hex chain head the log must
	// end on.
	ExpectHead string
	// Dump, when non-nil, receives every decrypted record as one JSON
	// object per line.
	Dump io.Writer
}

// VerifyResult summarises a successful verification.
type VerifyResult struct {
	Records     uint64 `json:"records"`
	Checkpoints uint64 `json:"checkpoints"`
	Segments    int    `json:"segments"`
	Bytes       int64  `json:"bytes"`
	LastCounter uint64 `json:"lastCounter"`
	ChainHead   string `json:"chainHead"`
}

// Verify walks a stored audit log, checking chain integrity, record
// authenticity, checkpoint MACs, and counter continuity. It returns the
// first integrity violation found, classified by the error variables in
// this package.
func Verify(b store.Backend, keys Keys, opts VerifyOptions) (*VerifyResult, error) {
	rc, err := pae.NewCipher(keys.Enc)
	if err != nil {
		return nil, err
	}
	var enc *json.Encoder
	if opts.Dump != nil {
		enc = json.NewEncoder(opts.Dump)
	}
	st, err := walk(b, keys.MAC, func(seq uint64, payload []byte) error {
		rec, err := openRecord(rc, seq, payload)
		if err != nil {
			return err
		}
		if enc != nil {
			return enc.Encode(rec)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if want := opts.ExpectCounter; want != 0 && st.lastCounter != want && st.lastCounter != want+1 {
		return nil, fmt.Errorf("%w: last checkpoint counter %d, enclave counter %d",
			ErrCheckpointReplay, st.lastCounter, opts.ExpectCounter)
	}
	if opts.ExpectRecords != 0 && st.seq != opts.ExpectRecords {
		return nil, fmt.Errorf("%w: %d records, expected %d", ErrTruncated, st.seq, opts.ExpectRecords)
	}
	head := hex.EncodeToString(st.head[:])
	if opts.ExpectHead != "" && head != opts.ExpectHead {
		return nil, fmt.Errorf("%w: chain head %s, expected %s", ErrChainMismatch, head, opts.ExpectHead)
	}
	return &VerifyResult{
		Records:     st.seq,
		Checkpoints: st.checkpoints,
		Segments:    st.segments,
		Bytes:       st.bytes,
		LastCounter: st.lastCounter,
		ChainHead:   head,
	}, nil
}
