package journal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"segshare/internal/pae"
)

// A stored record is
//
//	format byte ‖ u32 sealed-header length ‖ sealed header ‖ blobs
//
// The sealed header is nonce ‖ AES-GCM(header) ‖ tag with the blob region
// as associated data: the blobs are already ciphertext under their
// per-file keys, so the record authenticates them (one GHASH pass) and
// does not encrypt them again. The header holds seq (which binds the
// record to its object name), prev, op, each write's store, name and blob
// length — or, for a NeedsToken root write, its plaintext body — and the
// deletes; lengths and counts are uvarints. The blob region is the
// non-root bodies back to back, in write order.
const (
	formatV1  = 0x01
	prefixLen = 1 + 4
)

// errUnreadable covers every failure short of an unknown format: a record
// cut short, a failed tag, a malformed header. Recover classes it as a
// torn commit or as tampering by the record's position.
var errUnreadable = errors.New("journal: unreadable record")

func appendBytes(b []byte, vs ...[]byte) []byte {
	for _, v := range vs {
		b = append(binary.AppendUvarint(b, uint64(len(v))), v...)
	}
	return b
}

// sealRecord encodes and seals rec, returning the stored record and the
// sealed header inside it (what the successor's Prev hashes). Blobs are
// sealed or copied into their slots, which become the writes' Bodies.
func sealRecord(c *pae.Cipher, rec *Intent) (record, sealed []byte, err error) {
	hdr := appendBytes(binary.AppendUvarint(nil, rec.Seq), rec.Prev, []byte(rec.Op))
	hdr = binary.AppendUvarint(hdr, uint64(len(rec.Writes)))
	blobLen := 0
	for _, w := range rec.Writes {
		hdr = appendBytes(hdr, []byte(w.Store), []byte(w.Name))
		if w.NeedsToken {
			hdr = appendBytes(append(hdr, 1), w.Body)
			continue
		}
		hdr = binary.AppendUvarint(append(hdr, 0), uint64(w.blobSize()))
		blobLen += w.blobSize()
	}
	hdr = binary.AppendUvarint(hdr, uint64(len(rec.Deletes)))
	for _, d := range rec.Deletes {
		hdr = appendBytes(hdr, []byte(d.Store), []byte(d.Name))
	}

	end := prefixLen + pae.Overhead + len(hdr)
	record = make([]byte, end+blobLen)
	record[0] = formatV1
	binary.BigEndian.PutUint32(record[1:], uint32(end-prefixLen))
	off := end
	for i := range rec.Writes {
		w := &rec.Writes[i]
		if w.NeedsToken {
			continue
		}
		slot := record[off : off+w.blobSize() : off+w.blobSize()]
		if w.Seal != nil {
			blob, err := w.Seal(slot[:0])
			if err != nil {
				return nil, nil, err
			}
			if len(blob) != len(slot) || len(blob) > 0 && &blob[0] != &slot[0] {
				return nil, nil, fmt.Errorf("journal: %s sealed %d bytes outside its %d-byte slot", w.Name, len(blob), len(slot))
			}
		} else {
			copy(slot, w.Body)
		}
		w.Body = slot
		off += len(slot)
	}
	// Seals into record[prefixLen:end]: the capacity is there, so the
	// blobs behind it stay where they are.
	_, err = c.AppendSeal(record[:prefixLen], hdr, record[end:])
	return record, record[prefixLen:end], err
}

func (w *Write) blobSize() int {
	if w.Seal != nil {
		return w.Size
	}
	return len(w.Body)
}

// openRecord authenticates and decodes a stored record; blob bodies alias
// raw. It fails with ErrCorrupt (unknown format) or errUnreadable.
func openRecord(c *pae.Cipher, raw []byte) (rec *Intent, sealed []byte, err error) {
	if len(raw) > 0 && raw[0] != formatV1 {
		return nil, nil, fmt.Errorf("%w: unknown record format %#x", ErrCorrupt, raw[0])
	}
	if len(raw) < prefixLen {
		return nil, nil, errUnreadable
	}
	end := prefixLen + int64(binary.BigEndian.Uint32(raw[1:]))
	if end > int64(len(raw)) {
		return nil, nil, errUnreadable
	}
	sealed, blobs := raw[prefixLen:end], raw[end:]
	hdr, err := c.Open(sealed, blobs)
	if err != nil {
		return nil, nil, errUnreadable
	}
	rec, err = decodeHeader(hdr, blobs)
	return rec, sealed, err
}

// reader walks a buffer; the first bad length poisons it.
type reader struct {
	b   []byte
	bad bool
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.bad, n = true, 0
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) bytes() []byte { return r.take(r.uvarint()) }

// decodeHeader is sealRecord's inverse. Counts need no bound of their
// own: every item consumes input, and exhausted input poisons the reader.
func decodeHeader(hdr, blobs []byte) (*Intent, error) {
	r, blob := &reader{b: hdr}, &reader{b: blobs}
	rec := &Intent{Seq: r.uvarint(), Prev: r.bytes(), Op: string(r.bytes())}
	for n := r.uvarint(); n > 0 && !r.bad; n-- {
		w := Write{Store: string(r.bytes()), Name: string(r.bytes())}
		switch r.uvarint() {
		case 0:
			w.Body = blob.take(r.uvarint())
		case 1:
			w.NeedsToken, w.Body = true, r.bytes()
		default:
			r.bad = true
		}
		rec.Writes = append(rec.Writes, w)
	}
	for n := r.uvarint(); n > 0 && !r.bad; n-- {
		rec.Deletes = append(rec.Deletes, Delete{Store: string(r.bytes()), Name: string(r.bytes())})
	}
	if r.bad || blob.bad || len(r.b)+len(blob.b) != 0 {
		return nil, errUnreadable
	}
	return rec, nil
}
