package rollback

import (
	"encoding/binary"
	"fmt"

	"segshare/internal/mhash"
)

// Header is the rollback metadata the trusted file manager prepends to a
// file's plaintext before encryption (paper §V-D): the file's own main
// hash, bucket hashes for inner files, and — in the root file only — the
// monotonic-counter token of §V-E.
type Header struct {
	// Main is the file's own main hash.
	Main Digest
	// Inner marks non-empty directory files that carry bucket hashes.
	Inner bool
	// Buckets are the bucket hashes; only meaningful when Inner.
	Buckets Buckets
	// Token is the whole-file-system rollback token (monotonic counter
	// value); only meaningful in a store's root file.
	Token uint64
}

const headerTag = 0xB1

// flag bits
const (
	flagInner = 1 << 0
)

// EncodedSize returns the exact encoded size of the header.
func (h *Header) EncodedSize() int {
	n := 1 + 1 + DigestSize + 8
	if h.Inner {
		n += NumBuckets * mhash.EncodedSize
	}
	return n
}

// Encode serialises the header.
func (h *Header) Encode() []byte {
	out := make([]byte, 0, h.EncodedSize())
	out = append(out, headerTag)
	var flags byte
	if h.Inner {
		flags |= flagInner
	}
	out = append(out, flags)
	out = append(out, h.Main[:]...)
	out = binary.BigEndian.AppendUint64(out, h.Token)
	if h.Inner {
		for i := range h.Buckets {
			out = append(out, h.Buckets[i].Encode()...)
		}
	}
	return out
}

// DecodeHeader parses a header from the start of data and returns it with
// the remaining bytes (the file's logical content).
func DecodeHeader(data []byte) (*Header, []byte, error) {
	if len(data) < 2 || data[0] != headerTag {
		return nil, nil, fmt.Errorf("%w: bad tag", ErrHeader)
	}
	flags := data[1]
	if flags&^flagInner != 0 {
		return nil, nil, fmt.Errorf("%w: unknown flags %#x", ErrHeader, flags)
	}
	h := &Header{Inner: flags&flagInner != 0}
	off := 2
	if len(data) < off+DigestSize+8 {
		return nil, nil, fmt.Errorf("%w: truncated", ErrHeader)
	}
	copy(h.Main[:], data[off:])
	off += DigestSize
	h.Token = binary.BigEndian.Uint64(data[off:])
	off += 8
	if h.Inner {
		need := NumBuckets * mhash.EncodedSize
		if len(data) < off+need {
			return nil, nil, fmt.Errorf("%w: truncated buckets", ErrHeader)
		}
		for i := range h.Buckets {
			b, err := mhash.DecodeHash(data[off : off+mhash.EncodedSize])
			if err != nil {
				return nil, nil, fmt.Errorf("%w: bucket %d", ErrHeader, i)
			}
			h.Buckets[i] = b
			off += mhash.EncodedSize
		}
	}
	return h, data[off:], nil
}
