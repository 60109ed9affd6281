// Package mhash implements incremental multiset hashes following the
// MSet-XOR-Hash construction of Clarke et al. (ASIACRYPT 2003), the
// construction SeGShare's rollback-protection extension uses (paper §V-D,
// §VI).
//
// A multiset hash maps a multiset of byte strings to a fixed-size digest
// such that:
//
//   - the digest is independent of insertion order (commutative),
//   - elements can be added and removed incrementally in O(1),
//   - equality of two digests implies (computationally) equality of the
//     underlying multisets.
//
// MSet-XOR-Hash keeps the XOR of HMAC_K(element) over all elements plus the
// multiset's cardinality. XOR makes addition and removal the same cheap
// operation; the cardinality distinguishes multisets whose XORs collide
// through even multiplicities.
package mhash

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"

	"segshare/internal/pae"
)

// DigestSize is the size in bytes of the XOR accumulator.
const DigestSize = sha256.Size

// EncodedSize is the size in bytes of an encoded Hash (accumulator plus
// cardinality).
const EncodedSize = DigestSize + 8

// ErrDecode is returned when decoding an encoded Hash of the wrong length.
var ErrDecode = errors.New("mhash: invalid encoded multiset hash")

// Hash is an incremental multiset hash value. The zero value is the hash
// of the empty multiset. Hash values are comparable only via Equal (or
// exact struct equality); they are tied to the key used by the Accumulator
// that produced them.
type Hash struct {
	acc  [DigestSize]byte
	card uint64
}

// Cardinality returns the number of elements (with multiplicity) in the
// hashed multiset. A removal without a matching addition underflows the
// cardinality and will never compare Equal to any honestly built hash.
func (h Hash) Cardinality() uint64 { return h.card }

// IsEmpty reports whether h is the hash of the empty multiset.
func (h Hash) IsEmpty() bool { return h == Hash{} }

// Equal reports whether two multiset hashes are equal in constant time.
func (h Hash) Equal(other Hash) bool {
	v := subtle.ConstantTimeCompare(h.acc[:], other.acc[:])
	if h.card == other.card {
		v &= 1
	} else {
		v = 0
	}
	return v == 1
}

// Combine returns the hash of the multiset union of the two operands.
func (h Hash) Combine(other Hash) Hash {
	out := Hash{card: h.card + other.card}
	for i := range out.acc {
		out.acc[i] = h.acc[i] ^ other.acc[i]
	}
	return out
}

// Subtract returns the hash of the multiset difference h minus other.
// The caller must know that other is a sub-multiset of h; otherwise the
// result will not match any honestly built hash.
func (h Hash) Subtract(other Hash) Hash {
	out := Hash{card: h.card - other.card}
	for i := range out.acc {
		out.acc[i] = h.acc[i] ^ other.acc[i]
	}
	return out
}

// Encode serialises h into a fixed-size byte string.
func (h Hash) Encode() []byte {
	out := make([]byte, EncodedSize)
	copy(out, h.acc[:])
	binary.BigEndian.PutUint64(out[DigestSize:], h.card)
	return out
}

// String implements fmt.Stringer with a short hex prefix for logs.
func (h Hash) String() string {
	return fmt.Sprintf("mset(%x…,n=%d)", h.acc[:4], h.card)
}

// DecodeHash parses a byte string produced by Encode.
func DecodeHash(b []byte) (Hash, error) {
	if len(b) != EncodedSize {
		return Hash{}, ErrDecode
	}
	var h Hash
	copy(h.acc[:], b[:DigestSize])
	h.card = binary.BigEndian.Uint64(b[DigestSize:])
	return h, nil
}

// Accumulator computes multiset hashes under a fixed secret key. The key
// is what makes the hash unforgeable to parties outside the enclave; in
// SeGShare it is derived from the root key SK_r. An Accumulator is safe
// for concurrent use.
type Accumulator struct {
	mac *pae.MACKey
}

// NewAccumulator constructs an accumulator over key. The key is copied.
func NewAccumulator(key []byte) *Accumulator {
	return &Accumulator{mac: pae.NewMACKey(key)}
}

// ElementHash returns the hash of the singleton multiset {element}.
func (a *Accumulator) ElementHash(element []byte) Hash {
	return Hash{acc: a.mac.Sum(element), card: 1}
}

// Add returns the hash of the multiset with element added.
func (a *Accumulator) Add(h Hash, element []byte) Hash {
	return h.Combine(a.ElementHash(element))
}

// Remove returns the hash of the multiset with one occurrence of element
// removed. Removing an element not present produces a hash that never
// equals an honestly built one (the cardinality underflow and XOR residue
// both mismatch).
func (a *Accumulator) Remove(h Hash, element []byte) Hash {
	return h.Subtract(a.ElementHash(element))
}

// Replace returns the hash with one occurrence of oldElement replaced by
// newElement. This is the O(1) update SeGShare performs on each inner node
// of the rollback tree when a child's hash changes (paper §V-D).
func (a *Accumulator) Replace(h Hash, oldElement, newElement []byte) Hash {
	return a.Add(a.Remove(h, oldElement), newElement)
}

// HashMultiset hashes a full multiset from scratch. It is the reference
// (non-incremental) path used by validation and tests.
func (a *Accumulator) HashMultiset(elements [][]byte) Hash {
	var h Hash
	for _, e := range elements {
		h = a.Add(h, e)
	}
	return h
}
