// Package rollback implements the hash machinery of SeGShare's rollback
// protection for individual files (paper §V-D) and for the whole file
// system (§V-E).
//
// The design follows the paper's optimized Merkle-tree variant:
//
//   - Every stored file is a tree node; its *main hash* combines a hash of
//     its path and a hash of its content. Inner files (directories)
//     additionally combine their bucket hashes.
//   - Each inner file keeps a fixed number of *bucket hashes*; a child is
//     assigned to a bucket by a hash of its path. A bucket hash is an
//     incremental multiset hash (package mhash) of the main hashes of the
//     children in that bucket, so a child update only touches one bucket
//     per ancestor — no sibling access.
//   - Validation of a file recomputes a single bucket per tree level,
//     reading only the stored main hashes of the files sharing the
//     bucket.
//   - The root's main hash represents the whole store; binding it to
//     enclave-protected state (protected memory or a monotonic counter)
//     prevents whole-store rollback.
//
// The tree walk itself (loading ancestors, persisting headers) is
// orchestrated by the trusted file manager in internal/core; this package
// provides the deterministic, unit-testable pieces: main-hash
// computation, bucket assignment and algebra, header codecs, and the two
// RootGuard strategies.
package rollback

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"segshare/internal/mhash"
	"segshare/internal/pae"
)

// NumBuckets is the number of bucket hashes per inner file. More buckets
// mean cheaper validation (fewer files per bucket) at a fixed 40-byte
// storage cost per bucket.
const NumBuckets = 16

// DigestSize is the size of a main hash.
const DigestSize = sha256.Size

// Digest is a node's main hash.
type Digest [DigestSize]byte

// IsZero reports whether d is the all-zero digest (used for "absent").
func (d Digest) IsZero() bool { return d == Digest{} }

// String renders a short prefix for logs.
func (d Digest) String() string { return fmt.Sprintf("main:%x…", d[:6]) }

// Rollback errors.
var (
	// ErrRollback is returned when stored hashes are inconsistent —
	// evidence of a rollback (or other replacement) attack.
	ErrRollback = errors.New("rollback: hash tree verification failed")
	// ErrHeader is returned when a node header fails to decode.
	ErrHeader = errors.New("rollback: malformed node header")
)

// Hasher derives all rollback hashes from a secret key (derived from the
// store's root key SK_r), making them unforgeable outside the enclave.
// Hasher is safe for concurrent use.
type Hasher struct {
	mac *pae.MACKey
	acc *mhash.Accumulator
}

// NewHasher creates a Hasher over key. The key is copied.
func NewHasher(key []byte) *Hasher {
	return &Hasher{mac: pae.NewMACKey(key), acc: mhash.NewAccumulator(key)}
}

// ContentDigest hashes a file's logical plaintext content.
func ContentDigest(content []byte) Digest {
	return sha256.Sum256(content)
}

// LeafMain computes the main hash of a leaf file (content file, ACL, or
// empty directory): a keyed combination of the path hash and the content
// digest.
func (h *Hasher) LeafMain(path string, content Digest) Digest {
	return h.main(0x00, path, content, nil)
}

// InnerMain computes the main hash of an inner file (non-empty
// directory): a keyed combination of the path hash, the directory content
// digest (its children list), and all bucket hashes.
func (h *Hasher) InnerMain(path string, content Digest, buckets *Buckets) Digest {
	return h.main(0x01, path, content, buckets)
}

func (h *Hasher) main(kind byte, path string, content Digest, buckets *Buckets) Digest {
	msg := make([]byte, 0, 1+8+len(path)+DigestSize+NumBuckets*mhash.EncodedSize)
	msg = append(msg, kind)
	msg = binary.BigEndian.AppendUint64(msg, uint64(len(path)))
	msg = append(msg, path...)
	msg = append(msg, content[:]...)
	if buckets != nil {
		for i := range buckets {
			msg = append(msg, buckets[i].Encode()...)
		}
	}
	return Digest(h.mac.Sum(msg))
}

// BucketIndex assigns a child path to a bucket.
func (h *Hasher) BucketIndex(childPath string) int {
	mac := h.mac.Sum(append([]byte("bucket\x00"), childPath...))
	return int(binary.BigEndian.Uint32(mac[:4]) % NumBuckets)
}

// Buckets is the per-inner-file array of bucket hashes.
type Buckets [NumBuckets]mhash.Hash

// AddChild incrementally adds a child's main hash to its bucket.
func (b *Buckets) AddChild(h *Hasher, childPath string, main Digest) {
	i := h.BucketIndex(childPath)
	b[i] = h.acc.Add(b[i], main[:])
}

// RemoveChild incrementally removes a child's main hash from its bucket.
func (b *Buckets) RemoveChild(h *Hasher, childPath string, main Digest) {
	i := h.BucketIndex(childPath)
	b[i] = h.acc.Remove(b[i], main[:])
}

// ReplaceChild swaps a child's old main hash for its new one — the O(1)
// per-ancestor update of paper §V-D.
func (b *Buckets) ReplaceChild(h *Hasher, childPath string, oldMain, newMain Digest) {
	i := h.BucketIndex(childPath)
	b[i] = h.acc.Replace(b[i], oldMain[:], newMain[:])
}

// VerifyBucket checks the bucket that childPath belongs to against the
// main hashes of all children sharing that bucket (including childPath's
// own). It returns ErrRollback on mismatch.
func (b *Buckets) VerifyBucket(h *Hasher, childPath string, bucketMains []Digest) error {
	i := h.BucketIndex(childPath)
	var want mhash.Hash
	for _, m := range bucketMains {
		want = h.acc.Add(want, m[:])
	}
	if !b[i].Equal(want) {
		return fmt.Errorf("%w: bucket %d of %q", ErrRollback, i, childPath)
	}
	return nil
}

// IsEmpty reports whether all buckets are empty, i.e. the directory has
// no children contributing hashes.
func (b *Buckets) IsEmpty() bool {
	for i := range b {
		if !b[i].IsEmpty() {
			return false
		}
	}
	return true
}
