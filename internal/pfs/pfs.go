// Package pfs reimplements the functionality SeGShare uses from the Intel
// SGX Protected File System Library (paper §II-A): authenticated,
// confidential storage of a file in untrusted memory. On write, data is
// split into 4 KiB chunks, each chunk is encrypted with AES-GCM, and a
// Merkle hash tree over the chunks protects integrity, ordering, and
// extension/truncation. On read, chunks are verified before their
// plaintext is released; random access verifies a single Merkle path
// instead of the whole file.
//
// A chunk's leaf is SHA-256(0x02 ‖ nonce ‖ tag) (format version 2): the
// tree commits to each chunk's GCM tag, as the Intel library keeps each
// node's MAC in its parent, rather than rehashing ciphertext the tag
// authenticates. A chunk that opens under the file key, its positional
// AAD and the committed nonce and tag is the chunk that was sealed; one
// of an older version of the file opens too (keys outlive versions) but
// its tag is not the committed one. Readers take the leaf rule from the
// footer's MACed version, so version 1 blobs (leaf over the ciphertext)
// still open.
//
// The encrypted encoding is self-contained: chunks first, then the Merkle
// tree nodes, then a fixed-size footer whose HMAC (under a key derived
// from the file key) authenticates all structural metadata and the tree
// root. Every chunk's position in the blob follows from its index alone,
// so one kernel (kernel.go) seals or opens chunks straight into their
// final slots of caller-owned buffers, in order, on the caller's
// goroutine. Today's entry points hand it the
// whole file at once and so hold O(file) bytes; the bounded-memory
// streaming of paper §VI is a loop over chunk windows on that kernel.
package pfs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"sync"

	"segshare/internal/pae"
)

const (
	// ChunkSize is the plaintext chunk granularity, matching the 4 KiB
	// chunks of Intel's Protected File System Library.
	ChunkSize = 4096
	// hashSize is the size of a Merkle tree node.
	hashSize = sha256.Size
	// footerSize is the length of the fixed trailer.
	footerSize = 8 /*magic*/ + 4 /*version*/ + 8 /*plainSize*/ + 8 /*numChunks*/ + hashSize /*root*/ + sha256.Size /*mac*/
)

var footerMagic = [8]byte{'S', 'G', 'P', 'F', 'S', 'v', '0', '1'}

// Errors returned by the protected file system.
var (
	// ErrCorrupt is returned when a protected file fails integrity
	// verification anywhere (chunk, tree, or footer).
	ErrCorrupt = errors.New("pfs: integrity verification failed")
	// ErrReadRange is returned for out-of-range random access.
	ErrReadRange = errors.New("pfs: read out of range")
)

// Overhead returns the total ciphertext expansion for a plaintext of the
// given size: per-chunk AEAD overhead, the stored Merkle tree levels, and
// the footer. The storage-overhead experiment (paper §VII-B) uses it as
// the predicted value to compare measurements against.
func Overhead(plainSize int64) int64 {
	chunks := numChunks(plainSize)
	return chunks*pae.Overhead + storedNodeCount(chunks)*hashSize + footerSize
}

func numChunks(plainSize int64) int64 {
	if plainSize == 0 {
		return 1 // a single empty chunk keeps the format uniform
	}
	return (plainSize + ChunkSize - 1) / ChunkSize
}

// storedNodeCount returns the number of Merkle nodes persisted for a tree
// with n leaves. Leaf hashes are recomputable from the chunks and are
// not stored; all levels above the leaves are.
func storedNodeCount(n int64) int64 {
	var total int64
	for n > 1 {
		n = (n + 1) / 2
		total += n
	}
	return total
}

// Keys is a file key's opened key schedule: the chunk AEAD and the
// footer-MAC key, derived from the file key under separate labels so
// chunk and metadata protection are domain separated. Deriving them costs
// three HKDF runs and an AES-GCM key expansion — several times the work of
// sealing one small file — so callers that touch a file repeatedly keep
// its Keys. Immutable and safe for concurrent use; holding one is the
// same trust statement as holding the file key.
type Keys struct {
	cipher *pae.Cipher
	mac    []byte
}

// KeysSize is the heap one Keys retains, for callers that account cached
// ones: the struct (32), the MAC key (32), the pae.Cipher (16), and the
// standard library's AES-GCM object — encryption and decryption round
// keys, GHASH product table and two size words, 760 bytes in the
// allocator's 768-byte class.
const KeysSize = 32 + 32 + 16 + 768

// NewKeys derives and opens the key schedule of fileKey.
func NewKeys(fileKey pae.Key) (*Keys, error) {
	ck, err := pae.DeriveKey(fileKey[:], "pfs-chunk-key", nil)
	if err != nil {
		return nil, err
	}
	cipher, err := pae.NewCipher(ck)
	if err != nil {
		return nil, err
	}
	mac, err := pae.DeriveBytes(fileKey[:], "pfs-footer-mac", nil, 32)
	if err != nil {
		return nil, err
	}
	return &Keys{cipher: cipher, mac: mac}, nil
}

// Format versions, from the footer. Writers write formatVersion only.
const (
	formatV1      uint32 = 1 // leaf over the chunk ciphertext
	formatVersion uint32 = 2 // leaf over the chunk's nonce and tag
)

// leafHasher is a pooled SHA-256 state; its sum lives in the pooled
// value too (a local passed to hash.Hash.Sum would escape), so a v1
// leaf allocates nothing.
type leafHasher struct {
	h   hash.Hash
	sum [hashSize]byte
}

var (
	leafHashers = sync.Pool{New: func() any { return &leafHasher{h: sha256.New()} }}
	leafPrefix  = []byte{0x00} // v1 leaf domain separator
)

// leafOf returns the Merkle leaf of a sealed chunk, nonce ‖ ciphertext ‖
// tag, under the given format version. A v2 leaf reads only the nonce and
// the tag, so ct may be just those 28 bytes.
func leafOf(version uint32, ct []byte) [hashSize]byte {
	if version != formatV1 {
		var b [1 + pae.Overhead]byte
		b[0] = 0x02 // v2 leaf domain separator
		copy(b[1:], ct[:pae.NonceSize])
		copy(b[1+pae.NonceSize:], ct[len(ct)-pae.TagSize:])
		return sha256.Sum256(b[:])
	}
	lh := leafHashers.Get().(*leafHasher)
	lh.h.Reset()
	lh.h.Write(leafPrefix)
	lh.h.Write(ct)
	out := [hashSize]byte(lh.h.Sum(lh.sum[:0]))
	leafHashers.Put(lh)
	return out
}

func innerHash(left, right [hashSize]byte) [hashSize]byte {
	var b [1 + 2*hashSize]byte
	b[0] = 0x01 // inner-node domain separator
	copy(b[1:], left[:])
	copy(b[1+hashSize:], right[:])
	return sha256.Sum256(b[:])
}

// buildTree builds a Merkle tree bottom-up over the leaf hashes. The
// returned slice stores levels from leaves upward: level 0 is the leaves,
// the last level is the single root. Odd nodes are promoted unchanged
// (Bitcoin-style duplication is avoided; promotion keeps proofs simple
// and collision-free together with the domain separators and the leaf
// count authenticated in the footer).
func buildTree(leaves [][hashSize]byte) [][][hashSize]byte {
	levels := [][][hashSize]byte{leaves}
	for len(levels[len(levels)-1]) > 1 {
		prev := levels[len(levels)-1]
		next := make([][hashSize]byte, 0, (len(prev)+1)/2)
		for i := 0; i < len(prev); i += 2 {
			if i+1 < len(prev) {
				next = append(next, innerHash(prev[i], prev[i+1]))
			} else {
				next = append(next, prev[i])
			}
		}
		levels = append(levels, next)
	}
	return levels
}

type footer struct {
	version   uint32
	plainSize int64
	numChunks int64
	root      [hashSize]byte
}

// chunksEnd is the length of the chunk region of the footer's blob.
func (f footer) chunksEnd() int64 { return f.plainSize + f.numChunks*pae.Overhead }

// append appends the encoded, MACed footer to out.
func (f footer) append(out, key []byte) []byte {
	start := len(out)
	out = append(out, footerMagic[:]...)
	out = binary.BigEndian.AppendUint32(out, f.version)
	out = binary.BigEndian.AppendUint64(out, uint64(f.plainSize))
	out = binary.BigEndian.AppendUint64(out, uint64(f.numChunks))
	out = append(out, f.root[:]...)
	mac := pae.MAC(key, out[start:])
	return append(out, mac[:]...)
}

// parseFooter authenticates raw, the footer of a blob of size bytes, and
// checks that the blob has the length the footer implies.
func parseFooter(key, raw []byte, size int64) (footer, error) {
	if len(raw) != footerSize {
		return footer{}, ErrCorrupt
	}
	body, mac := raw[:footerSize-sha256.Size], raw[footerSize-sha256.Size:]
	if !pae.VerifyMAC(key, body, mac) {
		return footer{}, ErrCorrupt
	}
	if !bytes.Equal(body[:8], footerMagic[:]) {
		return footer{}, ErrCorrupt
	}
	f := footer{
		version:   binary.BigEndian.Uint32(body[8:12]),
		plainSize: int64(binary.BigEndian.Uint64(body[12:20])),
		numChunks: int64(binary.BigEndian.Uint64(body[20:28])),
	}
	copy(f.root[:], body[28:28+hashSize])
	if f.version != formatV1 && f.version != formatVersion ||
		f.plainSize < 0 || f.numChunks != numChunks(f.plainSize) ||
		f.chunksEnd()+storedNodeCount(f.numChunks)*hashSize+footerSize != size {
		return footer{}, ErrCorrupt
	}
	return f, nil
}
