package pfs

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"segshare/internal/pae"
)

// The chunk-crypto kernel. Per-chunk AES-GCM with independent nonces and
// positional associated data, and a fully deterministic encoded layout:
// chunk i's ciphertext occupies exactly [i*(ChunkSize+pae.Overhead), ...)
// of the blob. So there is one seal loop and one open loop, both over a
// window of chunks whose buffers the caller owns: chunk i is sealed
// straight into its final slot, or opened in place over its own
// ciphertext (no per-chunk allocation), and its leaf hash recorded. Both
// loops run inline on the caller's goroutine: the server already runs one
// request per core, so the kernel starts no goroutine of its own. The
// one-shot entry points below pass the whole file as a single window and
// then build (seal) or verify (open) the Merkle tree and footer; a
// bounded-memory streaming front-end would be a loop over windows on the
// same kernel.

// DefaultWorkers returns 1: the kernel has no worker pool.
//
// Deprecated: sealing and opening run on the caller's goroutine; the
// worker count is ignored everywhere.
func DefaultWorkers() int { return 1 }

// window is a run of consecutive chunks of one protected file over
// caller-owned buffers. sealed holds the chunks back to back (every chunk
// full except possibly the last), and so does plain when sealing (sealed
// is then exactly len(plain) + len(leaves)*pae.Overhead bytes). Sealing
// reads plain and fills sealed; opening overwrites sealed in place; both
// fill leaves, under the leaf rule of version.
type window struct {
	cipher  *pae.Cipher
	version uint32
	fileID  []byte
	first   int64 // file-wide index of the window's first chunk
	plain   []byte
	sealed  []byte
	leaves  [][hashSize]byte
}

// chunk returns chunk i's extent of sealed. The three-index slice pins
// capacity so AEAD output written at [:0] cannot bleed into the next
// chunk's region.
func (w *window) chunk(i int) []byte {
	co := i * (ChunkSize + pae.Overhead)
	ce := min(co+ChunkSize+pae.Overhead, len(w.sealed))
	return w.sealed[co:ce:ce]
}

// each calls do once per chunk of the window, in order, with that chunk's
// associated data, BE64(file-wide index) ‖ fileID. A nil ctx is never
// canceled; a live one is checked before every chunk, so cancellation
// granularity is ChunkSize of crypto work. The first failure stops the
// loop.
func (w *window) each(ctx context.Context, do func(i int, aad []byte) error) error {
	aad := make([]byte, 8+len(w.fileID))
	copy(aad[8:], w.fileID)
	for i := range w.leaves {
		if ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("pfs: canceled at chunk %d: %w", w.first+int64(i), context.Cause(ctx))
		}
		binary.BigEndian.PutUint64(aad, uint64(w.first)+uint64(i))
		if err := do(i, aad); err != nil {
			return err
		}
	}
	return nil
}

// seal is the seal kernel: every chunk of plain is sealed into its slot
// of sealed and its leaf hash recorded.
func (w *window) seal() error {
	return w.each(nil, func(i int, aad []byte) error {
		pt := w.plain[i*ChunkSize : min((i+1)*ChunkSize, len(w.plain))]
		ct, err := w.cipher.AppendSeal(w.chunk(i)[:0], pt, aad)
		if err != nil {
			return fmt.Errorf("pfs: seal chunk %d: %w", w.first+int64(i), err)
		}
		w.leaves[i] = leafOf(w.version, ct)
		return nil
	})
}

// open is the open kernel: every chunk of sealed has its leaf hash
// recorded and is then authenticated and opened in place, its plaintext
// written over its own ciphertext from the end of the nonce on (an exact
// alias of the AEAD input, which AES-GCM allows). The caller must check
// the leaves against the authenticated root before it calls gather.
func (w *window) open(ctx context.Context) error {
	return w.each(ctx, func(i int, aad []byte) error {
		ct := w.chunk(i)
		w.leaves[i] = leafOf(w.version, ct)
		if _, err := w.cipher.AppendOpen(ct[pae.NonceSize:pae.NonceSize], ct, aad); err != nil {
			return ErrCorrupt
		}
		return nil
	})
}

// gather moves the chunks open left in place to the front of sealed, in
// order, and returns the window's plaintext. Chunk i lands at
// i*ChunkSize, never after where open left it, so one forward pass of
// copies is safe.
func (w *window) gather() []byte {
	n := 0
	for i := range w.leaves {
		ct := w.chunk(i)
		n += copy(w.sealed[n:], ct[pae.NonceSize:len(ct)-pae.TagSize])
	}
	return w.sealed[:n]
}

// AppendEncrypt encrypts and integrity-protects plaintext into a
// self-contained blob appended to dst, and returns the extended slice.
// fileID binds the chunks to a logical file (swapping blobs between files
// is detected). When dst has len(plaintext)+Overhead spare capacity no
// further allocation happens, which lets callers embed a protected blob
// directly inside a larger object (see internal/dedup) without an
// intermediate copy.
func (k *Keys) AppendEncrypt(dst, fileID, plaintext []byte) ([]byte, error) {
	plainSize := int64(len(plaintext))
	nc := numChunks(plainSize)
	need := len(dst) + int(plainSize+Overhead(plainSize))
	if cap(dst) < need {
		grown := make([]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	out := dst[:need]
	body := out[len(dst):]
	chunksEnd := plainSize + nc*pae.Overhead
	w := window{
		cipher:  k.cipher,
		version: formatVersion,
		fileID:  fileID,
		plain:   plaintext,
		sealed:  body[:chunksEnd],
		leaves:  make([][hashSize]byte, nc),
	}
	if err := w.seal(); err != nil {
		return nil, err
	}
	levels := buildTree(w.leaves)
	pos := chunksEnd
	for _, level := range levels[1:] {
		for _, node := range level {
			pos += int64(copy(body[pos:], node[:]))
		}
	}
	f := footer{version: formatVersion, plainSize: plainSize, numChunks: nc, root: levels[len(levels)-1][0]}
	f.append(body[:pos], k.mac) // into body's last footerSize bytes
	return out, nil
}

// DecryptCtx verifies the whole blob and returns the plaintext: every
// chunk is authenticated under its positional associated data, the Merkle
// tree is rebuilt from the chunks' leaves and checked against the root
// the footer authenticates, and the stored inner-node region is compared
// against the rebuilt tree, so tampering anywhere in the blob is detected.
// Opening stops at the next chunk boundary once ctx ends, so a
// disconnected client stops consuming crypto CPU within one chunk, and
// the call returns an error wrapping the context's cause. A nil ctx is
// never canceled.
//
// DecryptCtx takes ownership of blob: chunks are opened in place, and the
// plaintext returned is blob[:plainSize]. After an error blob's contents
// are unspecified. A caller that must keep its blob passes a copy, as
// DecryptWorkers does.
func (k *Keys) DecryptCtx(ctx context.Context, fileID, blob []byte) ([]byte, error) {
	ftr, err := parseFooter(k.mac, blob[max(len(blob)-footerSize, 0):], int64(len(blob)))
	if err != nil {
		return nil, err
	}
	// parseFooter validated the blob's length, so the chunk and tree
	// extents index it in bounds by construction.
	w := window{
		cipher:  k.cipher,
		version: ftr.version,
		fileID:  fileID,
		sealed:  blob[:ftr.chunksEnd()],
		leaves:  make([][hashSize]byte, ftr.numChunks),
	}
	if err := w.open(ctx); err != nil {
		return nil, err
	}
	levels := buildTree(w.leaves)
	if levels[len(levels)-1][0] != ftr.root {
		return nil, ErrCorrupt
	}
	off := ftr.chunksEnd()
	for _, level := range levels[1:] {
		for _, node := range level {
			if !bytes.Equal(blob[off:off+hashSize], node[:]) {
				return nil, ErrCorrupt
			}
			off += hashSize
		}
	}
	return w.gather(), nil
}

// The package-level entry points take the raw file key: each call pays
// NewKeys and then runs the method, so there is one kernel either way.
// Their workers argument is ignored.

// EncryptWorkers is NewKeys(fileKey) + AppendEncrypt onto a fresh slice.
//
// Deprecated: workers is ignored; use NewKeys and Keys.AppendEncrypt.
func EncryptWorkers(fileKey pae.Key, fileID, plaintext []byte, workers int) ([]byte, error) {
	return AppendEncrypt(nil, fileKey, fileID, plaintext, workers)
}

// AppendEncrypt is NewKeys(fileKey) + Keys.AppendEncrypt.
//
// Deprecated: workers is ignored; use NewKeys and Keys.AppendEncrypt.
func AppendEncrypt(dst []byte, fileKey pae.Key, fileID, plaintext []byte, workers int) ([]byte, error) {
	k, err := NewKeys(fileKey)
	if err != nil {
		return nil, err
	}
	return k.AppendEncrypt(dst, fileID, plaintext)
}

// DecryptWorkers is NewKeys(fileKey) + Keys.DecryptCtx on a copy of blob,
// never canceled: the caller keeps its blob.
//
// Deprecated: workers is ignored; use NewKeys and Keys.DecryptCtx.
func DecryptWorkers(fileKey pae.Key, fileID, blob []byte, workers int) ([]byte, error) {
	k, err := NewKeys(fileKey)
	if err != nil {
		return nil, err
	}
	return k.DecryptCtx(nil, fileID, bytes.Clone(blob))
}
