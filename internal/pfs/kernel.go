package pfs

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"segshare/internal/pae"
)

// The chunk-crypto kernel. Per-chunk AES-GCM with independent nonces and
// positional associated data is embarrassingly parallel, and the encoded
// layout is fully deterministic: chunk i's ciphertext occupies exactly
// [i*(ChunkSize+pae.Overhead), ...) of the blob. So there is one seal
// loop and one open loop, both over a window of chunks whose plaintext
// and ciphertext buffers the caller owns: chunk i is sealed/opened
// straight into its final slot (no per-chunk allocation, no reassembly
// pass) and its leaf hash recorded. The loop runs inline on the caller's
// goroutine for small windows or workers <= 1 and on `workers`
// goroutines otherwise — serial is workers = 1 of the same code, so the
// bytes and the checks cannot differ between the two. The one-shot entry
// points below pass the whole file as a single window and then build
// (seal) or verify (open) the Merkle tree and footer; a bounded-memory
// streaming front-end would be a loop over windows on the same kernel.

// maxDefaultWorkers caps the default pool: past ~8 workers AES-GCM on a
// single stream is memory-bandwidth-bound and more goroutines only add
// scheduling noise.
const maxDefaultWorkers = 8

// minParallelChunks is the small-window cutoff: below it the goroutine
// startup cost exceeds the sealing work and the inline loop wins.
const minParallelChunks = 4

// DefaultWorkers returns the default crypto worker-pool size,
// min(GOMAXPROCS, 8).
func DefaultWorkers() int {
	return min(runtime.GOMAXPROCS(0), maxDefaultWorkers)
}

// UsesParallel reports whether sealing or opening a plaintext of the
// given size fans out to worker goroutines under the given worker count,
// or runs inline on the caller's goroutine. Exported so callers can
// label their metrics without duplicating the cutoff policy.
func UsesParallel(plainSize int64, workers int) bool {
	return fansOut(numChunks(plainSize), workers)
}

// fansOut is the one cutoff policy: a run of chunks goes to worker
// goroutines only when there is more than one and enough chunks to pay
// for starting them.
func fansOut(chunks int64, workers int) bool {
	return workers > 1 && chunks >= minParallelChunks
}

// window is a run of consecutive chunks of one protected file over
// caller-owned buffers. plain and sealed hold the chunks back to back
// (every chunk full except possibly the last; sealed is exactly
// len(plain) + len(leaves)*pae.Overhead bytes). Sealing reads plain and
// fills sealed; opening reads sealed and fills plain; both fill leaves.
type window struct {
	cipher *pae.Cipher
	fileID []byte
	first  int64 // file-wide index of the window's first chunk
	plain  []byte
	sealed []byte
	leaves [][hashSize]byte
}

// slot returns chunk i's plaintext and ciphertext extents. The
// three-index slices pin capacity so AEAD output appended at [:0] cannot
// bleed into the next chunk's region.
func (w *window) slot(i int) (pt, ct []byte) {
	po := i * ChunkSize
	pe := min(po+ChunkSize, len(w.plain))
	co := i * (ChunkSize + pae.Overhead)
	ce := co + (pe - po) + pae.Overhead
	return w.plain[po:pe:pe], w.sealed[co:ce:ce]
}

// cursor hands out chunk indices to the goroutines draining a window.
type cursor struct {
	next   atomic.Int64
	failed atomic.Bool
}

// each calls do once per chunk of the window with that chunk's
// associated data, BE64(file-wide index) ‖ fileID. A nil ctx is never
// canceled; a live one is checked before every chunk, so cancellation
// granularity is ChunkSize of crypto work. The first failure stops every
// goroutine at its next chunk.
func (w *window) each(ctx context.Context, workers int, do func(i int, aad []byte) error) error {
	n := len(w.leaves)
	drain := func(c *cursor) error {
		aad := make([]byte, 8+len(w.fileID))
		copy(aad[8:], w.fileID)
		for {
			i := int(c.next.Add(1) - 1)
			if i >= n || c.failed.Load() {
				return nil
			}
			if ctx != nil && ctx.Err() != nil {
				c.failed.Store(true)
				return fmt.Errorf("pfs: canceled at chunk %d: %w", w.first+int64(i), context.Cause(ctx))
			}
			binary.BigEndian.PutUint64(aad, uint64(w.first)+uint64(i))
			if err := do(i, aad); err != nil {
				c.failed.Store(true)
				return err
			}
		}
	}
	if !fansOut(int64(n), workers) {
		var c cursor
		return drain(&c)
	}
	workers = min(workers, n)
	c := new(cursor)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wi := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[wi] = drain(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// seal is the seal kernel: every chunk of plain is sealed into its slot
// of sealed and its leaf hash recorded.
func (w *window) seal(workers int) error {
	return w.each(nil, workers, func(i int, aad []byte) error {
		pt, slot := w.slot(i)
		ct, err := w.cipher.AppendSeal(slot[:0], pt, aad)
		if err != nil {
			return fmt.Errorf("pfs: seal chunk %d: %w", w.first+int64(i), err)
		}
		w.leaves[i] = leafHash(ct)
		return nil
	})
}

// open is the open kernel: every chunk of sealed is authenticated and
// opened into its slot of plain, and its leaf hash recorded. The caller
// must not release plain before it has checked the leaves against the
// authenticated root.
func (w *window) open(ctx context.Context, workers int) error {
	return w.each(ctx, workers, func(i int, aad []byte) error {
		slot, ct := w.slot(i)
		w.leaves[i] = leafHash(ct)
		if _, err := w.cipher.AppendOpen(slot[:0], ct, aad); err != nil {
			return ErrCorrupt
		}
		return nil
	})
}

// AppendEncrypt encrypts and integrity-protects plaintext into a
// self-contained blob appended to dst, and returns the extended slice.
// fileID binds the chunks to a logical file (swapping blobs between files
// is detected). workers bounds the goroutines sealing chunks; the encoded
// blob is byte-compatible (modulo the random nonces) whatever its value.
// When dst has len(plaintext)+Overhead spare capacity no further
// allocation happens, which lets callers embed a protected blob directly
// inside a larger object (see internal/dedup) without an intermediate
// copy.
func (k *Keys) AppendEncrypt(dst, fileID, plaintext []byte, workers int) ([]byte, error) {
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
		cipher: k.cipher,
		fileID: fileID,
		plain:  plaintext,
		sealed: body[:chunksEnd],
		leaves: make([][hashSize]byte, nc),
	}
	if err := w.seal(workers); err != nil {
		return nil, err
	}
	levels := buildTree(w.leaves)
	pos := chunksEnd
	for _, level := range levels[1:] {
		for _, node := range level {
			pos += int64(copy(body[pos:], node[:]))
		}
	}
	f := footer{plainSize: plainSize, numChunks: nc, root: levels[len(levels)-1][0]}
	copy(body[pos:], f.encode(k.mac))
	return out, nil
}

// DecryptCtx verifies the whole blob and returns the plaintext: every
// chunk is authenticated under its positional associated data, the Merkle
// tree is rebuilt from the chunk ciphertexts and checked against the root
// the footer authenticates, and the stored inner-node region is compared
// against the rebuilt tree, so tampering anywhere in the blob is detected.
// workers bounds the goroutines opening chunks. Opening stops at the next
// chunk boundary once ctx ends, so a disconnected client stops consuming
// crypto CPU within one chunk, and the call returns an error wrapping the
// context's cause. A nil ctx is never canceled.
func (k *Keys) DecryptCtx(ctx context.Context, fileID, blob []byte, workers int) ([]byte, error) {
	r, err := k.Open(fileID, bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		return nil, err
	}
	// Open validated the blob's structure, so the chunk and tree extents
	// index it in bounds by construction.
	w := window{
		cipher: k.cipher,
		fileID: fileID,
		plain:  make([]byte, r.ftr.plainSize),
		sealed: blob[:r.chunksEnd],
		leaves: make([][hashSize]byte, r.ftr.numChunks),
	}
	if err := w.open(ctx, workers); err != nil {
		return nil, err
	}
	levels := buildTree(w.leaves)
	if levels[len(levels)-1][0] != r.ftr.root {
		return nil, ErrCorrupt
	}
	off := r.chunksEnd
	for _, level := range levels[1:] {
		for _, node := range level {
			if !bytes.Equal(blob[off:off+hashSize], node[:]) {
				return nil, ErrCorrupt
			}
			off += hashSize
		}
	}
	return w.plain, nil
}

// The package-level entry points take the raw file key: each call pays
// NewKeys and then runs the method, so there is one kernel either way.

// EncryptWorkers is NewKeys(fileKey) + AppendEncrypt onto a fresh slice.
func EncryptWorkers(fileKey pae.Key, fileID, plaintext []byte, workers int) ([]byte, error) {
	return AppendEncrypt(nil, fileKey, fileID, plaintext, workers)
}

// AppendEncrypt is NewKeys(fileKey) + Keys.AppendEncrypt.
func AppendEncrypt(dst []byte, fileKey pae.Key, fileID, plaintext []byte, workers int) ([]byte, error) {
	k, err := NewKeys(fileKey)
	if err != nil {
		return nil, err
	}
	return k.AppendEncrypt(dst, fileID, plaintext, workers)
}

// DecryptWorkers is NewKeys(fileKey) + Keys.DecryptCtx, never canceled.
func DecryptWorkers(fileKey pae.Key, fileID, blob []byte, workers int) ([]byte, error) {
	k, err := NewKeys(fileKey)
	if err != nil {
		return nil, err
	}
	return k.DecryptCtx(nil, fileID, blob, workers)
}
