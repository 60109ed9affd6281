package pfs

import (
	"fmt"
	"io"

	"segshare/internal/pae"
)

// Reader provides verified random access to a protected file. Every chunk
// read is authenticated (AES-GCM) and its Merkle path is checked against
// the root authenticated by the footer, so a tampered, reordered,
// truncated, or extended blob is always detected. Multiple Readers over
// the same blob may be used concurrently, mirroring the library's
// many-readers discipline.
type Reader struct {
	cipher *pae.Cipher
	fileID []byte
	src    io.ReaderAt
	ftr    footer

	levelCounts []int64
	levelOffs   []int64
}

// Open parses and verifies the footer of a protected file stored in src
// (whose total encoded length is size) and returns a Reader. It returns
// ErrCorrupt if the footer fails authentication or the structure is
// implausible.
func (k *Keys) Open(fileID []byte, src io.ReaderAt, size int64) (*Reader, error) {
	if size < footerSize {
		return nil, ErrCorrupt
	}
	rawFooter := make([]byte, footerSize)
	if _, err := src.ReadAt(rawFooter, size-footerSize); err != nil {
		return nil, fmt.Errorf("pfs: read footer: %w", err)
	}
	ftr, err := parseFooter(k.mac, rawFooter, size)
	if err != nil {
		return nil, err
	}

	r := &Reader{
		cipher: k.cipher,
		fileID: append([]byte(nil), fileID...),
		src:    src,
		ftr:    ftr,
	}
	// Precompute the node counts and byte offsets of each tree level. The
	// leaf level (0) is not stored — its offset is a sentinel — because
	// leaf hashes are recomputed from the chunks.
	count := ftr.numChunks
	off := ftr.chunksEnd()
	r.levelCounts = append(r.levelCounts, count)
	r.levelOffs = append(r.levelOffs, -1)
	for count > 1 {
		count = (count + 1) / 2
		r.levelCounts = append(r.levelCounts, count)
		r.levelOffs = append(r.levelOffs, off)
		off += count * hashSize
	}
	return r, nil
}

// Open is NewKeys(fileKey) + Keys.Open.
func Open(fileKey pae.Key, fileID []byte, src io.ReaderAt, size int64) (*Reader, error) {
	k, err := NewKeys(fileKey)
	if err != nil {
		return nil, err
	}
	return k.Open(fileID, src, size)
}

// Size returns the plaintext size of the protected file.
func (r *Reader) Size() int64 { return r.ftr.plainSize }

func (r *Reader) chunkExtent(index int64) (off, ctLen int64) {
	pt := min(ChunkSize, r.ftr.plainSize-index*ChunkSize) // the last chunk may be short
	return index * (ChunkSize + pae.Overhead), pt + pae.Overhead
}

func (r *Reader) readNode(level int, index int64) ([hashSize]byte, error) {
	if level == 0 {
		// Leaf hashes are not stored: recompute the sibling's from its
		// nonce and tag, or for v1 from its whole ciphertext.
		off, ctLen := r.chunkExtent(index)
		var ct []byte
		var err error
		if r.ftr.version == formatV1 {
			ct = make([]byte, ctLen)
			_, err = r.src.ReadAt(ct, off)
		} else {
			ct = make([]byte, pae.Overhead) // nonce ‖ tag
			if _, err = r.src.ReadAt(ct[:pae.NonceSize], off); err == nil {
				_, err = r.src.ReadAt(ct[pae.NonceSize:], off+ctLen-pae.TagSize)
			}
		}
		if err != nil {
			return [hashSize]byte{}, fmt.Errorf("pfs: read sibling chunk: %w", err)
		}
		return leafOf(r.ftr.version, ct), nil
	}
	var node [hashSize]byte
	if _, err := r.src.ReadAt(node[:], r.levelOffs[level]+index*hashSize); err != nil {
		return node, fmt.Errorf("pfs: read tree node: %w", err)
	}
	return node, nil
}

// verifyPath checks that leaf (chunk index's recomputed leaf hash) is
// consistent with the authenticated root, reading only the
// sibling nodes along the path.
func (r *Reader) verifyPath(index int64, leaf [hashSize]byte) error {
	node := leaf
	idx := index
	for level := 0; level < len(r.levelCounts)-1; level++ {
		sibling := idx ^ 1
		if sibling >= r.levelCounts[level] {
			// Odd node promoted unchanged to the next level.
			idx >>= 1
			continue
		}
		sib, err := r.readNode(level, sibling)
		if err != nil {
			return err
		}
		if idx&1 == 0 {
			node = innerHash(node, sib)
		} else {
			node = innerHash(sib, node)
		}
		idx >>= 1
	}
	if node != r.ftr.root {
		return ErrCorrupt
	}
	return nil
}

// chunk reads, opens and verifies the chunk with the given index: the
// open kernel over a one-chunk window, then the chunk's Merkle path.
func (r *Reader) chunk(index int64) ([]byte, error) {
	off, ctLen := r.chunkExtent(index)
	w := window{cipher: r.cipher, version: r.ftr.version, fileID: r.fileID, first: index,
		sealed: make([]byte, ctLen), leaves: make([][hashSize]byte, 1)}
	if _, err := r.src.ReadAt(w.sealed, off); err != nil {
		return nil, fmt.Errorf("%w: chunk %d unreadable", ErrCorrupt, index)
	}
	if err := w.open(nil); err != nil {
		return nil, err
	}
	if err := r.verifyPath(index, w.leaves[0]); err != nil {
		return nil, err
	}
	return w.gather(), nil
}

// ReadAt implements io.ReaderAt over the plaintext.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, ErrReadRange
	}
	if off >= r.ftr.plainSize {
		if len(p) == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	read := 0
	for read < len(p) && off < r.ftr.plainSize {
		idx := off / ChunkSize
		pt, err := r.chunk(idx)
		if err != nil {
			return read, err
		}
		within := off - idx*ChunkSize
		n := copy(p[read:], pt[within:])
		read += n
		off += int64(n)
	}
	if read < len(p) {
		return read, io.EOF
	}
	return read, nil
}
