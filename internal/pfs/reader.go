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

	chunksEnd   int64
	lastChunkPt int64
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
	ftr, err := parseFooter(k.mac, rawFooter)
	if err != nil {
		return nil, err
	}

	r := &Reader{
		cipher: k.cipher,
		fileID: append([]byte(nil), fileID...),
		src:    src,
		ftr:    ftr,
	}
	r.lastChunkPt = ftr.plainSize - (ftr.numChunks-1)*ChunkSize
	r.chunksEnd = (ftr.numChunks-1)*(ChunkSize+pae.Overhead) + r.lastChunkPt + pae.Overhead

	// Precompute the node counts and byte offsets of each tree level. The
	// leaf level (0) is not stored — its offset is a sentinel — because
	// leaf hashes are recomputed from the chunk ciphertexts.
	count := ftr.numChunks
	off := r.chunksEnd
	r.levelCounts = append(r.levelCounts, count)
	r.levelOffs = append(r.levelOffs, -1)
	for count > 1 {
		count = (count + 1) / 2
		r.levelCounts = append(r.levelCounts, count)
		r.levelOffs = append(r.levelOffs, off)
		off += count * hashSize
	}
	if off+footerSize != size {
		return nil, ErrCorrupt
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
	off = index * (ChunkSize + pae.Overhead)
	ctLen = ChunkSize + pae.Overhead
	if index == r.ftr.numChunks-1 {
		ctLen = r.lastChunkPt + pae.Overhead
	}
	return off, ctLen
}

func (r *Reader) readNode(level int, index int64) ([hashSize]byte, error) {
	if level == 0 {
		// Leaf hashes are not stored; recompute from the sibling chunk's
		// ciphertext.
		off, ctLen := r.chunkExtent(index)
		ct := make([]byte, ctLen)
		if _, err := r.src.ReadAt(ct, off); err != nil {
			return [hashSize]byte{}, fmt.Errorf("pfs: read sibling chunk: %w", err)
		}
		return leafHash(ct), nil
	}
	var node [hashSize]byte
	if _, err := r.src.ReadAt(node[:], r.levelOffs[level]+index*hashSize); err != nil {
		return node, fmt.Errorf("pfs: read tree node: %w", err)
	}
	return node, nil
}

// verifyPath checks that leaf (the recomputed hash of chunk index's
// ciphertext) is consistent with the authenticated root, reading only the
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

// chunk reads, verifies, and decrypts the chunk with the given index.
func (r *Reader) chunk(index int64) ([]byte, error) {
	off, ctLen := r.chunkExtent(index)
	ct := make([]byte, ctLen)
	if _, err := r.src.ReadAt(ct, off); err != nil {
		return nil, fmt.Errorf("%w: chunk %d unreadable", ErrCorrupt, index)
	}
	if err := r.verifyPath(index, leafHash(ct)); err != nil {
		return nil, err
	}
	pt, err := r.cipher.Open(ct, chunkAAD(r.fileID, index))
	if err != nil {
		return nil, ErrCorrupt
	}
	return pt, nil
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
