package pfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"segshare/internal/pae"
)

// withFooterVersion returns a copy of blob whose footer claims version
// and carries a valid MAC for that claim: what a holder of the MAC key,
// and nobody else, can do to relabel a blob. Chunks and stored nodes are
// left as they are.
func withFooterVersion(keys *Keys, blob []byte, version uint32) []byte {
	out := bytes.Clone(blob)
	body := out[len(out)-footerSize : len(out)-hashSize]
	binary.BigEndian.PutUint32(body[8:12], version)
	mac := pae.MAC(keys.mac, body)
	copy(out[len(out)-hashSize:], mac[:])
	return out
}

// resealTree returns a copy of blob whose stored nodes and footer are
// rebuilt under version's leaf rule: a valid blob of that version with
// the same chunks. It seals version 1 blobs, which no writer produces.
func resealTree(t testing.TB, keys *Keys, blob []byte, version uint32) []byte {
	t.Helper()
	out := bytes.Clone(blob)
	f, err := parseFooter(keys.mac, out[len(out)-footerSize:], int64(len(out)))
	if err != nil {
		t.Fatal(err)
	}
	chunksEnd := f.chunksEnd()
	w := window{sealed: out[:chunksEnd], leaves: make([][hashSize]byte, f.numChunks)}
	for i := range w.leaves {
		w.leaves[i] = leafOf(version, w.chunk(i))
	}
	levels := buildTree(w.leaves)
	pos := int(chunksEnd)
	for _, level := range levels[1:] {
		for _, node := range level {
			pos += copy(out[pos:], node[:])
		}
	}
	f.version, f.root = version, levels[len(levels)-1][0]
	f.append(out[:pos], keys.mac)
	return out
}

// TestChunkFromOtherVersionDetected is the property the Merkle tree
// exists for. Content keys belong to a name and outlive its versions, so
// a chunk of an older version of the same file still opens under the
// file key and its positional AAD; only the root the footer authenticates
// tells it from the current chunk. Spliced into the current version at
// the first, a middle and the last chunk — and into a one-chunk file,
// whose tree is only its root — it must be rejected by the full open
// and by ReadAt. Relabelling a blob's footer as the other
// format version, with a valid MAC, must be rejected too: each version's
// leaves rebuild another root.
func TestChunkFromOtherVersionDetected(t *testing.T) {
	key, fileID := compatKeyID(t)
	keys, err := NewKeys(key)
	if err != nil {
		t.Fatal(err)
	}
	const ctChunk = ChunkSize + pae.Overhead
	for _, size := range []int{5*ChunkSize + 100, 100} {
		older, err := keys.AppendEncrypt(nil, fileID, compatPlain(size))
		if err != nil {
			t.Fatal(err)
		}
		newer, err := keys.AppendEncrypt(nil, fileID, bytes.Repeat([]byte{0xA5}, size))
		if err != nil {
			t.Fatal(err)
		}
		last := int(numChunks(int64(size))) - 1
		for _, i := range []int{0, last / 2, last} {
			spliced := bytes.Clone(newer)
			end := min((i+1)*ctChunk, size+(last+1)*pae.Overhead)
			copy(spliced[i*ctChunk:end], older[i*ctChunk:end])
			aad := binary.BigEndian.AppendUint64(nil, uint64(i))
			if _, err := keys.cipher.Open(bytes.Clone(spliced[i*ctChunk:end]), append(aad, fileID...)); err != nil {
				t.Fatalf("size %d: the older chunk %d does not open on its own: %v", size, i, err)
			}
			assertRejected(t, keys, fileID, spliced, int64(i))
		}
		f, err := parseFooter(keys.mac, newer[len(newer)-footerSize:], int64(len(newer)))
		if err != nil {
			t.Fatal(err)
		}
		assertRejected(t, keys, fileID, withFooterVersion(keys, newer, 3-f.version), 0)
	}

	// The other direction, on a version 1 blob of an earlier writer.
	for _, fx := range loadFixtures(t) {
		if fx.wantVersion == formatV1 && len(fx.plain) > 0 {
			assertRejected(t, fx.keys, fx.fileID, withFooterVersion(fx.keys, fx.blob, 2), 0)
		}
	}
}

// assertRejected requires the full open of blob, and a ReadAt of its
// chunk index, to fail with ErrCorrupt.
func assertRejected(t *testing.T, keys *Keys, fileID, blob []byte, index int64) {
	t.Helper()
	if _, err := openInPlace(t, keys, fileID, blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("chunk %d: in-place open: %v, want ErrCorrupt", index, err)
	}
	r, err := keys.Open(fileID, bytes.NewReader(blob), int64(len(blob)))
	if err == nil {
		_, err = r.ReadAt(make([]byte, 1), index*ChunkSize)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("chunk %d: ReadAt: %v, want ErrCorrupt", index, err)
	}
}

// countingReaderAt counts the bytes read through it.
type countingReaderAt struct {
	src *bytes.Reader
	n   int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.n += int64(len(p))
	return c.src.ReadAt(p, off)
}

// TestReadAtSiblingReadsTagOnly pins the random-access cost of the tag
// leaf: reading chunk 0 of a 1 MiB blob reads the footer, the chunk, its
// sibling's nonce and tag, and one stored node per level above the
// leaves short of the root — not the sibling's 4 KiB ciphertext.
func TestReadAtSiblingReadsTagOnly(t *testing.T) {
	key, fileID := compatKeyID(t)
	keys, err := NewKeys(key)
	if err != nil {
		t.Fatal(err)
	}
	plain := compatPlain(1 << 20)
	blob, err := keys.AppendEncrypt(nil, fileID, plain)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingReaderAt{src: bytes.NewReader(blob)}
	r, err := keys.Open(fileID, src, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, ChunkSize)
	if _, err := r.ReadAt(got, 0); err != nil || !bytes.Equal(got, plain[:ChunkSize]) {
		t.Fatalf("ReadAt chunk 0: %v", err)
	}
	levels := int64(len(r.levelCounts) - 1) // stored levels; the root is the footer's
	if limit := footerSize + ChunkSize + pae.Overhead + pae.Overhead + hashSize*(levels-1); src.n > limit {
		t.Fatalf("ReadAt of chunk 0 read %d bytes, want at most %d", src.n, limit)
	}
}
