package pfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"segshare/internal/pae"
)

func testKey(t *testing.T) pae.Key {
	t.Helper()
	k, err := pae.NewRandomKey()
	if err != nil {
		t.Fatalf("NewRandomKey: %v", err)
	}
	return k
}

func deterministicData(n int) []byte {
	data := make([]byte, n)
	rng := rand.New(rand.NewSource(int64(n)))
	rng.Read(data)
	return data
}

func TestEncryptDecryptSizes(t *testing.T) {
	key := testKey(t)
	sizes := []int{
		0, 1, 100,
		ChunkSize - 1, ChunkSize, ChunkSize + 1,
		2 * ChunkSize, 2*ChunkSize + 17,
		5 * ChunkSize, 7*ChunkSize - 1, 64 * ChunkSize,
	}
	for _, size := range sizes {
		pt := deterministicData(size)
		blob, err := EncryptWorkers(key, []byte("/f"), pt, 1)
		if err != nil {
			t.Fatalf("size %d: Encrypt: %v", size, err)
		}
		wantLen := int64(size) + Overhead(int64(size))
		if int64(len(blob)) != wantLen {
			t.Fatalf("size %d: blob %d bytes, Overhead predicts %d", size, len(blob), wantLen)
		}
		got, err := DecryptWorkers(key, []byte("/f"), blob, 1)
		if err != nil {
			t.Fatalf("size %d: Decrypt: %v", size, err)
		}
		if !bytes.Equal(got, pt) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
	}
}

func TestOverheadIsSmall(t *testing.T) {
	// The paper reports ~1% storage overhead for large files (§VII-B).
	const size = 10 << 20
	ratio := float64(Overhead(size)) / float64(size)
	if ratio > 0.02 {
		t.Fatalf("overhead ratio %.4f exceeds 2%%", ratio)
	}
}

func TestDecryptRejectsWrongKeyAndFileID(t *testing.T) {
	key := testKey(t)
	blob, err := EncryptWorkers(key, []byte("/f"), deterministicData(3*ChunkSize), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecryptWorkers(testKey(t), []byte("/f"), blob, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong key: want ErrCorrupt, got %v", err)
	}
	if _, err := DecryptWorkers(key, []byte("/other"), blob, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong file id: want ErrCorrupt, got %v", err)
	}
}

func TestTamperDetectionEveryRegion(t *testing.T) {
	key := testKey(t)
	pt := deterministicData(3*ChunkSize + 123)
	blob, err := EncryptWorkers(key, []byte("/f"), pt, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in a sample of positions across chunk data, tree, and
	// footer; all must be detected by a full read.
	positions := []int{
		0, 1000, ChunkSize + 5, 2*ChunkSize + 99, // chunk ciphertexts
		len(blob) - footerSize - 10,   // tree nodes
		len(blob) - footerSize + 2,    // footer body
		len(blob) - 1, len(blob) - 20, // footer mac / root
	}
	for _, pos := range positions {
		mutated := bytes.Clone(blob)
		mutated[pos] ^= 1
		if _, err := DecryptWorkers(key, []byte("/f"), mutated, 1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("tamper at %d: want ErrCorrupt, got %v", pos, err)
		}
	}
}

func TestTruncationAndExtensionDetected(t *testing.T) {
	key := testKey(t)
	blob, err := EncryptWorkers(key, []byte("/f"), deterministicData(4*ChunkSize), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecryptWorkers(key, []byte("/f"), blob[:len(blob)-1], 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: want ErrCorrupt, got %v", err)
	}
	if _, err := DecryptWorkers(key, []byte("/f"), append(bytes.Clone(blob), 0), 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("extended: want ErrCorrupt, got %v", err)
	}
	if _, err := DecryptWorkers(key, []byte("/f"), nil, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty blob: want ErrCorrupt, got %v", err)
	}
}

func TestChunkReorderDetected(t *testing.T) {
	key := testKey(t)
	blob, err := EncryptWorkers(key, []byte("/f"), deterministicData(4*ChunkSize), 1)
	if err != nil {
		t.Fatal(err)
	}
	mutated := bytes.Clone(blob)
	chunkLen := ChunkSize + pae.Overhead
	// Swap chunks 0 and 1.
	tmp := make([]byte, chunkLen)
	copy(tmp, mutated[:chunkLen])
	copy(mutated[:chunkLen], mutated[chunkLen:2*chunkLen])
	copy(mutated[chunkLen:2*chunkLen], tmp)
	if _, err := DecryptWorkers(key, []byte("/f"), mutated, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reorder: want ErrCorrupt, got %v", err)
	}
}

func TestRandomAccessReadAt(t *testing.T) {
	key := testKey(t)
	pt := deterministicData(5*ChunkSize + 77)
	blob, err := EncryptWorkers(key, []byte("/f"), pt, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(key, []byte("/f"), bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != int64(len(pt)) {
		t.Fatalf("Size = %d, want %d", r.Size(), len(pt))
	}

	tests := []struct {
		off int64
		n   int
	}{
		{off: 0, n: 10},
		{off: ChunkSize - 3, n: 6}, // crosses a chunk boundary
		{off: 3 * ChunkSize, n: ChunkSize},
		{off: int64(len(pt)) - 5, n: 5},
	}
	for _, tt := range tests {
		buf := make([]byte, tt.n)
		if _, err := r.ReadAt(buf, tt.off); err != nil {
			t.Fatalf("ReadAt(%d,%d): %v", tt.off, tt.n, err)
		}
		if !bytes.Equal(buf, pt[tt.off:tt.off+int64(tt.n)]) {
			t.Fatalf("ReadAt(%d,%d) mismatch", tt.off, tt.n)
		}
	}

	// Read past EOF.
	buf := make([]byte, 10)
	n, err := r.ReadAt(buf, int64(len(pt))-4)
	if n != 4 || !errors.Is(err, io.EOF) {
		t.Fatalf("partial read at tail: n=%d err=%v", n, err)
	}
	if _, err := r.ReadAt(buf, int64(len(pt))); !errors.Is(err, io.EOF) {
		t.Fatalf("read at EOF: %v", err)
	}
	if _, err := r.ReadAt(buf, -1); !errors.Is(err, ErrReadRange) {
		t.Fatalf("negative offset: %v", err)
	}
}

func TestRandomAccessDetectsChunkTamper(t *testing.T) {
	key := testKey(t)
	pt := deterministicData(6 * ChunkSize)
	blob, err := EncryptWorkers(key, []byte("/f"), pt, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with chunk 4 only; reads of chunk 1 must still succeed,
	// reads of chunk 4 must fail.
	chunkLen := ChunkSize + pae.Overhead
	blob[4*chunkLen+100] ^= 1
	r, err := Open(key, []byte("/f"), bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := r.ReadAt(buf, int64(ChunkSize)); err != nil {
		t.Fatalf("untampered chunk read failed: %v", err)
	}
	if _, err := r.ReadAt(buf, int64(4*ChunkSize)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered chunk read: want ErrCorrupt, got %v", err)
	}
}

func TestRandomAccessDetectsTreeTamper(t *testing.T) {
	key := testKey(t)
	pt := deterministicData(8 * ChunkSize)
	blob, err := EncryptWorkers(key, []byte("/f"), pt, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a stored tree node (sibling of some chunk); ReadAt of the
	// chunk whose path uses it must fail.
	chunkLen := int64(ChunkSize + pae.Overhead)
	treeStart := 8 * chunkLen
	blob[treeStart+3] ^= 1 // inside leaf node 0
	r, err := Open(key, []byte("/f"), bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	// Chunk 2's Merkle path reads stored level-1 node 0 as its sibling.
	if _, err := r.ReadAt(buf, int64(2*ChunkSize)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// Property: encrypt/decrypt round-trips for arbitrary content and IDs.
func TestQuickRoundTrip(t *testing.T) {
	key := testKey(t)
	prop := func(pt, id []byte) bool {
		blob, err := EncryptWorkers(key, id, pt, 1)
		if err != nil {
			return false
		}
		got, err := DecryptWorkers(key, id, blob, 1)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: ReadAt agrees with the plaintext for arbitrary windows.
func TestQuickReadAtWindows(t *testing.T) {
	key := testKey(t)
	pt := deterministicData(4*ChunkSize + 321)
	blob, err := EncryptWorkers(key, []byte("/f"), pt, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(key, []byte("/f"), bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	prop := func(offRaw, lenRaw uint16) bool {
		off := int64(offRaw) % int64(len(pt))
		n := int(lenRaw) % 2000
		if off+int64(n) > int64(len(pt)) {
			n = int(int64(len(pt)) - off)
		}
		buf := make([]byte, n)
		if _, err := r.ReadAt(buf, off); err != nil {
			return false
		}
		return bytes.Equal(buf, pt[off:off+int64(n)])
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
