package pfs

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"segshare/internal/pae"
)

// compatSizes covers the structural corner cases of the format: the
// empty file (single empty chunk), sub-chunk, exact single chunk, a
// one-byte tail, a multi-chunk file with a partial tail (odd leaf count
// exercising node promotion), and a larger power-of-two chunk count.
var compatSizes = []int{
	0,
	1,
	ChunkSize - 1,
	ChunkSize,
	ChunkSize + 1,
	3*ChunkSize + 7,
	16 * ChunkSize,
}

func compatKeyID(t *testing.T) (pae.Key, []byte) {
	t.Helper()
	key, err := pae.KeyFromBytes(bytes.Repeat([]byte{0x42}, pae.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	return key, []byte("compat/file")
}

func compatPlain(n int) []byte {
	p := make([]byte, n)
	rnd := rand.New(rand.NewSource(int64(n) + 1))
	rnd.Read(p)
	return p
}

// compatWorkers are the worker counts every format test runs at: the
// inline kernel, a small pool, and one larger than most chunk counts.
var compatWorkers = []int{1, 2, 8}

// readAllAt opens blob for verified random access and reads its whole
// plaintext range through Reader.ReadAt.
func readAllAt(key pae.Key, fileID, blob []byte) ([]byte, error) {
	r, err := Open(key, fileID, bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		return nil, err
	}
	out := make([]byte, r.Size())
	if _, err := r.ReadAt(out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// TestCrossCompatibilityMatrix is the format contract of the kernel:
// whatever worker count sealed a blob, it has exactly
// len(pt)+Overhead(len(pt)) bytes and every worker count and the
// random-access Reader open it to the same plaintext; and flipping any
// single byte of it — chunk nonce/ciphertext/tag, stored tree node,
// footer — is rejected by the full open at every worker count.
func TestCrossCompatibilityMatrix(t *testing.T) {
	key, fileID := compatKeyID(t)
	for _, size := range compatSizes {
		plain := compatPlain(size)
		for _, sealW := range compatWorkers {
			blob, err := EncryptWorkers(key, fileID, plain, sealW)
			if err != nil {
				t.Fatalf("size %d seal w%d: %v", size, sealW, err)
			}
			if want := int64(size) + Overhead(int64(size)); int64(len(blob)) != want {
				t.Fatalf("size %d seal w%d: blob length = %d, want %d", size, sealW, len(blob), want)
			}
			for _, openW := range compatWorkers {
				got, err := DecryptWorkers(key, fileID, blob, openW)
				if err != nil {
					t.Fatalf("size %d w%d->w%d open: %v", size, sealW, openW, err)
				}
				if !bytes.Equal(got, plain) {
					t.Fatalf("size %d w%d->w%d plaintext mismatch", size, sealW, openW)
				}
			}
			got, err := readAllAt(key, fileID, blob)
			if err != nil {
				t.Fatalf("size %d w%d->ReadAt: %v", size, sealW, err)
			}
			if !bytes.Equal(got, plain) {
				t.Fatalf("size %d w%d->ReadAt plaintext mismatch", size, sealW)
			}
		}
	}

	// The flip-each-byte sweep runs on the blobs small enough to sweep
	// exhaustively; 4 chunks + 1 byte already has a partial tail chunk, a
	// promoted odd node, two stored tree levels and fans out at w >= 2.
	for _, size := range []int{0, ChunkSize + 1, 4*ChunkSize + 1} {
		blob, err := EncryptWorkers(key, fileID, compatPlain(size), 2)
		if err != nil {
			t.Fatal(err)
		}
		mutated := bytes.Clone(blob)
		for pos := range blob {
			mutated[pos] ^= 0x01
			for _, w := range compatWorkers {
				if _, err := DecryptWorkers(key, fileID, mutated, w); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("size %d: flip at byte %d of %d, open w%d: err = %v, want ErrCorrupt", size, pos, len(blob), w, err)
				}
			}
			mutated[pos] = blob[pos]
		}
	}
}

// parentFixtures is the sidecar of testdata/parent: blobs sealed by the
// last commit that still had the streaming Writer and the pooled
// EncryptWorkers (the references the matrix used to compare against).
type parentFixtures struct {
	KeyHex string `json:"key_hex"`
	FileID string `json:"file_id"`
	Sizes  []int  `json:"sizes"`
}

// TestParentFixturesOpen pins the on-disk format across the kernel
// swap: blobs written by the parent commit's two seal implementations
// must open, unchanged, under every worker count and under ReadAt.
func TestParentFixturesOpen(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent/fixtures.json")
	if err != nil {
		t.Fatal(err)
	}
	var fx parentFixtures
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}
	keyBytes, err := hex.DecodeString(fx.KeyHex)
	if err != nil {
		t.Fatal(err)
	}
	key, err := pae.KeyFromBytes(keyBytes)
	if err != nil {
		t.Fatal(err)
	}
	fileID := []byte(fx.FileID)
	for _, size := range fx.Sizes {
		plain := make([]byte, size)
		for i := range plain {
			plain[i] = byte(i*7 + (i >> 8))
		}
		for _, sealer := range []string{"writer", "workers"} {
			name := fmt.Sprintf("testdata/parent/%s-%d.blob", sealer, size)
			blob, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(size) + Overhead(int64(size)); int64(len(blob)) != want {
				t.Fatalf("%s: %d bytes, Overhead predicts %d", name, len(blob), want)
			}
			for _, w := range compatWorkers {
				got, err := DecryptWorkers(key, fileID, blob, w)
				if err != nil {
					t.Fatalf("%s open w%d: %v", name, w, err)
				}
				if !bytes.Equal(got, plain) {
					t.Fatalf("%s open w%d: plaintext mismatch", name, w)
				}
			}
			got, err := readAllAt(key, fileID, blob)
			if err != nil {
				t.Fatalf("%s ReadAt: %v", name, err)
			}
			if !bytes.Equal(got, plain) {
				t.Fatalf("%s ReadAt: plaintext mismatch", name)
			}
		}
	}
}

// TestWindowsComposeToOneShot checks the kernel's window contract, the
// property a streaming front-end would rest on: a file handled as
// several consecutive windows (each with its own first index) is the
// same file as one handled as a single window. A one-shot blob opens
// window by window, and chunks sealed window by window open — with the
// same leaves — as one whole-file window.
func TestWindowsComposeToOneShot(t *testing.T) {
	key, fileID := compatKeyID(t)
	keys, err := NewKeys(key)
	if err != nil {
		t.Fatal(err)
	}
	plain := compatPlain(9*ChunkSize + 5)
	nc := int(numChunks(int64(len(plain))))
	chunksEnd := len(plain) + nc*pae.Overhead
	whole, err := EncryptWorkers(key, fileID, plain, 1)
	if err != nil {
		t.Fatal(err)
	}
	// windows cuts plain/sealed/leaves into runs of 4 chunks.
	windows := func(plain, sealed []byte, leaves [][hashSize]byte) []window {
		var ws []window
		for first := 0; first < nc; first += 4 {
			last := min(first+4, nc)
			ptEnd := min(last*ChunkSize, len(plain))
			ws = append(ws, window{
				cipher: keys.cipher,
				fileID: fileID,
				first:  int64(first),
				plain:  plain[first*ChunkSize : ptEnd],
				sealed: sealed[first*(ChunkSize+pae.Overhead) : ptEnd+last*pae.Overhead],
				leaves: leaves[first:last],
			})
		}
		return ws
	}

	back := make([]byte, len(plain))
	for _, w := range windows(back, whole[:chunksEnd], make([][hashSize]byte, nc)) {
		if err := w.open(context.Background(), 2); err != nil {
			t.Fatalf("open window at chunk %d of a one-shot blob: %v", w.first, err)
		}
	}
	if !bytes.Equal(back, plain) {
		t.Fatal("window-by-window open of a one-shot blob: plaintext mismatch")
	}

	sealed := make([]byte, chunksEnd)
	sealLeaves := make([][hashSize]byte, nc)
	for _, w := range windows(plain, sealed, sealLeaves) {
		if err := w.seal(2); err != nil {
			t.Fatalf("seal window at chunk %d: %v", w.first, err)
		}
	}
	all := window{cipher: keys.cipher, fileID: fileID, plain: make([]byte, len(plain)), sealed: sealed, leaves: make([][hashSize]byte, nc)}
	if err := all.open(nil, 1); err != nil {
		t.Fatalf("whole-file open of window-sealed chunks: %v", err)
	}
	if !bytes.Equal(all.plain, plain) {
		t.Fatal("whole-file open of window-sealed chunks: plaintext mismatch")
	}
	for i := range sealLeaves {
		if sealLeaves[i] != all.leaves[i] {
			t.Fatalf("leaf %d differs between window seal and whole-file open", i)
		}
	}
}

// TestParallelFooterMatchesSerial checks the deterministic trailer
// structure: for the same plaintext, the inline (workers = 1) and
// fanned-out seal must produce a footer with the same plainSize and
// numChunks (the roots differ because nonces differ, but both must parse
// under the same MAC key).
func TestParallelFooterMatchesSerial(t *testing.T) {
	key, fileID := compatKeyID(t)
	keys, err := NewKeys(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range compatSizes {
		plain := compatPlain(size)
		serial, err := EncryptWorkers(key, fileID, plain, 1)
		if err != nil {
			t.Fatal(err)
		}
		par, err := EncryptWorkers(key, fileID, plain, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(serial) != len(par) {
			t.Fatalf("size %d: blob lengths differ: %d vs %d", size, len(serial), len(par))
		}
		fs, err := parseFooter(keys.mac, serial[len(serial)-footerSize:])
		if err != nil {
			t.Fatalf("size %d serial footer: %v", size, err)
		}
		fp, err := parseFooter(keys.mac, par[len(par)-footerSize:])
		if err != nil {
			t.Fatalf("size %d parallel footer: %v", size, err)
		}
		if fs.plainSize != fp.plainSize || fs.numChunks != fp.numChunks {
			t.Fatalf("size %d footer metadata differs: %+v vs %+v", size, fs, fp)
		}
	}
}

// TestParallelDetectsTampering flips one bit at every structurally
// interesting offset — chunk boundaries, chunk interiors, the stored
// tree region, the footer — and requires the fanned-out open to reject
// each mutation, exactly like the inline one.
func TestParallelDetectsTampering(t *testing.T) {
	key, fileID := compatKeyID(t)
	size := 5*ChunkSize + 123
	plain := compatPlain(size)
	blob, err := EncryptWorkers(key, fileID, plain, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctChunk := ChunkSize + pae.Overhead
	offsets := []int{
		0,                          // first byte of chunk 0's nonce
		ctChunk - 1,                // last byte of chunk 0 (tag)
		ctChunk,                    // first byte of chunk 1
		2*ctChunk + 100,            // interior of chunk 2
		5 * ctChunk,                // tail chunk
		len(blob) - footerSize - 1, // stored tree node
		len(blob) - 1,              // footer MAC
	}
	for _, off := range offsets {
		mutated := append([]byte(nil), blob...)
		mutated[off] ^= 0x01
		if _, err := DecryptWorkers(key, fileID, mutated, 4); err == nil {
			t.Fatalf("bit flip at %d not detected by fanned-out open", off)
		}
		if _, err := DecryptWorkers(key, fileID, mutated, 1); err == nil {
			t.Fatalf("bit flip at %d not detected by inline open", off)
		}
	}
	// Cross-chunk ciphertext swap: chunk auth passes per-chunk AAD
	// binding must catch reordering.
	swapped := append([]byte(nil), blob...)
	copy(swapped[0:ctChunk], blob[ctChunk:2*ctChunk])
	copy(swapped[ctChunk:2*ctChunk], blob[0:ctChunk])
	if _, err := DecryptWorkers(key, fileID, swapped, 4); err == nil {
		t.Fatal("chunk swap not detected")
	}
	// Truncation and extension.
	if _, err := DecryptWorkers(key, fileID, blob[:len(blob)-1], 4); err == nil {
		t.Fatal("truncation not detected")
	}
	if _, err := DecryptWorkers(key, fileID, append(append([]byte(nil), blob...), 0x00), 4); err == nil {
		t.Fatal("extension not detected")
	}
}

// TestAppendEncryptIntoPrefix verifies AppendEncrypt leaves an existing
// prefix untouched and appends a valid blob after it — the contract
// internal/dedup relies on to avoid a whole-blob copy.
func TestAppendEncryptIntoPrefix(t *testing.T) {
	key, fileID := compatKeyID(t)
	plain := compatPlain(6*ChunkSize + 17)
	prefix := []byte("object-header")
	for _, workers := range []int{1, 4} {
		dst := make([]byte, 0, len(prefix)+len(plain)+int(Overhead(int64(len(plain)))))
		dst = append(dst, prefix...)
		out, err := AppendEncrypt(dst, key, fileID, plain, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out[:len(prefix)], prefix) {
			t.Fatalf("workers %d: prefix clobbered", workers)
		}
		got, err := DecryptWorkers(key, fileID, out[len(prefix):], 1)
		if err != nil {
			t.Fatalf("workers %d: decrypt appended blob: %v", workers, err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("workers %d: plaintext mismatch", workers)
		}
	}
}

func TestDefaultWorkersBounds(t *testing.T) {
	n := DefaultWorkers()
	if n < 1 || n > maxDefaultWorkers {
		t.Fatalf("DefaultWorkers() = %d", n)
	}
}

func BenchmarkEncryptWorkers(b *testing.B) {
	key, _ := pae.NewRandomKey()
	fileID := []byte("bench/file")
	plain := compatPlain(8 << 20)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("8MiB-w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(plain)))
			for i := 0; i < b.N; i++ {
				if _, err := EncryptWorkers(key, fileID, plain, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecryptWorkers(b *testing.B) {
	key, _ := pae.NewRandomKey()
	fileID := []byte("bench/file")
	plain := compatPlain(8 << 20)
	blob, err := EncryptWorkers(key, fileID, plain, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("8MiB-w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(plain)))
			for i := 0; i < b.N; i++ {
				if _, err := DecryptWorkers(key, fileID, blob, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
