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

// openInPlace hands a copy of blob to Keys.DecryptCtx, which opens it in
// place, and checks the ownership contract: an accepted blob's plaintext
// is the front of the very buffer the open was given.
func openInPlace(t testing.TB, keys *Keys, fileID, blob []byte) ([]byte, error) {
	t.Helper()
	owned := bytes.Clone(blob)
	pt, err := keys.DecryptCtx(nil, fileID, owned)
	if err == nil && len(pt) > 0 && &pt[0] != &owned[0] {
		t.Fatal("in-place open returned plaintext outside the blob it owns")
	}
	return pt, err
}

// TestCrossCompatibilityMatrix is the format contract of the kernel: a
// sealed blob has exactly len(pt)+Overhead(len(pt)) bytes, and the open
// in place on a blob it owns, DecryptWorkers on one the caller keeps, and
// the random-access Reader all open it to the same plaintext; and
// flipping any single byte of it — chunk nonce/ciphertext/tag, stored
// tree node, footer — is rejected by both full opens.
func TestCrossCompatibilityMatrix(t *testing.T) {
	key, fileID := compatKeyID(t)
	keys, err := NewKeys(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range compatSizes {
		plain := compatPlain(size)
		blob, err := EncryptWorkers(key, fileID, plain, 1)
		if err != nil {
			t.Fatalf("size %d seal: %v", size, err)
		}
		if want := int64(size) + Overhead(int64(size)); int64(len(blob)) != want {
			t.Fatalf("size %d: blob length = %d, want %d", size, len(blob), want)
		}
		got, err := DecryptWorkers(key, fileID, blob, 1)
		if err != nil {
			t.Fatalf("size %d open: %v", size, err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("size %d plaintext mismatch", size)
		}
		got, err = openInPlace(t, keys, fileID, blob)
		if err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("size %d in-place open: %v", size, err)
		}
		got, err = readAllAt(key, fileID, blob)
		if err != nil {
			t.Fatalf("size %d ReadAt: %v", size, err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("size %d ReadAt plaintext mismatch", size)
		}
	}

	// The flip-each-byte sweep runs on the blobs small enough to sweep
	// exhaustively; 4 chunks + 1 byte already has a partial tail chunk, a
	// promoted odd node and two stored tree levels.
	for _, size := range []int{0, ChunkSize + 1, 4*ChunkSize + 1} {
		blob, err := EncryptWorkers(key, fileID, compatPlain(size), 1)
		if err != nil {
			t.Fatal(err)
		}
		mutated := bytes.Clone(blob)
		for pos := range blob {
			mutated[pos] ^= 0x01
			if _, err := DecryptWorkers(key, fileID, mutated, 1); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("size %d: flip at byte %d of %d, open: err = %v, want ErrCorrupt", size, pos, len(blob), err)
			}
			if _, err := openInPlace(t, keys, fileID, mutated); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("size %d: flip at byte %d of %d, in-place open: err = %v, want ErrCorrupt", size, pos, len(blob), err)
			}
			mutated[pos] = blob[pos]
		}
	}
}

// fixtureDirs maps each committed fixture directory to the format
// version its blobs carry: testdata/parent holds blobs sealed by the last
// commit that still had the streaming Writer and the pooled
// EncryptWorkers (the references the matrix used to compare against),
// testdata/v2 blobs sealed by the first writer of the tag leaf.
var fixtureDirs = map[string]uint32{"testdata/parent": formatV1, "testdata/v2": formatVersion}

// fixtures is the sidecar of a fixture directory: one blob per sealer
// and size, named <sealer>-<size>.blob, all of one plaintext rule.
type fixtures struct {
	KeyHex  string            `json:"key_hex"`
	FileID  string            `json:"file_id"`
	Sealers map[string]string `json:"sealers"`
	Sizes   []int             `json:"sizes"`
}

// fixtureBlob is one committed blob and the plaintext it holds.
type fixtureBlob struct {
	name        string
	blob, plain []byte
	key         pae.Key
	keys        *Keys
	fileID      []byte
	wantVersion uint32
}

// loadFixtures reads every blob of every fixture directory.
func loadFixtures(t *testing.T) []fixtureBlob {
	t.Helper()
	var out []fixtureBlob
	for dir, version := range fixtureDirs {
		raw, err := os.ReadFile(dir + "/fixtures.json")
		if err != nil {
			t.Fatal(err)
		}
		var fx fixtures
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
		keys, err := NewKeys(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range fx.Sizes {
			plain := make([]byte, size)
			for i := range plain {
				plain[i] = byte(i*7 + (i >> 8))
			}
			for sealer := range fx.Sealers {
				name := fmt.Sprintf("%s/%s-%d.blob", dir, sealer, size)
				blob, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, fixtureBlob{name: name, blob: blob, plain: plain, key: key,
					keys: keys, fileID: []byte(fx.FileID), wantVersion: version})
			}
		}
	}
	if len(out) != 2*2*8 {
		t.Fatalf("%d fixture blobs, want 32", len(out))
	}
	return out
}

// TestParentFixturesOpen pins the on-disk format across kernel and
// format changes: blobs written by earlier commits — version 1 by the
// two seal implementations before the kernel swap, version 2 by the
// first tag-leaf writer — carry the footer version of their directory
// and must open, unchanged, through DecryptWorkers, in place and under
// ReadAt.
func TestParentFixturesOpen(t *testing.T) {
	for _, fx := range loadFixtures(t) {
		name, blob, plain := fx.name, fx.blob, fx.plain
		size := len(plain)
		if want := int64(size) + Overhead(int64(size)); int64(len(blob)) != want {
			t.Fatalf("%s: %d bytes, Overhead predicts %d", name, len(blob), want)
		}
		f, err := parseFooter(fx.keys.mac, blob[len(blob)-footerSize:], int64(len(blob)))
		if err != nil || f.version != fx.wantVersion {
			t.Fatalf("%s: footer version %d, %v; want %d", name, f.version, err, fx.wantVersion)
		}
		got, err := DecryptWorkers(fx.key, fx.fileID, blob, 1)
		if err != nil {
			t.Fatalf("%s open: %v", name, err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("%s open: plaintext mismatch", name)
		}
		got, err = openInPlace(t, fx.keys, fx.fileID, blob)
		if err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("%s in-place open: %v", name, err)
		}
		got, err = readAllAt(fx.key, fx.fileID, blob)
		if err != nil {
			t.Fatalf("%s ReadAt: %v", name, err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("%s ReadAt: plaintext mismatch", name)
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
	// windows cuts sealed/leaves — and plain, when sealing — into runs of
	// 4 chunks.
	windows := func(plain, sealed []byte, leaves [][hashSize]byte) []window {
		var ws []window
		for first := 0; first < nc; first += 4 {
			last := min(first+4, nc)
			ptEnd := min(last*ChunkSize, len(sealed)-nc*pae.Overhead)
			w := window{
				cipher: keys.cipher,
				fileID: fileID,
				first:  int64(first),
				sealed: sealed[first*(ChunkSize+pae.Overhead) : ptEnd+last*pae.Overhead],
				leaves: leaves[first:last],
			}
			if plain != nil {
				w.plain = plain[first*ChunkSize : ptEnd]
			}
			ws = append(ws, w)
		}
		return ws
	}

	var back []byte
	for _, w := range windows(nil, bytes.Clone(whole[:chunksEnd]), make([][hashSize]byte, nc)) {
		if err := w.open(context.Background()); err != nil {
			t.Fatalf("open window at chunk %d of a one-shot blob: %v", w.first, err)
		}
		back = append(back, w.gather()...)
	}
	if !bytes.Equal(back, plain) {
		t.Fatal("window-by-window open of a one-shot blob: plaintext mismatch")
	}

	sealed := make([]byte, chunksEnd)
	sealLeaves := make([][hashSize]byte, nc)
	for _, w := range windows(plain, sealed, sealLeaves) {
		if err := w.seal(); err != nil {
			t.Fatalf("seal window at chunk %d: %v", w.first, err)
		}
	}
	all := window{cipher: keys.cipher, fileID: fileID, sealed: bytes.Clone(sealed), leaves: make([][hashSize]byte, nc)}
	if err := all.open(nil); err != nil {
		t.Fatalf("whole-file open of window-sealed chunks: %v", err)
	}
	if !bytes.Equal(all.gather(), plain) {
		t.Fatal("whole-file open of window-sealed chunks: plaintext mismatch")
	}
	for i := range sealLeaves {
		if sealLeaves[i] != all.leaves[i] {
			t.Fatalf("leaf %d differs between window seal and whole-file open", i)
		}
	}
}

// TestParallelDetectsTampering flips one bit at every structurally
// interesting offset — chunk boundaries, chunk interiors, the stored
// tree region, the footer — and requires the open to reject each
// mutation, as it must a chunk swap, a truncation and an extension.
func TestParallelDetectsTampering(t *testing.T) {
	key, fileID := compatKeyID(t)
	size := 5*ChunkSize + 123
	plain := compatPlain(size)
	blob, err := EncryptWorkers(key, fileID, plain, 1)
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
		if _, err := DecryptWorkers(key, fileID, mutated, 1); err == nil {
			t.Fatalf("bit flip at %d not detected", off)
		}
	}
	// Cross-chunk ciphertext swap: chunk auth passes per-chunk AAD
	// binding must catch reordering.
	swapped := append([]byte(nil), blob...)
	copy(swapped[0:ctChunk], blob[ctChunk:2*ctChunk])
	copy(swapped[ctChunk:2*ctChunk], blob[0:ctChunk])
	if _, err := DecryptWorkers(key, fileID, swapped, 1); err == nil {
		t.Fatal("chunk swap not detected")
	}
	// Truncation and extension.
	if _, err := DecryptWorkers(key, fileID, blob[:len(blob)-1], 1); err == nil {
		t.Fatal("truncation not detected")
	}
	if _, err := DecryptWorkers(key, fileID, append(append([]byte(nil), blob...), 0x00), 1); err == nil {
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
	dst := make([]byte, 0, len(prefix)+len(plain)+int(Overhead(int64(len(plain)))))
	dst = append(dst, prefix...)
	out, err := AppendEncrypt(dst, key, fileID, plain, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) {
		t.Fatal("prefix clobbered")
	}
	got, err := DecryptWorkers(key, fileID, out[len(prefix):], 1)
	if err != nil {
		t.Fatalf("decrypt appended blob: %v", err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatal("plaintext mismatch")
	}
}
