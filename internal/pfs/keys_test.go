package pfs

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"segshare/internal/pae"
)

// TestKeysMatchPackageAPI pins that an opened key schedule and the
// raw-key package functions are one kernel behind two doors: each opens
// what the other sealed at every worker count, both open the blobs the
// parent commit's sealers wrote, a single *Keys serves concurrent sealers
// and openers (run under -race), and a flip of any byte of a blob is
// still rejected through the Keys door.
func TestKeysMatchPackageAPI(t *testing.T) {
	key, fileID := compatKeyID(t)
	keys, err := NewKeys(key)
	if err != nil {
		t.Fatal(err)
	}
	readAll := func(r *Reader, err error) ([]byte, error) {
		if err != nil {
			return nil, err
		}
		out := make([]byte, r.Size())
		_, err = r.ReadAt(out, 0)
		return out, err
	}

	for _, size := range compatSizes {
		plain := compatPlain(size)
		for _, w := range compatWorkers {
			byKeys, err := keys.AppendEncrypt(nil, fileID, plain, w)
			if err != nil {
				t.Fatalf("size %d w%d Keys seal: %v", size, w, err)
			}
			byPkg, err := EncryptWorkers(key, fileID, plain, w)
			if err != nil {
				t.Fatalf("size %d w%d package seal: %v", size, w, err)
			}
			if len(byKeys) != len(byPkg) {
				t.Fatalf("size %d w%d: Keys blob %d bytes, package blob %d", size, w, len(byKeys), len(byPkg))
			}
			for _, openW := range compatWorkers {
				if got, err := DecryptWorkers(key, fileID, byKeys, openW); err != nil || !bytes.Equal(got, plain) {
					t.Fatalf("size %d: package open w%d of Keys blob: %v", size, openW, err)
				}
				if got, err := keys.DecryptCtx(nil, fileID, byPkg, openW); err != nil || !bytes.Equal(got, plain) {
					t.Fatalf("size %d: Keys open w%d of package blob: %v", size, openW, err)
				}
			}
			if got, err := readAllAt(key, fileID, byKeys); err != nil || !bytes.Equal(got, plain) {
				t.Fatalf("size %d w%d: package ReadAt of Keys blob: %v", size, w, err)
			}
			if got, err := readAll(keys.Open(fileID, bytes.NewReader(byPkg), int64(len(byPkg)))); err != nil || !bytes.Equal(got, plain) {
				t.Fatalf("size %d w%d: Keys ReadAt of package blob: %v", size, w, err)
			}
		}
	}

	// Another file's Keys opens nothing of this one's.
	otherKey, err := pae.KeyFromBytes(bytes.Repeat([]byte{0x43}, pae.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewKeys(otherKey)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := keys.AppendEncrypt(nil, fileID, compatPlain(ChunkSize+1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.DecryptCtx(nil, fileID, blob, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open under another file's Keys: %v, want ErrCorrupt", err)
	}

	t.Run("parent fixtures", func(t *testing.T) {
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
		fxKey, err := pae.KeyFromBytes(keyBytes)
		if err != nil {
			t.Fatal(err)
		}
		fxKeys, err := NewKeys(fxKey)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range fx.Sizes {
			for _, sealer := range []string{"writer", "workers"} {
				name := fmt.Sprintf("testdata/parent/%s-%d.blob", sealer, size)
				blob, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				want, err := DecryptWorkers(fxKey, []byte(fx.FileID), blob, 1)
				if err != nil {
					t.Fatalf("%s: package open: %v", name, err)
				}
				for _, w := range compatWorkers {
					got, err := fxKeys.DecryptCtx(nil, []byte(fx.FileID), blob, w)
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s: Keys open w%d: %v", name, w, err)
					}
				}
				got, err := readAll(fxKeys.Open([]byte(fx.FileID), bytes.NewReader(blob), int64(len(blob))))
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: Keys ReadAt: %v", name, err)
				}
			}
		}
	})

	t.Run("one Keys, eight goroutines", func(t *testing.T) {
		plain := compatPlain(5*ChunkSize + 3)
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20 && errs[g] == nil; i++ {
					w := compatWorkers[(g+i)%len(compatWorkers)]
					blob, err := keys.AppendEncrypt(nil, fileID, plain, w)
					if err != nil {
						errs[g] = err
						return
					}
					got, err := keys.DecryptCtx(nil, fileID, blob, w)
					if err == nil && !bytes.Equal(got, plain) {
						err = errors.New("plaintext mismatch")
					}
					if err == nil {
						got, err = readAll(keys.Open(fileID, bytes.NewReader(blob), int64(len(blob))))
						if err == nil && !bytes.Equal(got, plain) {
							err = errors.New("ReadAt plaintext mismatch")
						}
					}
					errs[g] = err
				}
			}()
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("goroutine %d: %v", g, err)
			}
		}
	})

	t.Run("flip every byte", func(t *testing.T) {
		blob, err := EncryptWorkers(key, fileID, compatPlain(4*ChunkSize+1), 2)
		if err != nil {
			t.Fatal(err)
		}
		mutated := bytes.Clone(blob)
		for pos := range blob {
			mutated[pos] ^= 0x01
			for _, w := range compatWorkers {
				if _, err := keys.DecryptCtx(nil, fileID, mutated, w); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("flip at byte %d of %d, Keys open w%d: err = %v, want ErrCorrupt", pos, len(blob), w, err)
				}
			}
			mutated[pos] = blob[pos]
		}
	})
}

// TestKeysSizeIsRetainedHeap holds KeysSize to what a Keys really keeps
// alive, so a cache that charges KeysSize per entry is charging the truth:
// the measured heap per retained Keys must not exceed the constant, nor
// fall so far below it that the constant has gone stale.
func TestKeysSizeIsRetainedHeap(t *testing.T) {
	const n = 4096
	key, _ := compatKeyID(t)
	held := make([]*Keys, n)
	per := heapPerItem(n, func(i int) {
		k, err := NewKeys(key)
		if err != nil {
			t.Fatal(err)
		}
		held[i] = k
	})
	if per > KeysSize || per < KeysSize*3/4 {
		t.Fatalf("a retained Keys measures %d bytes of heap, KeysSize says %d", per, KeysSize)
	}
	runtime.KeepAlive(held)
}

// heapPerItem returns the live heap that n calls of alloc leave behind,
// per call, in allocator-rounded bytes.
func heapPerItem(n int, alloc func(i int)) int {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		alloc(i)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int(after.HeapAlloc-before.HeapAlloc) / n
}
