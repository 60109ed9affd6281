package pfs

import (
	"bytes"
	"testing"

	"segshare/internal/pae"
)

// FuzzDecrypt feeds arbitrary blobs to the verified reader: it must never
// panic and must reject everything that is not a faithful encryption.
func FuzzDecrypt(f *testing.F) {
	key, err := pae.KeyFromBytes(bytes.Repeat([]byte{3}, pae.KeySize))
	if err != nil {
		f.Fatal(err)
	}
	valid, err := EncryptWorkers(key, []byte("/f"), bytes.Repeat([]byte("x"), 3*ChunkSize/2), 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Fuzz(func(t *testing.T, blob []byte) {
		pt, err := DecryptWorkers(key, []byte("/f"), blob, 1)
		if err != nil {
			return
		}
		// Anything accepted must re-encrypt to the same plaintext (the
		// blob itself differs due to fresh nonces).
		re, err := EncryptWorkers(key, []byte("/f"), pt, 1)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecryptWorkers(key, []byte("/f"), re, 1)
		if err != nil || !bytes.Equal(back, pt) {
			t.Fatalf("round trip after fuzz-accepted blob failed: %v", err)
		}
	})
}

// FuzzDecryptParallel feeds arbitrary blobs to the open kernel at
// several worker counts. It must never panic (in any worker goroutine),
// inline and fanned-out runs must agree on accept/reject and on the
// plaintext, and whatever the full open accepts the random-access Reader
// must read back identically over the whole range. (The converse does
// not hold: ReadAt only touches the stored nodes on its Merkle paths, so
// it cannot see tampering in the others; the full open compares all.)
// Corrupted chunk boundaries are the interesting region: the kernel
// slices chunk extents straight out of the blob, so the seeds bias
// mutations there.
func FuzzDecryptParallel(f *testing.F) {
	key, err := pae.KeyFromBytes(bytes.Repeat([]byte{7}, pae.KeySize))
	if err != nil {
		f.Fatal(err)
	}
	// 5 full chunks plus a partial tail: enough leaves for two tree
	// levels and a promoted odd node.
	valid, err := EncryptWorkers(key, []byte("/f"), bytes.Repeat([]byte("y"), 5*ChunkSize+100), 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:ChunkSize+pae.Overhead]) // exactly one chunk, no tree/footer
	boundary := append([]byte(nil), valid...)
	boundary[ChunkSize+pae.Overhead] ^= 0xFF // first byte of chunk 1
	f.Add(boundary)
	tail := append([]byte(nil), valid...)
	tail[5*(ChunkSize+pae.Overhead)+10] ^= 0x01 // inside the partial tail chunk
	f.Add(tail)
	f.Fuzz(func(t *testing.T, blob []byte) {
		inlinePt, inlineErr := DecryptWorkers(key, []byte("/f"), blob, 1)
		for _, workers := range []int{2, 4} {
			pt, err := DecryptWorkers(key, []byte("/f"), blob, workers)
			if (inlineErr == nil) != (err == nil) {
				t.Fatalf("inline and w%d disagree: inline err=%v, w%d err=%v", workers, inlineErr, workers, err)
			}
			if err == nil && !bytes.Equal(inlinePt, pt) {
				t.Fatalf("inline and w%d accepted the blob with different plaintexts", workers)
			}
		}
		if inlineErr != nil {
			return
		}
		viaReadAt, err := readAllAt(key, []byte("/f"), blob)
		if err != nil || !bytes.Equal(viaReadAt, inlinePt) {
			t.Fatalf("full open accepted the blob but whole-range ReadAt did not agree: err=%v", err)
		}
	})
}

// FuzzMutateValid flips fuzz-chosen bytes of a valid blob; decryption
// must either return the original plaintext (no effective change) or an
// error — never wrong data.
func FuzzMutateValid(f *testing.F) {
	key, err := pae.KeyFromBytes(bytes.Repeat([]byte{5}, pae.KeySize))
	if err != nil {
		f.Fatal(err)
	}
	plaintext := bytes.Repeat([]byte("secret"), 2048)
	valid, err := EncryptWorkers(key, []byte("/f"), plaintext, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint32(0), byte(1))
	f.Add(uint32(len(valid)-1), byte(0xFF))
	f.Fuzz(func(t *testing.T, pos uint32, mask byte) {
		blob := bytes.Clone(valid)
		blob[int(pos)%len(blob)] ^= mask
		got, err := DecryptWorkers(key, []byte("/f"), blob, 1)
		if err != nil {
			return
		}
		if !bytes.Equal(got, plaintext) {
			t.Fatalf("mutated blob decrypted to different plaintext (pos=%d mask=%x)", pos, mask)
		}
	})
}
