package pfs

import (
	"bytes"
	"fmt"
	"testing"

	"segshare/internal/pae"
)

func benchKey(b *testing.B) pae.Key {
	b.Helper()
	key, err := pae.NewRandomKey()
	if err != nil {
		b.Fatal(err)
	}
	return key
}

func BenchmarkEncrypt(b *testing.B) {
	key := benchKey(b)
	for _, size := range []int{64 << 10, 1 << 20, 8 << 20} {
		pt := make([]byte, size)
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if _, err := EncryptWorkers(key, []byte("/f"), pt, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecrypt(b *testing.B) {
	key := benchKey(b)
	for _, size := range []int{64 << 10, 1 << 20, 8 << 20} {
		blob, err := EncryptWorkers(key, []byte("/f"), make([]byte, size), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if _, err := DecryptWorkers(key, []byte("/f"), blob, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadAtRandomChunk measures verified random access — the
// operation header reads during bucket validation rely on.
func BenchmarkReadAtRandomChunk(b *testing.B) {
	key := benchKey(b)
	blob, err := EncryptWorkers(key, []byte("/f"), make([]byte, 4<<20), 1)
	if err != nil {
		b.Fatal(err)
	}
	r, err := Open(key, []byte("/f"), bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%1024) * ChunkSize
		if _, err := r.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}
