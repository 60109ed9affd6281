package rollback

import (
	"bytes"
	"testing"
)

// FuzzDecodeHeader asserts that decoding never panics and that every
// accepted header re-encodes byte for byte, followed by the content it
// returned.
func FuzzDecodeHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Header{Main: Digest{1}, Token: 42}).Encode())
	f.Add(append((&Header{Main: Digest{2}, Inner: true, Token: 7}).Encode(), "content"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, rest, err := DecodeHeader(data)
		if err != nil {
			return
		}
		if re := append(h.Encode(), rest...); !bytes.Equal(re, data) {
			t.Fatalf("non-canonical encoding: %x -> %x", data, re)
		}
	})
}
