package dedup

import (
	"encoding/binary"
	"errors"
	"maps"
	"testing"
)

// encodeRefs serialises a reference table the way stores written before
// per-object records did, in map order: decodeRefs needs none, and the
// encoding's size does not depend on it.
func encodeRefs(refs map[string]uint32) []byte {
	size := 4
	for name := range refs {
		size += 8 + len(name)
	}
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint32(out, uint32(len(refs)))
	for name, n := range refs {
		out = binary.BigEndian.AppendUint32(out, uint32(len(name)))
		out = append(out, name...)
		out = binary.BigEndian.AppendUint32(out, n)
	}
	return out
}

// TestDecodeRefsHugeCount feeds a ref table whose count claims 2^32-1
// entries with no bytes behind it: the decoder must reject it without
// sizing a map from the count.
func TestDecodeRefsHugeCount(t *testing.T) {
	if _, err := decodeRefs([]byte{0xff, 0xff, 0xff, 0xff}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decodeRefs(ff ff ff ff) = %v, want ErrCorrupt", err)
	}
}

// FuzzDecodeRefs asserts that decoding never panics and that every
// accepted ref table re-encodes to a table that decodes to the same map.
// The encoding follows map order, so bytes need not match.
func FuzzDecodeRefs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(encodeRefs(map[string]uint32{}))
	f.Add(encodeRefs(map[string]uint32{"a": 1, "bb": 2, "": 0xffffffff}))
	f.Fuzz(func(t *testing.T, data []byte) {
		refs, err := decodeRefs(data)
		if err != nil {
			return
		}
		again, err := decodeRefs(encodeRefs(refs))
		if err != nil {
			t.Fatalf("re-encoded table does not decode: %v", err)
		}
		if !maps.Equal(refs, again) {
			t.Fatalf("round trip changed the table: %v -> %v", refs, again)
		}
	})
}
