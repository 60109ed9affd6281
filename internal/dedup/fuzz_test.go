package dedup

import (
	"bytes"
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

// FuzzDecodeObject opens fuzzed object bytes at a fuzzed address. Every
// input must fail with ErrCorrupt or open to content whose address is the
// one it was opened at. The seeds are an address-keyed and a legacy
// object, each at its own and at the other's address, and truncations.
func FuzzDecodeObject(f *testing.F) {
	s, _ := newStore(f)
	fresh, legacy := []byte("address-keyed object"), bytes.Repeat([]byte("legacy object "), 400)
	hFresh, hLegacy := s.contentName(fresh), s.contentName(legacy)
	objFresh, err := s.encodeObject(hFresh, fresh)
	if err != nil {
		f.Fatal(err)
	}
	objLegacy := encodeLegacyObject(f, s, legacy)
	for _, seed := range []struct {
		hName string
		obj   []byte
	}{{hFresh, objFresh}, {hLegacy, objLegacy}, {hLegacy, objFresh}, {hFresh, objLegacy}} {
		for _, n := range []int{len(seed.obj), len(seed.obj) - 1, 60, 4, 3, 0} {
			f.Add(seed.hName, bytes.Clone(seed.obj[:n]))
		}
	}
	// decodeObject opens a blob in place, so it gets a copy of the input.
	f.Fuzz(func(t *testing.T, hName string, raw []byte) {
		content, err := s.decodeObject(hName, bytes.Clone(raw))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeObject error %v is not ErrCorrupt", err)
			}
			return
		}
		if got := s.contentName(content); got != hName {
			t.Fatalf("object opened at %s holds content addressed %s", hName, got)
		}
	})
}
