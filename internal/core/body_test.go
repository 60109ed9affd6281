package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestDirBodyAddRemoveContains(t *testing.T) {
	var d dirBody
	if !d.add("b", false) || !d.add("a", true) || !d.add("c", false) {
		t.Fatal("add returned false for new entries")
	}
	if d.add("b", false) {
		t.Fatal("duplicate add returned true")
	}
	// Same name, different kind, is a distinct entry.
	if !d.add("b", true) {
		t.Fatal("same-name dir entry rejected")
	}
	if !d.contains("a", true) || d.contains("a", false) {
		t.Fatal("contains wrong")
	}
	if !d.remove("c", false) || d.remove("c", false) {
		t.Fatal("remove semantics wrong")
	}
	for i := 1; i < len(d.entries); i++ {
		if !entryLess(d.entries[i-1], d.entries[i]) {
			t.Fatalf("entries not sorted: %v", d.entries)
		}
	}
}

func TestDirBodyCodecRoundTrip(t *testing.T) {
	var d dirBody
	d.add("file.txt", false)
	d.add("docs", true)
	d.add("ünïcode", false)
	got, err := decodeDirBody(d.encode())
	if err != nil {
		t.Fatalf("decodeDirBody: %v", err)
	}
	if len(got.entries) != len(d.entries) {
		t.Fatalf("entries = %v", got.entries)
	}
	for i := range got.entries {
		if got.entries[i] != d.entries[i] {
			t.Fatalf("entry %d = %v, want %v", i, got.entries[i], d.entries[i])
		}
	}

	empty, err := decodeDirBody((&dirBody{}).encode())
	if err != nil || len(empty.entries) != 0 {
		t.Fatalf("empty round trip: %v %v", empty, err)
	}
}

func TestDecodeDirBodyRejectsCorruption(t *testing.T) {
	var d dirBody
	d.add("a", false)
	d.add("b", true)
	valid := d.encode()
	badFlag := append([]byte{}, valid...)
	badFlag[5] = 2 // first entry's is-directory byte

	tests := []struct {
		name string
		give []byte
	}{
		{name: "empty", give: nil},
		{name: "entry flag", give: badFlag},
		{name: "wrong tag", give: append([]byte{bodyRaw}, valid[1:]...)},
		{name: "truncated", give: valid[:len(valid)-1]},
		{name: "trailing", give: append(append([]byte{}, valid...), 1)},
		{name: "unsorted", give: (&dirBody{entries: []DirEntry{{Name: "b"}, {Name: "a"}}}).encode()},
		{name: "duplicate", give: (&dirBody{entries: []DirEntry{{Name: "a"}, {Name: "a"}}}).encode()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := decodeDirBody(tt.give); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("want ErrIntegrity, got %v", err)
			}
		})
	}
}

// FuzzDecodeDirBody asserts that decoding never panics and that every
// accepted directory body re-encodes byte for byte.
func FuzzDecodeDirBody(f *testing.F) {
	var d dirBody
	d.add("a", false)
	d.add("a", true)
	d.add("docs", true)
	f.Add((&dirBody{}).encode())
	f.Add(d.encode())
	f.Add([]byte{bodyDir, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeDirBody(data)
		if err != nil {
			return
		}
		if re := got.encode(); !bytes.Equal(re, data) {
			t.Fatalf("non-canonical encoding: %x -> %x", data, re)
		}
	})
}

func TestContentBodyCodec(t *testing.T) {
	raw, hName, err := decodeContentBody(encodeRawBody([]byte("data")))
	if err != nil || string(raw) != "data" || hName != "" {
		t.Fatalf("raw body: %q %q %v", raw, hName, err)
	}
	raw, hName, err = decodeContentBody(encodeDedupBody("abc123"))
	if err != nil || raw != nil || hName != "abc123" {
		t.Fatalf("dedup body: %q %q %v", raw, hName, err)
	}
	if _, _, err := decodeContentBody(nil); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("empty body: %v", err)
	}
	if _, _, err := decodeContentBody([]byte{0x7F}); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("unknown tag: %v", err)
	}
}

// Property: any set of (name, isDir) pairs added through the API encodes
// and decodes to the same sorted set.
func TestQuickDirBodyRoundTrip(t *testing.T) {
	prop := func(names []string, dirMask uint64) bool {
		var d dirBody
		ref := make(map[DirEntry]bool)
		for i, nameRaw := range names {
			name := sanitizeName(nameRaw)
			e := DirEntry{Name: name, IsDir: dirMask&(1<<(uint(i)%64)) != 0}
			d.add(e.Name, e.IsDir)
			ref[e] = true
		}
		got, err := decodeDirBody(d.encode())
		if err != nil || len(got.entries) != len(ref) {
			return false
		}
		for _, e := range got.entries {
			if !ref[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func sanitizeName(s string) string {
	if s == "" {
		return "x"
	}
	return s
}

func TestContentParent(t *testing.T) {
	tests := []struct {
		give string
		want string
	}{
		{give: "/", want: ""},
		{give: "/.acl", want: "/"},
		{give: "/f", want: "/"},
		{give: "/f.acl", want: "/"},
		{give: "/D/", want: "/"},
		{give: "/D/.acl", want: "/"},
		{give: "/D/f", want: "/D/"},
		{give: "/D/f.acl", want: "/D/"},
		{give: "/D/E/", want: "/D/"},
		{give: "/D/E/.acl", want: "/D/"},
	}
	for _, tt := range tests {
		if got := contentParent(tt.give); got != tt.want {
			t.Errorf("contentParent(%q) = %q, want %q", tt.give, got, tt.want)
		}
	}
}
