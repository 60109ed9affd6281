package core

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// A stored file's logical body starts with a type tag. Content files hold
// raw bytes or a deduplication indirection (paper §V-A "comparable to
// symbolic links"); directory files hold their children list (§II-C).
// ACL, member-list, and group-list bodies use the tags defined in
// internal/acl.
const (
	bodyRaw   = 0x01
	bodyDedup = 0x02
	bodyDir   = 0x03
)

// encodeRawBody copies content into a raw body. readBody reads PUT bodies
// into this shape directly; Direct uploads, whose caller keeps the slice,
// pay the copy.
func encodeRawBody(content []byte) []byte {
	out := make([]byte, 0, 1+len(content))
	out = append(out, bodyRaw)
	return append(out, content...)
}

// encodeDedupBody wraps a deduplication-store content address.
func encodeDedupBody(hName string) []byte {
	out := make([]byte, 0, 1+len(hName))
	out = append(out, bodyDedup)
	return append(out, hName...)
}

// decodeContentBody returns either the raw content or the dedup address.
func decodeContentBody(body []byte) (raw []byte, hName string, err error) {
	if len(body) == 0 {
		return nil, "", fmt.Errorf("%w: empty content body", ErrIntegrity)
	}
	switch body[0] {
	case bodyRaw:
		return body[1:], "", nil
	case bodyDedup:
		return nil, string(body[1:]), nil
	default:
		return nil, "", fmt.Errorf("%w: content body tag %#x", ErrIntegrity, body[0])
	}
}

// DirEntry is one child in a directory listing.
type DirEntry struct {
	// Name is the child's name (no path separators).
	Name string
	// IsDir marks directory children.
	IsDir bool
}

// dirBody is the decoded content of a directory file: its sorted children.
type dirBody struct {
	entries []DirEntry
}

func (d *dirBody) search(name string, isDir bool) (int, bool) {
	i := sort.Search(len(d.entries), func(i int) bool {
		e := d.entries[i]
		if e.Name != name {
			return e.Name >= name
		}
		return boolGE(e.IsDir, isDir)
	})
	return i, i < len(d.entries) && d.entries[i].Name == name && d.entries[i].IsDir == isDir
}

func boolGE(a, b bool) bool {
	// false < true
	return a == b || a
}

// add inserts a child, keeping the list sorted; reports whether it was
// absent.
func (d *dirBody) add(name string, isDir bool) bool {
	i, found := d.search(name, isDir)
	if found {
		return false
	}
	d.entries = append(d.entries, DirEntry{})
	copy(d.entries[i+1:], d.entries[i:])
	d.entries[i] = DirEntry{Name: name, IsDir: isDir}
	return true
}

// remove deletes a child; reports whether it was present.
func (d *dirBody) remove(name string, isDir bool) bool {
	i, found := d.search(name, isDir)
	if !found {
		return false
	}
	d.entries = append(d.entries[:i], d.entries[i+1:]...)
	return true
}

func (d *dirBody) contains(name string, isDir bool) bool {
	_, found := d.search(name, isDir)
	return found
}

func (d *dirBody) encode() []byte {
	size := 1 + 4
	for _, e := range d.entries {
		size += 1 + 4 + len(e.Name)
	}
	out := make([]byte, 0, size)
	out = append(out, bodyDir)
	out = binary.BigEndian.AppendUint32(out, uint32(len(d.entries)))
	for _, e := range d.entries {
		var flag byte
		if e.IsDir {
			flag = 1
		}
		out = append(out, flag)
		out = binary.BigEndian.AppendUint32(out, uint32(len(e.Name)))
		out = append(out, e.Name...)
	}
	return out
}

func decodeDirBody(body []byte) (*dirBody, error) {
	if len(body) < 5 || body[0] != bodyDir {
		return nil, fmt.Errorf("%w: not a directory body", ErrIntegrity)
	}
	n := binary.BigEndian.Uint32(body[1:5])
	rest := body[5:]
	d := &dirBody{}
	if n > 0 {
		d.entries = make([]DirEntry, 0, min(int(n), len(rest)/5))
	}
	for i := uint32(0); i < n; i++ {
		if len(rest) < 5 {
			return nil, fmt.Errorf("%w: truncated directory body", ErrIntegrity)
		}
		if rest[0] > 1 {
			return nil, fmt.Errorf("%w: directory entry flag %#x", ErrIntegrity, rest[0])
		}
		isDir := rest[0] == 1
		l := binary.BigEndian.Uint32(rest[1:5])
		rest = rest[5:]
		if uint64(len(rest)) < uint64(l) {
			return nil, fmt.Errorf("%w: truncated directory entry", ErrIntegrity)
		}
		d.entries = append(d.entries, DirEntry{Name: string(rest[:l]), IsDir: isDir})
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: trailing directory bytes", ErrIntegrity)
	}
	// Enforce strict sortedness so search invariants hold after decode.
	for i := 1; i < len(d.entries); i++ {
		if !entryLess(d.entries[i-1], d.entries[i]) {
			return nil, fmt.Errorf("%w: directory entries not sorted", ErrIntegrity)
		}
	}
	return d, nil
}

// entryLess orders directory entries by (Name, IsDir) with files before
// directories of the same name.
func entryLess(a, b DirEntry) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return !a.IsDir && b.IsDir
}
