package acl

import (
	"encoding/binary"
	"fmt"
)

// Administration-file type tags. Each encoded file starts with its tag so
// a confused deputy (e.g. an ACL swapped for a member list by a path bug)
// is caught at decode time; swaps by the adversary are already caught by
// the PAE associated data.
const (
	tagACL        = 0xA1
	tagMemberList = 0xA2
	tagGroupList  = 0xA3
)

type reader struct {
	buf []byte
	off int
}

func (r *reader) u8() (byte, error) {
	if r.off+1 > len(r.buf) {
		return 0, ErrCodec
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, ErrCodec
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, ErrCodec
	}
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v, nil
}

func (r *reader) done() error {
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(r.buf)-r.off)
	}
	return nil
}

// maxListLen bounds decoded list lengths to the remaining buffer so a
// corrupted count cannot trigger huge allocations.
func (r *reader) maxListLen(elemSize int) int {
	return (len(r.buf) - r.off) / elemSize
}

func (r *reader) groupIDs() ([]GroupID, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(n) > r.maxListLen(4) {
		return nil, ErrCodec
	}
	ids := make([]GroupID, n)
	for i := range ids {
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		ids[i] = GroupID(v)
		if i > 0 && ids[i] <= ids[i-1] {
			return nil, fmt.Errorf("%w: group list not strictly sorted", ErrCodec)
		}
	}
	return ids, nil
}

func appendGroupIDs(out []byte, ids []GroupID) []byte {
	out = binary.BigEndian.AppendUint32(out, uint32(len(ids)))
	for _, id := range ids {
		out = binary.BigEndian.AppendUint32(out, uint32(id))
	}
	return out
}

// Encode serialises the ACL. The layout matches the paper's accounting:
// 32 bits for owner count and flags, 32 bits per owner, and 32+32 bits
// per permission entry (§VII-B).
func (a *ACL) Encode() []byte {
	out := make([]byte, 0, 1+4+4+4*len(a.Owners)+4+8*len(a.Entries))
	out = append(out, tagACL)
	var flags uint32
	if a.Inherit {
		flags |= 1
	}
	out = binary.BigEndian.AppendUint32(out, flags)
	out = appendGroupIDs(out, a.Owners)
	out = binary.BigEndian.AppendUint32(out, uint32(len(a.Entries)))
	for _, e := range a.Entries {
		out = binary.BigEndian.AppendUint32(out, uint32(e.Group))
		out = binary.BigEndian.AppendUint32(out, uint32(e.Perm))
	}
	return out
}

// DecodeACL parses an encoded ACL, validating sortedness and bounds.
func DecodeACL(data []byte) (*ACL, error) {
	r := &reader{buf: data}
	tag, err := r.u8()
	if err != nil || tag != tagACL {
		return nil, fmt.Errorf("%w: not an ACL file", ErrCodec)
	}
	flags, err := r.u32()
	if err != nil {
		return nil, err
	}
	if flags&^uint32(1) != 0 {
		return nil, fmt.Errorf("%w: unknown ACL flags %#x", ErrCodec, flags)
	}
	a := &ACL{Inherit: flags&1 != 0}
	if a.Owners, err = r.groupIDs(); err != nil {
		return nil, err
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(n) > r.maxListLen(8) {
		return nil, ErrCodec
	}
	a.Entries = make([]PermEntry, n)
	for i := range a.Entries {
		g, err := r.u32()
		if err != nil {
			return nil, err
		}
		p, err := r.u32()
		if err != nil {
			return nil, err
		}
		a.Entries[i] = PermEntry{Group: GroupID(g), Perm: Permission(p)}
		if i > 0 && a.Entries[i].Group <= a.Entries[i-1].Group {
			return nil, fmt.Errorf("%w: ACL entries not strictly sorted", ErrCodec)
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return a, nil
}

// Encode serialises the member list.
func (m *MemberList) Encode() []byte {
	out := make([]byte, 0, 1+4+4*len(m.Groups))
	out = append(out, tagMemberList)
	return appendGroupIDs(out, m.Groups)
}

// DecodeMemberList parses an encoded member list.
func DecodeMemberList(data []byte) (*MemberList, error) {
	r := &reader{buf: data}
	tag, err := r.u8()
	if err != nil || tag != tagMemberList {
		return nil, fmt.Errorf("%w: not a member list file", ErrCodec)
	}
	m := &MemberList{}
	if m.Groups, err = r.groupIDs(); err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Encode serialises the group list.
func (l *GroupList) Encode() []byte {
	out := []byte{tagGroupList}
	out = binary.BigEndian.AppendUint32(out, uint32(l.NextID))
	out = binary.BigEndian.AppendUint32(out, uint32(len(l.Groups)))
	for _, g := range l.Groups {
		out = binary.BigEndian.AppendUint32(out, uint32(g.ID))
		out = binary.BigEndian.AppendUint32(out, uint32(len(g.Name)))
		out = append(out, g.Name...)
		out = appendGroupIDs(out, g.Owners)
	}
	return out
}

// DecodeGroupList parses an encoded group list, validating ID order, name
// uniqueness, and that NextID exceeds every present ID.
func DecodeGroupList(data []byte) (*GroupList, error) {
	r := &reader{buf: data}
	tag, err := r.u8()
	if err != nil || tag != tagGroupList {
		return nil, fmt.Errorf("%w: not a group list file", ErrCodec)
	}
	next, err := r.u32()
	if err != nil {
		return nil, err
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(n) > r.maxListLen(12) {
		return nil, ErrCodec
	}
	l := &GroupList{
		NextID: GroupID(next),
		Groups: make([]GroupRecord, n),
		byName: make(map[GroupName]GroupID, n),
	}
	for i := range l.Groups {
		id, err := r.u32()
		if err != nil {
			return nil, err
		}
		nameLen, err := r.u32()
		if err != nil {
			return nil, err
		}
		nameBytes, err := r.bytes(int(nameLen))
		if err != nil {
			return nil, err
		}
		owners, err := r.groupIDs()
		if err != nil {
			return nil, err
		}
		rec := GroupRecord{ID: GroupID(id), Name: GroupName(nameBytes), Owners: owners}
		if rec.Name == "" {
			return nil, fmt.Errorf("%w: empty group name", ErrCodec)
		}
		if _, dup := l.byName[rec.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate group name %q", ErrCodec, rec.Name)
		}
		l.byName[rec.Name] = rec.ID
		if i > 0 && rec.ID <= l.Groups[i-1].ID {
			return nil, fmt.Errorf("%w: group records not strictly sorted", ErrCodec)
		}
		if rec.ID >= l.NextID {
			return nil, fmt.Errorf("%w: group ID %d not below NextID %d", ErrCodec, rec.ID, l.NextID)
		}
		l.Groups[i] = rec
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return l, nil
}
