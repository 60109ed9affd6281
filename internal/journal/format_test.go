package journal

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"segshare/internal/store"
)

// parentIntent is the intent testdata/parent/record-7.bin holds: a record
// committed as sequence 7 by the last commit whose journal copied every
// blob into the record from its Body, under the test root key.
func parentIntent() ([]Write, []Delete) {
	blob := make([]byte, 3*4096+7)
	for i := range blob {
		blob[i] = byte(i*7 + (i >> 8))
	}
	return []Write{
			{Store: "content", Name: "/docs/a.txt", Body: blob},
			{Store: "content", Name: "/docs/a.txt.acl", Body: []byte("sealed acl")},
			{Store: "group", Name: "groupsroot", Body: []byte("hdr+root body"), NeedsToken: true},
			{Store: "group", Name: "member:bob", Body: []byte{}},
		}, []Delete{
			{Store: "content", Name: "/docs/old.txt"},
		}
}

// TestParentRecordRecovers pins the record format: a record written
// before writes could carry sealers recovers, unchanged, to the intent it
// was committed with.
func TestParentRecordRecovers(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent/record-7.bin")
	if err != nil {
		t.Fatal(err)
	}
	backend := store.NewMemory()
	if err := backend.Put(objectName(7), raw); err != nil {
		t.Fatal(err)
	}
	set, err := openJournal(t, backend, &fakeCounter{v: 7}).Recover(true)
	if err != nil || len(set.Pending) != 1 || set.Discarded != 0 {
		t.Fatalf("Recover = %d pending %d discarded, err %v", len(set.Pending), set.Discarded, err)
	}
	writes, deletes := parentIntent()
	want := &Intent{Seq: 7, Op: "fs_put", Prev: make([]byte, 32), Writes: writes, Deletes: deletes}
	got := set.Pending[0]
	normalize(got)
	normalize(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parent record recovered as\n %+v\nwant\n %+v", got, want)
	}
}

// sealerWrites turns Body writes into sealer writes producing the same
// bytes, the way the file manager hands its blobs to Commit.
func sealerWrites(writes []Write) []Write {
	out := make([]Write, len(writes))
	for i, w := range writes {
		out[i] = w
		if w.NeedsToken {
			continue
		}
		body := w.Body
		out[i].Body, out[i].Size = nil, len(body)
		out[i].Seal = func(dst []byte) ([]byte, error) { return append(dst, body...), nil }
	}
	return out
}

// TestSealersMatchBodyCopies: a record whose blobs are sealed in place by
// their writes' sealers has the blob region of the record copied from
// Bodies and decodes to the same intent; and Commit leaves every write's
// Body holding its blob.
func TestSealersMatchBodyCopies(t *testing.T) {
	for name, tc := range recordCases() {
		t.Run(name, func(t *testing.T) {
			backend := store.NewMemory()
			ctr := &fakeCounter{}
			j := openJournal(t, backend, ctr)
			copied := append([]Write(nil), tc.writes...)
			sealed := sealerWrites(tc.writes)
			if _, err := j.Commit("fs_put", copied, tc.deletes); err != nil {
				t.Fatal(err)
			}
			if _, err := j.Commit("fs_put", sealed, tc.deletes); err != nil {
				t.Fatal(err)
			}
			for i := range sealed {
				if !bytes.Equal(sealed[i].Body, tc.writes[i].Body) {
					t.Fatalf("write %d: Body after Commit = %q, want the sealed blob", i, sealed[i].Body)
				}
			}
			set, err := openJournal(t, backend, ctr).Recover(true)
			if err != nil || len(set.Pending) != 2 {
				t.Fatalf("Recover = %d pending, err %v", len(set.Pending), err)
			}
			a, b := set.Pending[0], set.Pending[1]
			normalize(a)
			normalize(b)
			if !reflect.DeepEqual(a.Writes, b.Writes) || !reflect.DeepEqual(a.Deletes, b.Deletes) {
				t.Fatalf("copied record decodes to %+v, sealed one to %+v", a, b)
			}
			rawA, _ := backend.Get(objectName(a.Seq))
			rawB, _ := backend.Get(objectName(b.Seq))
			if la, lb := blobRegion(t, j, rawA), blobRegion(t, j, rawB); la != lb || !bytes.Equal(rawA[la:], rawB[lb:]) {
				t.Fatal("the two records' blob regions differ")
			}
		})
	}
}

// TestSealerFailureWritesNoRecord: a sealer that fails, or writes other
// than exactly its slot, fails the commit with no record stored.
func TestSealerFailureWritesNoRecord(t *testing.T) {
	errSeal := errors.New("seal failed")
	for name, seal := range map[string]func(dst []byte) ([]byte, error){
		"error": func(dst []byte) ([]byte, error) { return nil, errSeal },
		"short": func(dst []byte) ([]byte, error) { return append(dst, "abc"...), nil },
		"grown": func(dst []byte) ([]byte, error) { return append(dst, "abcdef"...), nil },
		"moved": func(dst []byte) ([]byte, error) { return []byte("abcd"), nil },
	} {
		t.Run(name, func(t *testing.T) {
			backend := store.NewMemory()
			j := openJournal(t, backend, &fakeCounter{})
			if _, err := j.Commit("fs_put", []Write{{Store: "content", Name: "/f", Seal: seal, Size: 4}}, nil); err == nil {
				t.Fatal("commit with a failing sealer succeeded")
			}
			if names, _ := backend.List(); len(names) != 0 {
				t.Fatalf("failed commit left objects %v", names)
			}
		})
	}
}
