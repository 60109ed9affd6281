package journal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"segshare/internal/store"
)

// recordCases spans the shapes an intent takes: no writes, one, many, an
// empty body, a NeedsToken root write among sealed ones, deletes only.
func recordCases() map[string]struct {
	writes  []Write
	deletes []Delete
} {
	big := bytes.Repeat([]byte{0xA5}, 3*4096+7)
	root := Write{Store: "content", Name: "/", Body: []byte("hdr+dir body"), NeedsToken: true}
	return map[string]struct {
		writes  []Write
		deletes []Delete
	}{
		"empty":      {},
		"one":        {writes: []Write{{Store: "content", Name: "/file-a", Body: []byte("sealed a")}}},
		"empty-body": {writes: []Write{{Store: "group", Name: "g", Body: []byte{}}}},
		"deletes":    {deletes: []Delete{{Store: "content", Name: "/a"}, {Store: "content", Name: "/a.acl"}}},
		"root-only":  {writes: []Write{root}},
		"root-empty": {writes: []Write{{Store: "group", Name: "groupsroot", Body: []byte{}, NeedsToken: true}}},
		"many": {
			writes: []Write{
				{Store: "content", Name: "/d/f", Body: big},
				{Store: "content", Name: "/d/f.acl", Body: []byte{}},
				root,
				{Store: "group", Name: "member:bob", Body: []byte("m")},
			},
			deletes: []Delete{{Store: "group", Name: "member:eve"}},
		},
	}
}

// normalize maps empty slices to nil so reflect.DeepEqual compares
// content, not the nil/empty distinction the codec does not carry.
func normalize(rec *Intent) {
	for i := range rec.Writes {
		if w := &rec.Writes[i]; len(w.Body) == 0 {
			w.Body = nil
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for name, tc := range recordCases() {
		t.Run(name, func(t *testing.T) {
			backend := store.NewMemory()
			ctr := &fakeCounter{}
			j := openJournal(t, backend, ctr)
			seq, err := j.Commit("fs_put", tc.writes, tc.deletes)
			if err != nil {
				t.Fatalf("Commit: %v", err)
			}
			raw, err := backend.Get(objectName(seq))
			if err != nil {
				t.Fatal(err)
			}

			set, err := openJournal(t, backend, ctr).Recover(true)
			if err != nil || len(set.Pending) != 1 {
				t.Fatalf("Recover = %d pending, err %v", len(set.Pending), err)
			}
			got := set.Pending[0]
			want := &Intent{Seq: seq, Op: "fs_put", Prev: make([]byte, 32), Writes: append([]Write(nil), tc.writes...), Deletes: tc.deletes}
			normalize(got)
			normalize(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
			}

			// The sealed blobs sit in the record verbatim — authenticated,
			// not encrypted again — and nothing else of the intent does.
			for _, w := range tc.writes {
				if w.NeedsToken {
					if bytes.Contains(raw, w.Body) && len(w.Body) > 0 {
						t.Errorf("root body %q is readable in the record", w.Body)
					}
				} else if !bytes.Contains(raw, w.Body) {
					t.Errorf("blob of %s is not in the record verbatim", w.Name)
				}
				if bytes.Contains(raw, []byte(w.Name)) && len(w.Name) >= 4 {
					t.Errorf("name %q is readable in the record", w.Name)
				}
			}
		})
	}
}

// blobRegion returns the offset of the blob region inside a stored record.
func blobRegion(t *testing.T, j *Journal, raw []byte) int {
	t.Helper()
	_, sealed, err := openRecord(j.aead, raw)
	if err != nil {
		t.Fatalf("openRecord: %v", err)
	}
	return prefixLen + len(sealed)
}

// threeRecords commits three one-blob intents and returns the backend.
func threeRecords(t *testing.T) (*Journal, store.Backend, *fakeCounter) {
	t.Helper()
	backend := store.NewMemory()
	ctr := &fakeCounter{}
	j := openJournal(t, backend, ctr)
	for _, op := range []string{"a", "b", "c"} {
		if _, err := j.Commit(op, []Write{{Store: "content", Name: "/f", Body: bytes.Repeat([]byte(op), 64)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return j, backend, ctr
}

func rewrite(t *testing.T, backend store.Backend, seq uint64, edit func(raw []byte) []byte) {
	t.Helper()
	raw, err := backend.Get(objectName(seq))
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Put(objectName(seq), edit(append([]byte(nil), raw...))); err != nil {
		t.Fatal(err)
	}
}

func TestBlobRegionByteFlip(t *testing.T) {
	for _, tc := range []struct {
		name string
		seq  uint64
	}{{"middle", 2}, {"tail", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			j, backend, ctr := threeRecords(t)
			rewrite(t, backend, tc.seq, func(raw []byte) []byte {
				raw[blobRegion(t, j, raw)+10] ^= 0x01
				return raw
			})
			set, err := openJournal(t, backend, ctr).Recover(true)
			if tc.seq == 2 {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Recover = %v, want ErrCorrupt", err)
				}
				return
			}
			// The blobs are only authenticated, so a flipped blob byte in the
			// newest record is indistinguishable from a torn commit.
			if err != nil || len(set.Pending) != 2 || set.Discarded != 1 {
				t.Fatalf("Recover = %d pending %d discarded, err %v; want 2/1", len(set.Pending), set.Discarded, err)
			}
		})
	}
}

// TestOlderBlobOfSameFileRejected: the host keeps record 1's blob — a
// valid ciphertext of the same file, same length — and splices it into a
// later record. The per-file key accepts it; the record's tag must not.
func TestOlderBlobOfSameFileRejected(t *testing.T) {
	for _, seq := range []uint64{2, 3} {
		j, backend, ctr := threeRecords(t)
		first, err := backend.Get(objectName(1))
		if err != nil {
			t.Fatal(err)
		}
		old := first[blobRegion(t, j, first):]
		rewrite(t, backend, seq, func(raw []byte) []byte {
			return append(raw[:blobRegion(t, j, raw)], old...)
		})
		set, err := openJournal(t, backend, ctr).Recover(true)
		if seq == 2 && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("middle record: Recover = %v, want ErrCorrupt", err)
		}
		if seq == 3 && (err != nil || len(set.Pending) != 2 || set.Discarded != 1) {
			t.Fatalf("tail record: %d pending %d discarded, err %v; want it discarded", len(set.Pending), set.Discarded, err)
		}
	}
}

// TestUnknownFormatIsCorruptNotTorn: a torn write keeps a prefix of the
// record, first byte included, so another format byte is never a crash
// artefact — even on the newest record.
func TestUnknownFormatIsCorruptNotTorn(t *testing.T) {
	_, backend, ctr := threeRecords(t)
	rewrite(t, backend, 3, func(raw []byte) []byte {
		raw[0] = '{' // what the retired JSON-era records would look like to a scan
		return raw
	})
	if _, err := Open(backend, testKeys(t), ctr, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
	_, backend, ctr = threeRecords(t)
	j := openJournal(t, backend, ctr)
	rewrite(t, backend, 3, func(raw []byte) []byte { raw[0] = 0x02; return raw })
	if _, err := j.Recover(true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover = %v, want ErrCorrupt", err)
	}
	if ok, _ := backend.Exists(objectName(3)); !ok {
		t.Fatal("record with an unknown format was discarded as torn")
	}
	// Every shorter prefix of a record, down to nothing, is torn.
	for _, n := range []int{0, 1, prefixLen - 1, prefixLen, prefixLen + 20} {
		_, backend, ctr := threeRecords(t)
		rewrite(t, backend, 3, func(raw []byte) []byte { return raw[:n] })
		set, err := openJournal(t, backend, ctr).Recover(true)
		if err != nil || set.Discarded != 1 || len(set.Pending) != 2 {
			t.Fatalf("prefix of %d bytes: %d pending %d discarded, err %v", n, len(set.Pending), set.Discarded, err)
		}
	}
}

// TestCommitDoesNotKeepCallerBodies: the record owns a copy, so a caller
// reusing its buffer after Commit cannot change what recovery installs.
func TestCommitDoesNotKeepCallerBodies(t *testing.T) {
	backend := store.NewMemory()
	ctr := &fakeCounter{}
	j := openJournal(t, backend, ctr)
	body := []byte("sealed bytes")
	if _, err := j.Commit("fs_put", []Write{{Store: "content", Name: "/f", Body: body}}, nil); err != nil {
		t.Fatal(err)
	}
	copy(body, "XXXXXXXXXXXX")
	set, err := j.Recover(true)
	if err != nil || string(set.Pending[0].Writes[0].Body) != "sealed bytes" {
		t.Fatalf("recovered body %q, err %v", set.Pending[0].Writes[0].Body, err)
	}
}

// FuzzDecodeRecord feeds arbitrary bytes to both decoders: openRecord
// (whole stored records, where almost everything dies at the tag) and
// decodeHeader (the bytes behind the tag, split at every point into
// header and blob region). Neither may panic, and whatever decodeHeader
// accepts must re-seal to a record that opens to the same intent.
func FuzzDecodeRecord(f *testing.F) {
	keys, err := DeriveKeys(bytes.Repeat([]byte{3}, 32))
	if err != nil {
		f.Fatal(err)
	}
	backend := store.NewMemory()
	j, err := Open(backend, keys, &fakeCounter{}, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, tc := range recordCases() {
		seq, err := j.Commit("fs_put", tc.writes, tc.deletes)
		if err != nil {
			f.Fatal(err)
		}
		raw, _ := backend.Get(objectName(seq))
		f.Add(raw, uint16(0))
		_, sealed, _ := openRecord(j.aead, raw)
		hdr, _ := j.aead.Open(sealed, raw[prefixLen+len(sealed):])
		f.Add(append(hdr, raw[prefixLen+len(sealed):]...), uint16(len(hdr)))
	}
	f.Add([]byte{formatV1, 0xff, 0xff, 0xff, 0xff}, uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		if rec, _, err := openRecord(j.aead, data); err == nil && rec == nil {
			t.Fatal("openRecord returned neither intent nor error")
		}
		n := int(split)
		if n > len(data) {
			n = len(data)
		}
		rec, err := decodeHeader(data[:n], data[n:])
		if err != nil {
			return
		}
		raw, _, err := sealRecord(j.aead, rec)
		if err != nil {
			t.Fatalf("re-seal of an accepted header: %v", err)
		}
		again, _, err := openRecord(j.aead, raw)
		if err != nil {
			t.Fatalf("re-sealed record does not open: %v", err)
		}
		normalize(rec)
		normalize(again)
		if len(rec.Prev) == 0 {
			rec.Prev, again.Prev = nil, nil
		}
		if !reflect.DeepEqual(rec, again) {
			t.Fatalf("decode/seal/open changed the intent:\n %+v\n %+v", rec, again)
		}
	})
}
