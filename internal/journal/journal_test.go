package journal

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"segshare/internal/obs"
	"segshare/internal/store"
)

type fakeCounter struct{ v uint64 }

func (c *fakeCounter) Increment() (uint64, error) { c.v++; return c.v, nil }
func (c *fakeCounter) Value() uint64              { return c.v }

func testKeys(t *testing.T) Keys {
	t.Helper()
	keys, err := DeriveKeys(bytes.Repeat([]byte{3}, 32))
	if err != nil {
		t.Fatalf("DeriveKeys: %v", err)
	}
	return keys
}

func openJournal(t *testing.T, backend store.Backend, ctr Counter) *Journal {
	t.Helper()
	j, err := Open(backend, testKeys(t), ctr, Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j
}

func commit(t *testing.T, j *Journal, op string) uint64 {
	t.Helper()
	seq, err := j.Commit(op, []Write{{Store: "content", Name: "/" + op, Body: []byte(op)}}, nil)
	if err != nil {
		t.Fatalf("Commit(%s): %v", op, err)
	}
	return seq
}

func TestCommitRecoverRoundTrip(t *testing.T) {
	backend := store.NewMemory()
	ctr := &fakeCounter{}
	j := openJournal(t, backend, ctr)
	for i := 0; i < 3; i++ {
		commit(t, j, fmt.Sprintf("op%d", i))
	}

	// A fresh open (the "restarted enclave") sees all three intents in
	// order, with full payloads.
	j2 := openJournal(t, backend, ctr)
	set, err := j2.Recover(true)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if set.Discarded != 0 || len(set.Pending) != 3 {
		t.Fatalf("got %d pending %d discarded, want 3/0", len(set.Pending), set.Discarded)
	}
	for i, rec := range set.Pending {
		if want := uint64(i + 1); rec.Seq != want {
			t.Fatalf("pending[%d].Seq = %d, want %d", i, rec.Seq, want)
		}
		if want := fmt.Sprintf("op%d", i); rec.Op != want || string(rec.Writes[0].Body) != want {
			t.Fatalf("pending[%d] = %q/%q, want %q", i, rec.Op, rec.Writes[0].Body, want)
		}
	}
	for _, rec := range set.Pending {
		if err := j2.MarkApplied(rec.Seq); err != nil {
			t.Fatalf("MarkApplied(%d): %v", rec.Seq, err)
		}
	}
	if n := j2.PendingCount(); n != 0 {
		t.Fatalf("pending after apply = %d, want 0", n)
	}
	set, err = j2.Recover(true)
	if err != nil || len(set.Pending) != 0 {
		t.Fatalf("Recover after apply = %d pending, err %v", len(set.Pending), err)
	}
}

func TestMarkAppliedIdempotent(t *testing.T) {
	backend := store.NewMemory()
	j := openJournal(t, backend, &fakeCounter{})
	seq := commit(t, j, "put")
	if err := j.MarkApplied(seq); err != nil {
		t.Fatalf("MarkApplied: %v", err)
	}
	if err := j.MarkApplied(seq); err != nil {
		t.Fatalf("second MarkApplied: %v", err)
	}
}

func TestTornTailDiscarded(t *testing.T) {
	backend := store.NewMemory()
	ctr := &fakeCounter{}
	j := openJournal(t, backend, ctr)
	commit(t, j, "keep")
	seq := commit(t, j, "torn")

	// Truncate the newest record as a crashed partial write would.
	name := objectName(seq)
	blob, err := backend.Get(name)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if err := backend.Put(name, blob[:len(blob)/2]); err != nil {
		t.Fatalf("Put: %v", err)
	}

	keepBlob, err := backend.Get(objectName(1))
	if err != nil {
		t.Fatalf("Get keep: %v", err)
	}
	_, keepSealed, err := openRecord(j.aead, keepBlob)
	if err != nil {
		t.Fatalf("openRecord keep: %v", err)
	}
	keepHash := sha256.Sum256(keepSealed)

	j2 := openJournal(t, backend, ctr)
	set, err := j2.Recover(true)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(set.Pending) != 1 || set.Pending[0].Op != "keep" || set.Discarded != 1 {
		t.Fatalf("got %d pending (op %q) %d discarded, want keep/1", len(set.Pending), set.Pending[0].Op, set.Discarded)
	}
	if _, err := backend.Get(name); !errors.Is(err, store.ErrNotExist) {
		t.Fatalf("torn record still present (err %v)", err)
	}

	// Drain the pending intent (as the file manager's recovery pass
	// does), then verify the chain head rewound to the surviving record:
	// the next commit chains from "keep", not the discarded tail.
	if err := j2.MarkApplied(1); err != nil {
		t.Fatalf("MarkApplied: %v", err)
	}
	commit(t, j2, "after")
	set, err = j2.Recover(true)
	if err != nil || len(set.Pending) != 1 {
		t.Fatalf("Recover after new commit: %d pending, err %v", len(set.Pending), err)
	}
	if !bytes.Equal(set.Pending[0].Prev, keepHash[:]) {
		t.Fatal("post-recovery commit does not chain from the surviving record")
	}
}

func TestTamperedMiddleRecordRejected(t *testing.T) {
	backend := store.NewMemory()
	ctr := &fakeCounter{}
	j := openJournal(t, backend, ctr)
	commit(t, j, "a")
	mid := commit(t, j, "b")
	commit(t, j, "c")

	blob, _ := backend.Get(objectName(mid))
	blob[len(blob)-1] ^= 0x01
	if err := backend.Put(objectName(mid), blob); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := openJournal(t, backend, ctr).Recover(true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover = %v, want ErrCorrupt", err)
	}
}

func TestDeletedMiddleRecordRejected(t *testing.T) {
	backend := store.NewMemory()
	ctr := &fakeCounter{}
	j := openJournal(t, backend, ctr)
	commit(t, j, "a")
	mid := commit(t, j, "b")
	commit(t, j, "c")

	if err := backend.Delete(objectName(mid)); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := openJournal(t, backend, ctr).Recover(true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover = %v, want ErrCorrupt", err)
	}
}

func TestTruncatedTailRejectedInStrictMode(t *testing.T) {
	backend := store.NewMemory()
	ctr := &fakeCounter{}
	j := openJournal(t, backend, ctr)
	commit(t, j, "a")
	b := commit(t, j, "b")
	c := commit(t, j, "c")

	// The host drops the two newest records. That is beyond the one-step
	// crash window, so strict recovery refuses; the relaxed mode used
	// after a CA-authorized backup restoration accepts the survivor.
	for _, seq := range []uint64{b, c} {
		if err := backend.Delete(objectName(seq)); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if _, err := openJournal(t, backend, ctr).Recover(true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict Recover = %v, want ErrCorrupt", err)
	}
	set, err := openJournal(t, backend, ctr).Recover(false)
	if err != nil || len(set.Pending) != 1 || set.Pending[0].Op != "a" {
		t.Fatalf("relaxed Recover = %d pending, err %v", len(set.Pending), err)
	}
}

func TestCrashWindowGapAccepted(t *testing.T) {
	backend := store.NewMemory()
	ctr := &fakeCounter{}
	j := openJournal(t, backend, ctr)
	commit(t, j, "a")

	// Simulate a commit that incremented the counter but crashed before
	// the record write: the counter runs one ahead of the newest record.
	if _, err := ctr.Increment(); err != nil {
		t.Fatal(err)
	}
	set, err := openJournal(t, backend, ctr).Recover(true)
	if err != nil || len(set.Pending) != 1 {
		t.Fatalf("Recover = %d pending, err %v", len(set.Pending), err)
	}
}

func TestRecordBeyondCounterRejected(t *testing.T) {
	backend := store.NewMemory()
	ctr := &fakeCounter{}
	j := openJournal(t, backend, ctr)
	commit(t, j, "a")

	// The host replays a record with a forged future sequence number.
	blob, _ := backend.Get(objectName(1))
	if err := backend.Put(objectName(9), blob); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := openJournal(t, backend, ctr).Recover(true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover = %v, want ErrCorrupt", err)
	}
}

func TestRenamedRecordRejected(t *testing.T) {
	backend := store.NewMemory()
	ctr := &fakeCounter{}
	j := openJournal(t, backend, ctr)
	commit(t, j, "a")
	commit(t, j, "b")
	if _, err := ctr.Increment(); err != nil {
		t.Fatal(err)
	}

	// Moving record 2 to slot 3 breaks the AD binding: the record fails
	// to unseal. It is the tail, so it is discarded — but slot 2 is now a
	// hole, and the gap check catches that before reaching it.
	blob, _ := backend.Get(objectName(2))
	if err := backend.Delete(objectName(2)); err != nil {
		t.Fatal(err)
	}
	if err := backend.Put(objectName(3), blob); err != nil {
		t.Fatal(err)
	}
	if _, err := openJournal(t, backend, ctr).Recover(true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover = %v, want ErrCorrupt", err)
	}
}

func TestMalformedObjectNameRejected(t *testing.T) {
	backend := store.NewMemory()
	if err := backend.Put(ObjectPrefix+"bogus", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(backend, testKeys(t), &fakeCounter{}, Options{Obs: obs.NewRegistry()}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestKeysAreDomainSeparated(t *testing.T) {
	root := bytes.Repeat([]byte{3}, 32)
	a, err := DeriveKeys(root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DeriveKeys(bytes.Repeat([]byte{4}, 32))
	if err != nil {
		t.Fatal(err)
	}
	if a.enc.Equal(b.enc) {
		t.Fatal("different root keys derived the same journal key")
	}
}
