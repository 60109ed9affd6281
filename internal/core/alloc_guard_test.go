package core

import (
	"bytes"
	"runtime"
	"testing"
)

// allocMiBPerOp runs op rounds times and returns the heap bytes allocated
// per call, in MiB.
func allocMiBPerOp(t *testing.T, rounds int, op func()) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds) / (1 << 20)
}

// TestJournaledUploadAllocBudget pins how many bytes one journaled 1 MiB
// overwrite allocates, so a body copy cannot creep back unnoticed. Four
// buffers of the object's size are the floor on memory stores: the raw
// content body Upload copies the caller's bytes into, the journal record
// the blob is sealed straight into, and store.Memory's private copy of
// each of the two Puts (4.1 MiB with pfs framing; sealing the blob on its
// own and copying it into the record cost a fifth). The budget leaves
// room for background allocation, not for a fifth.
func TestJournaledUploadAllocBudget(t *testing.T) {
	f := newHandlerFixture(t)
	s := f.server.Direct("alice")
	body := bytes.Repeat([]byte{0x5a}, 1<<20)
	if err := s.Upload("/big.bin", body); err != nil {
		t.Fatal(err)
	}
	perOp := allocMiBPerOp(t, 10, func() {
		if err := s.Upload("/big.bin", body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.2f MiB allocated per 1 MiB overwrite", perOp)
	if perOp > 4.25 {
		t.Fatalf("one 1 MiB overwrite allocated %.2f MiB, budget 4.25", perOp)
	}
}

// TestHandlerUploadAllocBudget is the same count for a PUT through the
// HTTP handler, where the body is read straight into the raw content
// body: no buffer beyond the Direct path's four, so re-tagging the body
// read from the request would exceed it.
func TestHandlerUploadAllocBudget(t *testing.T) {
	f := newHandlerFixture(t)
	body := bytes.Repeat([]byte{0x5a}, 1<<20)
	put := func() {
		if rec := f.do(t, "alice", "PUT", "/fs/big.bin", body, nil); rec.Code/100 != 2 {
			t.Fatalf("PUT = %d: %s", rec.Code, rec.Body)
		}
	}
	put()
	perOp := allocMiBPerOp(t, 10, put)
	t.Logf("%.2f MiB allocated per 1 MiB PUT", perOp)
	if perOp > 4.25 {
		t.Fatalf("one 1 MiB PUT allocated %.2f MiB, budget 4.25", perOp)
	}
}

// TestDirectDownloadAllocBudget pins a 1 MiB GET to one buffer of the
// object's size: store.Memory's copy of the blob, which the chunks are
// opened in place in and returned from. A plaintext buffer apart from
// the blob would double it.
func TestDirectDownloadAllocBudget(t *testing.T) {
	f := newHandlerFixture(t)
	s := f.server.Direct("alice")
	body := bytes.Repeat([]byte{0x5a}, 1<<20)
	if err := s.Upload("/big.bin", body); err != nil {
		t.Fatal(err)
	}
	get := func() {
		if got, err := s.Download("/big.bin"); err != nil || len(got) != len(body) {
			t.Fatalf("Download = %d bytes, err %v", len(got), err)
		}
	}
	get()
	perOp := allocMiBPerOp(t, 10, get)
	t.Logf("%.2f MiB allocated per 1 MiB GET", perOp)
	if perOp > 1.25 {
		t.Fatalf("one 1 MiB GET allocated %.2f MiB, budget 1.25", perOp)
	}
}
