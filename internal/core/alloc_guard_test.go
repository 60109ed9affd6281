package core

import (
	"bytes"
	"runtime"
	"testing"
)

// TestJournaledUploadAllocBudget pins how many bytes one journaled 1 MiB
// overwrite allocates, so a body copy cannot creep back unnoticed. Five
// buffers of the object's size are the floor on memory stores: the tagged
// content body, its sealed blob, the journal record that carries the
// blob, and store.Memory's private copy of each of the two Puts (5.1 MiB
// with pfs framing; the JSON/base64 record sealed twice cost 10 MiB).
// The budget leaves room for background allocation, not for a sixth.
func TestJournaledUploadAllocBudget(t *testing.T) {
	f := newHandlerFixture(t)
	s := f.server.Direct("alice")
	body := bytes.Repeat([]byte{0x5a}, 1<<20)
	if err := s.Upload("/big.bin", body); err != nil {
		t.Fatal(err)
	}
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if err := s.Upload("/big.bin", body); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / rounds / (1 << 20)
	t.Logf("%.2f MiB allocated per 1 MiB overwrite", perOp)
	if perOp > 5.5 {
		t.Fatalf("one 1 MiB overwrite allocated %.2f MiB, budget 5.5", perOp)
	}
}
