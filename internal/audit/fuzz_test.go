package audit

import (
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"segshare/internal/obs"
	"segshare/internal/pae"
	"segshare/internal/store"
)

// FuzzOpenRecord seals the fuzzed plaintext under the record key, so the
// decoder behind the AEAD sees arbitrary bytes, and asserts that opening
// never panics, fails only with ErrRecordCorrupt, and that a binary
// record (coded or compact) it accepts re-seals and re-opens to the same
// record, unless its event or decision has no code, which sealRecord
// refuses.
func FuzzOpenRecord(f *testing.F) {
	keys := testKeys(f)
	rc := testCipher(f, keys)
	rec := Record{Seq: 3, TimeNanos: 1_700_000_000_000_000_000, Event: EventFileAuthzDeny,
		Decision: DecisionDeny, Op: "fs_get", RequestID: 9, User: "bob", Path: "/secret.txt"}
	ct, err := sealRecord(rc, rec)
	if err != nil {
		f.Fatal(err)
	}
	coded, err := pae.Decrypt(keys.Enc, ct, recordAssociatedData(rec.Seq))
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := json.Marshal(rec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Seq, coded)
	f.Add(rec.Seq, compactPlain(rec))
	f.Add(rec.Seq, legacy)
	f.Add(uint64(1), []byte{recordCompact})
	f.Add(uint64(1), []byte{recordCoded, 0, 0, byte(len(eventCodes)), 0})
	f.Fuzz(func(t *testing.T, seq uint64, plain []byte) {
		ct, err := pae.Encrypt(keys.Enc, plain, recordAssociatedData(seq))
		if err != nil {
			t.Fatal(err)
		}
		got, err := openRecord(rc, seq, ct)
		if err != nil {
			if !errors.Is(err, ErrRecordCorrupt) {
				t.Fatalf("openRecord error %v is not ErrRecordCorrupt", err)
			}
			return
		}
		if len(plain) == 0 || plain[0] != recordCompact && plain[0] != recordCoded {
			return
		}
		coded := slices.Contains(eventCodes, got.Event) && slices.Contains(decisionCodes, got.Decision)
		resealed, err := sealRecord(rc, got)
		if (err == nil) != coded {
			t.Fatalf("sealRecord(%q, %q) = %v", got.Event, got.Decision, err)
		}
		if !coded {
			return
		}
		again, err := openRecord(rc, seq, resealed)
		if err != nil || again != got {
			t.Fatalf("re-sealed record opens as %+v, %v; want %+v", again, err, got)
		}
	})
}

// FuzzVerifySegment stores one fuzzed segment and runs both readers of
// untrusted segments over it — the offline verifier and the writer's
// resume walk — asserting neither panics and every failure is one of
// the package's integrity errors.
func FuzzVerifySegment(f *testing.F) {
	keys := testKeys(f)
	seed := store.NewMemory()
	buildLog(f, seed, keys, testCounter(f), 3, Options{CheckpointEvery: 2})
	segment, err := seed.Get(segmentName(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(segment)
	f.Add(segment[:len(segment)-1])
	f.Add([]byte{})
	sentinels := []error{ErrRecordCorrupt, ErrTruncated, ErrSegmentOrder,
		ErrChainMismatch, ErrCheckpointForged, ErrCheckpointReplay}
	check := func(t *testing.T, what string, err error) {
		for _, s := range sentinels {
			if errors.Is(err, s) {
				return
			}
		}
		t.Fatalf("%s: error %v is none of the integrity errors", what, err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := store.NewMemory()
		if err := b.Put(segmentName(1), data); err != nil {
			t.Fatal(err)
		}
		if _, err := Verify(b, keys, VerifyOptions{}); err != nil {
			check(t, "Verify", err)
		}
		log, err := Open(b, keys, nil, Options{Obs: obs.NewRegistry()})
		if err != nil {
			check(t, "Open", err)
			return
		}
		if err := log.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}
