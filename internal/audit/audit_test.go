package audit

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"segshare/internal/enclave"
	"segshare/internal/obs"
	"segshare/internal/pae"
	"segshare/internal/store"
)

func testKeys(t testing.TB) Keys {
	t.Helper()
	keys, err := DeriveKeys([]byte("test-root-key-0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// testCipher returns the record cipher of keys.
func testCipher(t testing.TB, keys Keys) *pae.Cipher {
	t.Helper()
	c, err := pae.NewCipher(keys.Enc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testCounter(t testing.TB) *enclave.MonotonicCounter {
	t.Helper()
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	encl, err := platform.Launch(enclave.CodeIdentity{Name: "audit-test", Version: 1, Config: []byte("cfg")})
	if err != nil {
		t.Fatal(err)
	}
	return encl.Counter("audit-log")
}

// buildLog writes n records through a fresh writer and closes it.
func buildLog(t testing.TB, b store.Backend, keys Keys, ctr *enclave.MonotonicCounter, n int, opt Options) {
	t.Helper()
	if opt.Obs == nil {
		opt.Obs = obs.NewRegistry()
	}
	log, err := Open(b, keys, ctr, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		log.Emit(Event{
			Event:     EventFileAuthzAllow,
			Decision:  DecisionAllow,
			Op:        "fs_get",
			RequestID: uint64(i + 1),
			User:      "alice",
			Path:      fmt.Sprintf("/doc-%d.txt", i),
		})
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripAndDump(t *testing.T) {
	b := store.NewMemory()
	keys := testKeys(t)
	ctr := testCounter(t)
	reg := obs.NewRegistry()

	log, err := Open(b, keys, ctr, Options{CheckpointEvery: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{Event: EventAuthnSuccess, User: "alice", Op: "fs_get", RequestID: 1},
		{Event: EventFileAuthzDeny, Decision: DecisionDeny, User: "bob", Path: "/secret.txt", Op: "fs_get", RequestID: 2},
		{Event: EventGroupChange, Decision: DecisionAllow, User: "alice", Target: "bob", Group: "finance", Op: "api_groups_add", RequestID: 3},
		{Event: EventRollbackFailure, Detail: "stale main hash"},
		{Event: EventKeyOp, Detail: "root_unseal"},
	}
	for _, ev := range events {
		log.Emit(ev)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	head := log.Head()
	if head.Records != uint64(len(events)) {
		t.Fatalf("head records = %d, want %d", head.Records, len(events))
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	var dump bytes.Buffer
	res, err := Verify(b, keys, VerifyOptions{Dump: &dump, ExpectCounter: ctr.Value()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != uint64(len(events)) {
		t.Fatalf("verified %d records, want %d", res.Records, len(events))
	}
	if res.Checkpoints < 2 { // one at CheckpointEvery=4, one final
		t.Fatalf("checkpoints = %d, want >= 2", res.Checkpoints)
	}
	if res.LastCounter != ctr.Value() {
		t.Fatalf("last counter = %d, enclave counter = %d", res.LastCounter, ctr.Value())
	}

	var recs []Record
	dec := json.NewDecoder(&dump)
	for dec.More() {
		var r Record
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if len(recs) != len(events) {
		t.Fatalf("dumped %d records, want %d", len(recs), len(events))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.Event != events[i].Event || r.User != events[i].User || r.Path != events[i].Path ||
			r.Target != events[i].Target || r.Group != events[i].Group || r.RequestID != events[i].RequestID {
			t.Fatalf("record %d = %+v, want fields of %+v", i, r, events[i])
		}
		if r.TimeNanos == 0 {
			t.Fatalf("record %d has no timestamp", i)
		}
	}
}

// TestCiphertextHidesIdentity ensures no plaintext principal or path ever
// reaches the untrusted store.
func TestCiphertextHidesIdentity(t *testing.T) {
	b := store.NewMemory()
	keys := testKeys(t)
	buildLog(t, b, keys, nil, 10, Options{})
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		body, err := b.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, leak := range []string{"alice", "doc-", "authz_allow", "fs_get"} {
			if bytes.Contains(body, []byte(leak)) {
				t.Fatalf("segment %s leaks %q in plaintext", n, leak)
			}
		}
	}
}

func TestTamperBitFlip(t *testing.T) {
	b := store.NewMemory()
	keys := testKeys(t)
	buildLog(t, b, keys, testCounter(t), 20, Options{CheckpointEvery: 8})

	seg, err := b.Get(segmentName(1))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the first record's ciphertext payload (past the
	// frame header).
	seg[frameHeaderLen+3] ^= 0x01
	if err := b.Put(segmentName(1), seg); err != nil {
		t.Fatal(err)
	}
	_, err = Verify(b, keys, VerifyOptions{})
	if !errors.Is(err, ErrRecordCorrupt) {
		t.Fatalf("bit flip: got %v, want ErrRecordCorrupt", err)
	}
}

func TestTamperTruncateSegment(t *testing.T) {
	b := store.NewMemory()
	keys := testKeys(t)
	buildLog(t, b, keys, testCounter(t), 20, Options{CheckpointEvery: 8})

	seg, err := b.Get(segmentName(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(segmentName(1), seg[:len(seg)-7]); err != nil {
		t.Fatal(err)
	}
	_, err = Verify(b, keys, VerifyOptions{})
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncation: got %v, want ErrTruncated", err)
	}
}

func TestTamperSwapSegments(t *testing.T) {
	b := store.NewMemory()
	keys := testKeys(t)
	// Small segments so the log spans several objects.
	buildLog(t, b, keys, testCounter(t), 30, Options{SegmentEntries: 8, CheckpointEvery: 100})

	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("want >= 3 segments, got %v", names)
	}
	s1, err := b.Get(segmentName(1))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.Get(segmentName(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(segmentName(1), s2); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(segmentName(2), s1); err != nil {
		t.Fatal(err)
	}
	_, err = Verify(b, keys, VerifyOptions{})
	if !errors.Is(err, ErrSegmentOrder) {
		t.Fatalf("segment swap: got %v, want ErrSegmentOrder", err)
	}
}

func TestTamperCheckpointReplay(t *testing.T) {
	b := store.NewMemory()
	keys := testKeys(t)
	ctr := testCounter(t)
	reg := obs.NewRegistry()

	// First epoch.
	log, err := Open(b, keys, ctr, Options{CheckpointEvery: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		log.Emit(Event{Event: EventFileAuthzAllow, Op: "fs_get"})
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// The adversary snapshots the whole audit store, lets the enclave
	// write a second epoch, then rolls the store back — an internally
	// consistent but stale log (whole-store rollback, paper §V-E).
	snapshot := map[string][]byte{}
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		data, err := b.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		snapshot[n] = data
	}

	log, err = Open(b, keys, ctr, Options{CheckpointEvery: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		log.Emit(Event{Event: EventFileAuthzDeny, Op: "fs_put"})
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	liveCounter := ctr.Value()

	// Roll back.
	for _, n := range names {
		if err := b.Put(n, snapshot[n]); err != nil {
			t.Fatal(err)
		}
	}
	extra, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range extra {
		if _, ok := snapshot[n]; !ok {
			if err := b.Delete(n); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Without the live counter the stale log looks fine…
	if _, err := Verify(b, keys, VerifyOptions{}); err != nil {
		t.Fatalf("stale log should be internally consistent, got %v", err)
	}
	// …but against the enclave counter it is exposed.
	_, err = Verify(b, keys, VerifyOptions{ExpectCounter: liveCounter})
	if !errors.Is(err, ErrCheckpointReplay) {
		t.Fatalf("checkpoint replay: got %v, want ErrCheckpointReplay", err)
	}
	// The enclave notices the same rollback at startup.
	_, err = Open(b, keys, ctr, Options{Obs: reg})
	if !errors.Is(err, ErrLogRollback) {
		t.Fatalf("open after rollback: got %v, want ErrLogRollback", err)
	}
}

// TestTamperCheckpointForged covers in-place edits of a checkpoint frame.
func TestTamperCheckpointForged(t *testing.T) {
	b := store.NewMemory()
	keys := testKeys(t)
	buildLog(t, b, keys, testCounter(t), 8, Options{CheckpointEvery: 4})

	seg, err := b.Get(segmentName(1))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the last frame, which is the final checkpoint's MAC.
	seg[len(seg)-1] ^= 0x80
	if err := b.Put(segmentName(1), seg); err != nil {
		t.Fatal(err)
	}
	_, err = Verify(b, keys, VerifyOptions{})
	if !errors.Is(err, ErrCheckpointForged) {
		t.Fatalf("checkpoint forge: got %v, want ErrCheckpointForged", err)
	}
}

func TestResumeAcrossRestart(t *testing.T) {
	b := store.NewMemory()
	keys := testKeys(t)
	ctr := testCounter(t)
	reg := obs.NewRegistry()

	for epoch := 0; epoch < 3; epoch++ {
		log, err := Open(b, keys, ctr, Options{CheckpointEvery: 4, SegmentEntries: 16, Obs: reg})
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		for i := 0; i < 10; i++ {
			log.Emit(Event{Event: EventFileAuthzAllow, Op: "fs_get"})
		}
		if err := log.Close(); err != nil {
			t.Fatalf("epoch %d close: %v", epoch, err)
		}
	}
	res, err := Verify(b, keys, VerifyOptions{ExpectCounter: ctr.Value(), ExpectRecords: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 30 {
		t.Fatalf("records = %d, want 30", res.Records)
	}
	if res.Segments < 3 {
		t.Fatalf("segments = %d, want >= 3 (one per epoch)", res.Segments)
	}
}

func TestConcurrentEmitters(t *testing.T) {
	b := store.NewMemory()
	keys := testKeys(t)
	ctr := testCounter(t)
	reg := obs.NewRegistry()

	log, err := Open(b, keys, ctr, Options{
		Overflow: OverflowBlock, Buffer: 16, CheckpointEvery: 32, SegmentEntries: 64, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	const emitters, perEmitter = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				log.Emit(Event{
					Event:     EventFileAuthzAllow,
					Op:        "fs_put",
					RequestID: uint64(g*perEmitter + i),
					User:      "user",
				})
				if i%50 == 0 {
					_ = log.Head()
				}
			}
		}(g)
	}
	wg.Wait()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Verify(b, keys, VerifyOptions{ExpectCounter: ctr.Value(), ExpectRecords: emitters * perEmitter})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != emitters*perEmitter {
		t.Fatalf("records = %d, want %d", res.Records, emitters*perEmitter)
	}
}

// slowPutBackend delays every Put so the emit queue backs up.
type slowPutBackend struct {
	store.Backend
	delay time.Duration
}

func (s *slowPutBackend) Put(name string, data []byte) error {
	time.Sleep(s.delay)
	return s.Backend.Put(name, data)
}

func TestOverflowDropCountsAndChainSurvives(t *testing.T) {
	b := &slowPutBackend{Backend: store.NewMemory(), delay: 2 * time.Millisecond}
	keys := testKeys(t)
	reg := obs.NewRegistry()

	log, err := Open(b, keys, nil, Options{Overflow: OverflowDrop, Buffer: 2, CheckpointEvery: 1000, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	const emitted = 500
	for i := 0; i < emitted; i++ {
		log.Emit(Event{Event: EventAuthnSuccess, Op: "fs_get"})
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	drops := log.Drops()
	if drops == 0 {
		t.Fatal("expected drops under a saturated queue")
	}
	res, err := Verify(b.Backend, keys, VerifyOptions{})
	if err != nil {
		t.Fatalf("log with drops must still verify: %v", err)
	}
	if res.Records+drops != emitted {
		t.Fatalf("records %d + drops %d != emitted %d", res.Records, drops, emitted)
	}
}

func TestOverflowBlockLosesNothing(t *testing.T) {
	b := &slowPutBackend{Backend: store.NewMemory(), delay: time.Millisecond}
	keys := testKeys(t)
	reg := obs.NewRegistry()

	log, err := Open(b, keys, nil, Options{Overflow: OverflowBlock, Buffer: 2, CheckpointEvery: 1000, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	const emitted = 100
	for i := 0; i < emitted; i++ {
		log.Emit(Event{Event: EventAuthnSuccess, Op: "fs_get"})
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if drops := log.Drops(); drops != 0 {
		t.Fatalf("block policy dropped %d events", drops)
	}
	if _, err := Verify(b.Backend, keys, VerifyOptions{ExpectRecords: emitted}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsPassLeakBudget(t *testing.T) {
	reg := obs.NewRegistry()
	b := store.NewMemory()
	buildLog(t, b, testKeys(t), nil, 5, Options{Obs: reg})
	if v := reg.LeakBudgetViolations(); v != 0 {
		t.Fatalf("leak budget violations = %d", v)
	}
	for _, err := range reg.VerifyAll() {
		t.Error(err)
	}
	// The event label must be present with its closed-set value.
	found := false
	for _, m := range reg.Snapshot() {
		if m.Name == "segshare_audit_records_total" {
			for _, l := range m.Labels {
				if l.Key == "event" && l.Value == string(EventFileAuthzAllow) {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("segshare_audit_records_total{event=authz_allow} not registered")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	b := store.NewMemory()
	buildLog(t, b, testKeys(t), nil, 3, Options{})
	wrong, err := DeriveKeys([]byte("a-different-root-key"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(b, wrong, VerifyOptions{}); err == nil {
		t.Fatal("verification with the wrong key must fail")
	} else if !errors.Is(err, ErrRecordCorrupt) && !errors.Is(err, ErrCheckpointForged) {
		t.Fatalf("wrong key: got %v", err)
	}
}

func TestHeadIsLeakSafe(t *testing.T) {
	b := store.NewMemory()
	keys := testKeys(t)
	log, err := Open(b, keys, nil, Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	log.Emit(Event{Event: EventFileAuthzDeny, User: "alice", Path: "/payroll.xlsx", Group: "finance"})
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(log.Head())
	if err != nil {
		t.Fatal(err)
	}
	for _, leak := range []string{"alice", "payroll", "finance"} {
		if strings.Contains(string(raw), leak) {
			t.Fatalf("head JSON leaks %q: %s", leak, raw)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// compactPlain is the recordCompact plaintext of rec: every string field
// spelled out, as older logs hold every record.
func compactPlain(rec Record) []byte {
	plain := binary.AppendVarint([]byte{recordCompact}, rec.TimeNanos)
	plain = binary.AppendUvarint(plain, rec.RequestID)
	for _, f := range recordStrings(&rec) {
		plain = binary.AppendUvarint(plain, uint64(len(*f)))
		plain = append(plain, *f...)
	}
	return plain
}

// TestRecordEncodings pins the record plaintext: a record is written
// coded and round-trips every field, and one whose event or decision has
// no code is not written; compact and JSON records, as older logs hold
// them, still open; the coded record is smaller than the compact one and
// that than the JSON one; and a malformed plaintext is a corrupt record,
// not a panic.
func TestRecordEncodings(t *testing.T) {
	keys := testKeys(t)
	rc := testCipher(t, keys)
	rec := Record{Seq: 7, TimeNanos: time.Now().UnixNano(), Event: EventGroupChange,
		Decision: DecisionAllow, Op: "api_groups_add", RequestID: 1 << 40, User: "alice",
		Target: "bob", Group: "finance", Path: "/team/plan.txt", Detail: "add"}
	seal := func(plain []byte) []byte {
		ct, err := pae.Encrypt(keys.Enc, plain, recordAssociatedData(rec.Seq))
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	coded, err := sealRecord(rc, rec)
	if err != nil {
		t.Fatal(err)
	}
	plainJSON, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	compact, legacy := seal(compactPlain(rec)), seal(plainJSON)
	t.Logf("sealed record: %d B coded, %d B compact, %d B JSON", len(coded), len(compact), len(legacy))
	if len(coded) != len(compact)-len(rec.Event)-len(rec.Decision) || len(compact) >= len(legacy)*3/4 {
		t.Errorf("coded record is %d B, compact %d B, JSON %d B", len(coded), len(compact), len(legacy))
	}
	for _, unlisted := range []Record{{Event: "not_an_event", Decision: DecisionAllow}, {Event: EventFileAuthzAllow, Decision: "maybe"}} {
		if _, err := sealRecord(rc, unlisted); err == nil {
			t.Fatalf("record with event %q, decision %q sealed", unlisted.Event, unlisted.Decision)
		}
	}
	for name, payload := range map[string][]byte{"coded": coded, "compact": compact, "json": legacy} {
		if got, err := openRecord(rc, rec.Seq, payload); err != nil || got != rec {
			t.Fatalf("%s: openRecord = %+v, %v; want %+v", name, got, err, rec)
		}
	}
	if _, err := openRecord(rc, rec.Seq+1, coded); !errors.Is(err, ErrRecordCorrupt) {
		t.Fatalf("record opened under another seq: %v", err)
	}
	full := append([]byte{recordCompact}, bytes.Repeat([]byte{0x80}, 3)...)
	for _, plain := range [][]byte{nil, {0x7f}, {recordCompact}, full, {recordCompact, 2, 0, 5, 'x'},
		{recordCoded, 2, 0}, {recordCoded, 2, 0, byte(len(eventCodes)), 0, 0, 0, 0, 0, 0, 0},
		{recordCoded, 2, 0, 0, byte(len(decisionCodes)), 0, 0, 0, 0, 0, 0}} {
		ct, err := pae.Encrypt(keys.Enc, plain, recordAssociatedData(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := openRecord(rc, 1, ct); !errors.Is(err, ErrRecordCorrupt) {
			t.Fatalf("malformed plaintext %x: %v", plain, err)
		}
	}
}

// TestEventCodesCoverEveryEvent fails when an EventType constant of this
// package has no code: its records could not be written.
func TestEventCodesCoverEveryEvent(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var consts []EventType
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "EventType" {
				return true
			}
			for _, v := range vs.Values {
				lit, ok := v.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("EventType constant %v is not a string literal", vs.Names)
				}
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				consts = append(consts, EventType(s))
			}
			return true
		})
	}
	if len(consts) != len(eventCodes) {
		t.Fatalf("package declares %d EventType constants %v, eventCodes has %d codes", len(consts), consts, len(eventCodes))
	}
	for _, ev := range consts {
		if !slices.Contains(eventCodes, ev) {
			t.Fatalf("event %q has no code", ev)
		}
	}
}

// TestRecordFrameSize pins what one request costs the audit store: the
// authorization record of a GET by a short user name for a ledger-shaped
// path frames to at most 88 B (it was 104 B with the event and decision
// spelled out).
func TestRecordFrameSize(t *testing.T) {
	rec := Record{Seq: 1, TimeNanos: time.Now().UnixNano(), Event: EventFileAuthzAllow,
		Decision: DecisionAllow, Op: "fs_get", RequestID: 100_000, User: "owner", Path: "/d005/f0012.bin"}
	payload, err := sealRecord(testCipher(t, testKeys(t)), rec)
	if err != nil {
		t.Fatal(err)
	}
	if framed := len(encodeFrame(nil, kindRecord, rec.Seq, payload)); framed > 88 {
		t.Fatalf("authz_allow record frames to %d B, want at most 88", framed)
	}
}

// TestSealRecordAllocs pins that sealing a record expands no key and
// grows no buffer: the writer seals with the cipher it built once, into a
// plaintext sized up front, so a coded record costs 3 allocations (the
// plaintext, the associated data and the ciphertext). A cipher built per
// record, as pae.Encrypt does, adds the AES key schedule, the GCM object
// and the Cipher: 6.
func TestSealRecordAllocs(t *testing.T) {
	rc := testCipher(t, testKeys(t))
	rec := Record{Seq: 1, TimeNanos: time.Now().UnixNano(), Event: EventFileAuthzAllow,
		Decision: DecisionAllow, Op: "fs_get", RequestID: 100_000, User: "owner", Path: "/d005/f0012.bin"}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sealRecord(rc, rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("sealing one coded record allocates %v times, want at most 3", allocs)
	}
}

// TestCrashDuringCheckpoint kills the store at the first segment write
// after a reopen, with a checkpoint due in that write. The stored log
// keeps its last checkpoint, so the counter must not move past it:
// otherwise every later Open fails with ErrLogRollback and the server
// cannot start.
func TestCrashDuringCheckpoint(t *testing.T) {
	mem := store.NewMemory()
	keys := testKeys(t)
	ctr := testCounter(t)
	opt := Options{CheckpointEvery: 4}
	buildLog(t, mem, keys, ctr, 8, opt)

	plan := store.NewFaultPlan()
	plan.KillAtOp(1, errors.New("killed"))
	opt.Obs = obs.NewRegistry()
	crashed, err := Open(store.NewFaultyWithPlan(mem, plan), keys, ctr, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer crashed.Close()
	for i := 0; i < opt.CheckpointEvery; i++ {
		crashed.Emit(Event{Event: EventFileAuthzAllow, Op: "fs_get"})
	}
	if err := crashed.Flush(); err == nil {
		t.Fatal("flush over a killed store succeeded")
	}

	log, err := Open(mem, keys, ctr, Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("reopen after a crash mid-checkpoint: %v", err)
	}
	log.Emit(Event{Event: EventFileAuthzAllow, Op: "fs_get"})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(mem, keys, VerifyOptions{ExpectCounter: ctr.Value(), ExpectRecords: 9}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashBetweenCheckpointAndIncrement leaves the state a crash
// between storing a checkpoint and incrementing the counter leaves: the
// log one step ahead. Open catches the counter up and Verify accepts the
// log; a log two steps ahead is not a crash and stays refused.
func TestCrashBetweenCheckpointAndIncrement(t *testing.T) {
	b := store.NewMemory()
	keys := testKeys(t)
	ctr := testCounter(t)
	opt := Options{CheckpointEvery: 4}
	buildLog(t, b, keys, ctr, 8, opt)
	// A writer without the counter stores the next checkpoint and never
	// increments.
	buildLog(t, b, keys, nil, 4, opt)
	behind := ctr.Value()
	if _, err := Verify(b, keys, VerifyOptions{ExpectCounter: behind}); err != nil {
		t.Fatalf("verify one checkpoint ahead of counter %d: %v", behind, err)
	}

	log, err := Open(b, keys, ctr, Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("open one checkpoint ahead: %v", err)
	}
	if got := ctr.Value(); got != behind+1 {
		t.Fatalf("counter after open = %d, want %d", got, behind+1)
	}
	log.Emit(Event{Event: EventFileAuthzAllow, Op: "fs_get"})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(b, keys, VerifyOptions{ExpectCounter: ctr.Value(), ExpectRecords: 13}); err != nil {
		t.Fatal(err)
	}

	buildLog(t, b, keys, nil, 8, opt)
	if _, err := Open(b, keys, ctr, Options{Obs: obs.NewRegistry()}); !errors.Is(err, ErrLogRollback) {
		t.Fatalf("open two checkpoints ahead: got %v, want ErrLogRollback", err)
	}
}

// TestCrashAtSegmentRoll fails the store write of a full segment, the
// one that rolls the writer to the next segment. The segment must be
// kept, not skipped: the next write stores it with every frame, and a
// later Open and Verify see no gap in the entry sequence.
func TestCrashAtSegmentRoll(t *testing.T) {
	mem := store.NewMemory()
	keys := testKeys(t)
	ctr := testCounter(t)
	plan := store.NewFaultPlan()
	log, err := Open(store.NewFaultyWithPlan(mem, plan), keys, ctr,
		Options{SegmentEntries: 4, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	emit := func(n int) {
		for i := 0; i < n; i++ {
			log.Emit(Event{Event: EventFileAuthzAllow, Decision: DecisionAllow, Op: "fs_get"})
		}
	}
	emit(3)
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	plan.FailAtOp(1, errors.New("store unavailable"))
	emit(1)
	if err := log.Flush(); err == nil {
		t.Fatal("flush over a failed segment roll reported no error")
	}
	emit(3)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(mem, keys, ctr, Options{SegmentEntries: 4, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("reopen after a failed segment roll: %v", err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(mem, keys, VerifyOptions{ExpectCounter: ctr.Value(), ExpectRecords: 7}); err != nil {
		t.Fatal(err)
	}
}
