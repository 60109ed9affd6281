package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestPseudonymizer(t *testing.T) {
	p, err := NewPseudonymizer()
	if err != nil {
		t.Fatal(err)
	}
	a := p.Pseudonym("group:finance-team")
	if len(a) != PseudonymLen {
		t.Fatalf("pseudonym length = %d, want %d", len(a), PseudonymLen)
	}
	for _, r := range a {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			t.Fatalf("pseudonym %q is not lowercase hex", a)
		}
	}
	if strings.Contains(a, "finance") {
		t.Fatalf("pseudonym %q leaks its input", a)
	}
	// Stable within one key: the operator can follow one tenant across
	// snapshots.
	if b := p.Pseudonym("group:finance-team"); b != a {
		t.Errorf("pseudonym not stable: %q vs %q", a, b)
	}
	if c := p.Pseudonym("group:eng"); c == a {
		t.Error("distinct ids collided")
	}
	// Unlinkable across keys (restarts).
	p2, err := NewPseudonymizer()
	if err != nil {
		t.Fatal(err)
	}
	if p2.Pseudonym("group:finance-team") == a {
		t.Error("pseudonym survived a key change")
	}
}

func TestTopKExactUnderBound(t *testing.T) {
	p, _ := NewPseudonymizer()
	ids := []string{p.Pseudonym("a"), p.Pseudonym("b"), p.Pseudonym("c")}
	tk := NewTopK(8)
	tk.Offer(ids[0], 5, 500)
	tk.Offer(ids[1], 3, 300)
	tk.Offer(ids[0], 2, 200)
	tk.Offer(ids[2], 1, 100)

	st := tk.Snapshot()
	if err := VerifyHotStatus(st); err != nil {
		t.Fatalf("VerifyHotStatus: %v", err)
	}
	if st.K != 8 || len(st.Entries) != 3 {
		t.Fatalf("k=%d entries=%d, want 8/3", st.K, len(st.Entries))
	}
	// Busiest first; counts are bucket bounds covering the raw values.
	if st.Entries[0].ID != ids[0] {
		t.Fatalf("entries[0] = %q, want the busiest id", st.Entries[0].ID)
	}
	if st.Entries[0].RequestsLe < 7 || !IsBucketBound(st.Entries[0].RequestsLe) {
		t.Errorf("RequestsLe = %d, want bucket bound >= 7", st.Entries[0].RequestsLe)
	}
	if st.Entries[0].BytesLe < 700 || !IsBucketBound(st.Entries[0].BytesLe) {
		t.Errorf("BytesLe = %d, want bucket bound >= 700", st.Entries[0].BytesLe)
	}
	if st.Entries[0].OverEstLe != 0 {
		t.Errorf("OverEstLe = %d for a never-evicted slot", st.Entries[0].OverEstLe)
	}
	if st.EvictedLe != 0 {
		t.Errorf("EvictedLe = %d with no evictions", st.EvictedLe)
	}
}

func TestTopKEvictionInheritsCount(t *testing.T) {
	p, _ := NewPseudonymizer()
	a, b, c := p.Pseudonym("a"), p.Pseudonym("b"), p.Pseudonym("c")
	tk := NewTopK(2)
	tk.Offer(a, 5, 50)
	tk.Offer(b, 3, 30)
	// c displaces the minimum (b at 3) and inherits its count as the
	// space-saving overestimate.
	tk.Offer(c, 1, 10)

	st := tk.Snapshot()
	if err := VerifyHotStatus(st); err != nil {
		t.Fatalf("VerifyHotStatus: %v", err)
	}
	if len(st.Entries) != 2 {
		t.Fatalf("entries = %d, want bound 2 held", len(st.Entries))
	}
	var got *HotEntry
	for i := range st.Entries {
		if st.Entries[i].ID == c {
			got = &st.Entries[i]
		}
		if st.Entries[i].ID == b {
			t.Error("evicted id still present")
		}
	}
	if got == nil {
		t.Fatal("newly offered id missing")
	}
	if got.RequestsLe < 4 { // inherited 3 + its own 1
		t.Errorf("RequestsLe = %d, want >= 4 (inherited count)", got.RequestsLe)
	}
	if got.OverEstLe < 3 || !IsBucketBound(got.OverEstLe) {
		t.Errorf("OverEstLe = %d, want bucket bound >= 3", got.OverEstLe)
	}
	if st.EvictedLe < 1 {
		t.Errorf("EvictedLe = %d, want >= 1", st.EvictedLe)
	}
}

func TestTopKBoundHolds(t *testing.T) {
	p, _ := NewPseudonymizer()
	tk := NewTopK(4)
	for i := 0; i < 100; i++ {
		tk.Offer(p.Pseudonym(string(rune('a'+i%26))+string(rune('0'+i/26))), 1, 1)
	}
	if st := tk.Snapshot(); len(st.Entries) > 4 {
		t.Fatalf("entries = %d, bound 4 violated", len(st.Entries))
	}
}

func TestTopKEmptySafe(t *testing.T) {
	live := NewTopK(4)
	if st := live.Snapshot(); st.Entries == nil || len(st.Entries) != 0 {
		t.Fatalf("empty sketch Snapshot.Entries = %#v, want empty non-nil", st.Entries)
	}
	live.Offer("", 1, 1) // empty keys (unattributed) are ignored
	if st := live.Snapshot(); len(st.Entries) != 0 {
		t.Fatalf("empty key created a slot: %+v", st.Entries)
	}
}

func TestTopKHandler(t *testing.T) {
	p, _ := NewPseudonymizer()
	tk := NewTopK(4)
	tk.Offer(p.Pseudonym("group:eng"), 9, 900)

	rec := httptest.NewRecorder()
	tk.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/hot", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var st HotStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("handler body: %v", err)
	}
	if len(st.Entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(st.Entries))
	}
	if err := VerifyHotStatus(st); err != nil {
		t.Fatalf("VerifyHotStatus over the wire: %v", err)
	}
	if strings.Contains(rec.Body.String(), "eng") {
		t.Error("handler body leaks the raw group id")
	}
}

func TestVerifyHotStatusRejectsRawIdentity(t *testing.T) {
	bad := HotStatus{Entries: []HotEntry{{ID: "finance-team!", RequestsLe: 1, BytesLe: 1}}}
	if err := VerifyHotStatus(bad); err == nil {
		t.Error("identity-shaped id passed verification")
	}
	raw := HotStatus{Entries: []HotEntry{{ID: "0123456789ab", RequestsLe: 17, BytesLe: 1}}}
	if err := VerifyHotStatus(raw); err == nil {
		t.Error("raw count passed verification")
	}
}
