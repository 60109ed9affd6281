package obs

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// TopK is a space-saving heavy-hitter sketch over per-group request
// traffic: which tenants are hot, without keeping a counter per tenant.
// State is bounded at k slots; offering a key that has no slot evicts
// the current minimum and inherits its count (the classic
// Metwally/Agrawal/El Abbadi overestimate, tracked per slot so the
// export can say how much a count may lie).
//
// Leak budget: keys entering the sketch are already pseudonyms (see
// Pseudonymizer — group ids never reach this type), the slot count k is
// a config constant, and every exported count is a log2 bucket bound.

// PseudonymLen is the exported pseudonym length in hex characters. 12
// stays under the leak-budget's 16-hex-run digest-shape limit while
// keeping collisions negligible for any plausible tenant count.
const PseudonymLen = 12

// Pseudonymizer maps identity-bearing strings to fixed-length keyed
// pseudonyms. The key is random per process: pseudonyms are stable
// within one boot (so an operator can watch one hot tenant across
// snapshots and correlate with the exporter's batch metadata) but
// unlinkable across restarts and unrecoverable without the in-enclave
// key.
type Pseudonymizer struct {
	key [32]byte
	// cache memoizes id -> pseudonym so the request hot path pays the
	// HMAC only on a tenant's first request. Raw ids live only in this
	// in-enclave map, never in anything exported. Bounded: the map is
	// cleared when it exceeds pseudonymCacheMax distinct ids, so an
	// identity churn attack costs recomputation, not memory.
	cache sync.Map // id string -> pseudonym string
	size  atomic.Int64
}

// pseudonymCacheMax bounds the memoized id -> pseudonym map.
const pseudonymCacheMax = 4096

// NewPseudonymizer draws a fresh random key.
func NewPseudonymizer() (*Pseudonymizer, error) {
	p := &Pseudonymizer{}
	if _, err := rand.Read(p.key[:]); err != nil {
		return nil, err
	}
	return p, nil
}

// Pseudonym returns id's keyed pseudonym: lowercase hex, PseudonymLen
// characters.
func (p *Pseudonymizer) Pseudonym(id string) string {
	if v, ok := p.cache.Load(id); ok {
		return v.(string)
	}
	mac := hmac.New(sha256.New, p.key[:])
	mac.Write([]byte(id))
	sum := mac.Sum(nil)
	ps := hex.EncodeToString(sum)[:PseudonymLen]
	if p.size.Add(1) > pseudonymCacheMax {
		p.cache.Clear()
		p.size.Store(1)
	}
	p.cache.Store(id, ps)
	return ps
}

type hotSlot struct {
	reqs    uint64
	bytes   uint64
	overEst uint64 // count inherited from the slot this key displaced
}

// TopK is safe for concurrent use; Offer takes one short mutex.
type TopK struct {
	mu      sync.Mutex
	k       int
	slots   map[string]*hotSlot
	evicted uint64
}

// DefaultHotK is the slot bound used when the configuration leaves it
// to the default.
const DefaultHotK = 32

// NewTopK builds a sketch bounded at k slots (DefaultHotK when k <= 0).
func NewTopK(k int) *TopK {
	if k <= 0 {
		k = DefaultHotK
	}
	return &TopK{k: k, slots: make(map[string]*hotSlot, k)}
}

// Offer credits reqs requests and bytes to key, which must already be a
// pseudonym. A new key beyond the slot bound displaces the current
// minimum-count slot, inheriting its request count as the space-saving
// overestimate.
func (t *TopK) Offer(key string, reqs, bytes uint64) {
	if key == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.slots[key]; ok {
		s.reqs += reqs
		s.bytes += bytes
		return
	}
	if len(t.slots) < t.k {
		t.slots[key] = &hotSlot{reqs: reqs, bytes: bytes}
		return
	}
	var minKey string
	var min *hotSlot
	for k2, s := range t.slots {
		if min == nil || s.reqs < min.reqs {
			minKey, min = k2, s
		}
	}
	delete(t.slots, minKey)
	t.evicted++
	t.slots[key] = &hotSlot{reqs: min.reqs + reqs, bytes: bytes, overEst: min.reqs}
}

// HotEntry is one exported heavy hitter.
type HotEntry struct {
	// ID is the group's keyed pseudonym (class: pseudonym).
	ID string `json:"id"`
	// RequestsLe / BytesLe are the slot's counts (class: bucketed).
	RequestsLe uint64 `json:"requestsLe"`
	BytesLe    uint64 `json:"bytesLe"`
	// OverEstLe bounds how much RequestsLe may overstate the true count
	// due to slot inheritance (class: bucketed).
	OverEstLe uint64 `json:"overEstLe,omitempty"`
}

// HotStatus is the /debug/hot JSON body and the exporter batch-metadata
// payload.
type HotStatus struct {
	// K is the configured slot bound (class: config).
	K int `json:"k"`
	// EvictedLe counts slot displacements since boot (class: bucketed).
	EvictedLe uint64 `json:"evictedLe"`
	// Entries lists the current heavy hitters, busiest first.
	Entries []HotEntry `json:"entries"`
}

// HotEntryFields / HotStatusFields classify the exported fields for the
// leak-budget meta-test.
var HotEntryFields = map[string]FieldClass{
	"ID":         FieldPseudonym,
	"RequestsLe": FieldBucketed,
	"BytesLe":    FieldBucketed,
	"OverEstLe":  FieldBucketed,
}

var HotStatusFields = map[string]FieldClass{
	"K":         FieldConfig,
	"EvictedLe": FieldBucketed,
	"Entries":   FieldNested,
}

// Snapshot exports the sketch: pseudonymous ids with log2-bucketed
// counts, sorted by request count descending (raw counts order the
// sort; only bucket bounds leave).
func (t *TopK) Snapshot() HotStatus {
	t.mu.Lock()
	type kv struct {
		key string
		s   hotSlot
	}
	items := make([]kv, 0, len(t.slots))
	for k, s := range t.slots {
		items = append(items, kv{k, *s})
	}
	evicted := t.evicted
	k := t.k
	t.mu.Unlock()
	sort.Slice(items, func(i, j int) bool {
		if items[i].s.reqs != items[j].s.reqs {
			return items[i].s.reqs > items[j].s.reqs
		}
		return items[i].key < items[j].key
	})
	st := HotStatus{K: k, EvictedLe: BucketCeil(int64(evicted)), Entries: make([]HotEntry, 0, len(items))}
	for _, it := range items {
		st.Entries = append(st.Entries, HotEntry{
			ID:         it.key,
			RequestsLe: BucketCeil(int64(it.s.reqs)),
			BytesLe:    BucketCeil(int64(it.s.bytes)),
			OverEstLe:  BucketCeil(int64(it.s.overEst)),
		})
	}
	return st
}

// VerifyHotStatus checks a snapshot against the leak budget: ids must
// be exactly PseudonymLen lowercase hex characters and every count a
// log2 bucket bound.
func VerifyHotStatus(st HotStatus) error {
	if !IsBucketBound(st.EvictedLe) {
		return &wideFieldError{field: "EvictedLe"}
	}
	for _, e := range st.Entries {
		if len(e.ID) != PseudonymLen {
			return &wideFieldError{field: "ID"}
		}
		for _, r := range e.ID {
			if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
				return &wideFieldError{field: "ID"}
			}
		}
		if !IsBucketBound(e.RequestsLe) {
			return &wideFieldError{field: "RequestsLe"}
		}
		if !IsBucketBound(e.BytesLe) {
			return &wideFieldError{field: "BytesLe"}
		}
		if !IsBucketBound(e.OverEstLe) {
			return &wideFieldError{field: "OverEstLe"}
		}
	}
	return nil
}

// Handler serves the /debug/hot JSON view.
func (t *TopK) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(t.Snapshot())
	})
}
