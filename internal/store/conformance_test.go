package store

import (
	"errors"
	"testing"

	"segshare/internal/obs"
)

// The backend conformance suite: one shared semantics table every
// Backend implementation and every wrapper chain must pass, so a new
// backend (or a wrapper that reorders/retries operations) cannot
// silently diverge from the contract the trusted side assumes —
// most importantly the Rename collision table, which journal
// roll-forward replay depends on:
//
//	old present, new absent              -> success (move)
//	both present, identical payloads     -> success (complete interrupted rename, old removed)
//	both present, differing payloads     -> ErrExist
//	old absent,  new present             -> ErrExist
//	both absent                          -> ErrNotExist
func conformanceBackends(t *testing.T) map[string]Backend {
	t.Helper()
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	resilientOpts := ResilientOptions{
		ReadDeadline:     -1, // no deadlines in the semantics suite:
		MutationDeadline: -1, // it checks answers, not timing
		Obs:              obs.NewRegistry(),
	}
	diskUnder, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{
		"memory": NewMemory(),
		"disk":   disk,
		"resilient_memory": NewResilient(
			NewMemory(), "content", resilientOpts),
		"resilient_disk": NewResilient(
			diskUnder, "content", resilientOpts),
		"resilient_faultplan_memory": NewResilient(
			NewFaultyWithPlan(NewMemory(), NewFaultPlan()), "content", resilientOpts),
	}
}

func TestBackendConformance(t *testing.T) {
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			testBackendConformance(t, b)
		})
	}
}

func testBackendConformance(t *testing.T, b Backend) {
	t.Helper()

	// Absent-object errors.
	if _, err := b.Get("absent"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Get(absent) = %v, want ErrNotExist", err)
	}
	if err := b.Delete("absent"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Delete(absent) = %v, want ErrNotExist", err)
	}
	if ok, err := b.Exists("absent"); err != nil || ok {
		t.Fatalf("Exists(absent) = %v, %v, want false, nil", ok, err)
	}
	if err := b.Rename("absent", "also-absent"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Rename(absent, absent) = %v, want ErrNotExist", err)
	}

	// Put / Get round trip and overwrite.
	if err := b.Put("a", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Get("a"); err != nil || string(got) != "v1" {
		t.Fatalf("Get(a) = %q, %v", got, err)
	}
	if err := b.Put("a", []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Get("a"); err != nil || string(got) != "v2-longer" {
		t.Fatalf("Get(a) after overwrite = %q, %v", got, err)
	}
	if ok, err := b.Exists("a"); err != nil || !ok {
		t.Fatalf("Exists(a) = %v, %v, want true, nil", ok, err)
	}

	// Plain rename: old present, new absent.
	if err := b.Rename("a", "b"); err != nil {
		t.Fatalf("Rename(a, b) = %v", err)
	}
	if ok, _ := b.Exists("a"); ok {
		t.Fatal("old name still present after rename")
	}
	if got, err := b.Get("b"); err != nil || string(got) != "v2-longer" {
		t.Fatalf("Get(b) after rename = %q, %v", got, err)
	}

	// Rename collision with differing payloads.
	if err := b.Put("c", []byte("other")); err != nil {
		t.Fatal(err)
	}
	if err := b.Rename("b", "c"); !errors.Is(err, ErrExist) {
		t.Fatalf("Rename onto differing payload = %v, want ErrExist", err)
	}
	if got, err := b.Get("b"); err != nil || string(got) != "v2-longer" {
		t.Fatalf("source mutated by failed rename: %q, %v", got, err)
	}
	if got, err := b.Get("c"); err != nil || string(got) != "other" {
		t.Fatalf("target mutated by failed rename: %q, %v", got, err)
	}

	// Rename collision onto an identical payload: the interrupted-rename
	// completion — succeed and remove the source.
	if err := b.Put("d", []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	if err := b.Rename("b", "d"); err != nil {
		t.Fatalf("Rename completion = %v, want success", err)
	}
	if ok, _ := b.Exists("b"); ok {
		t.Fatal("source still present after rename completion")
	}
	if got, err := b.Get("d"); err != nil || string(got) != "v2-longer" {
		t.Fatalf("Get(d) after completion = %q, %v", got, err)
	}

	// Old absent, new present: ErrExist (the target-first check order).
	if err := b.Rename("b", "d"); !errors.Is(err, ErrExist) {
		t.Fatalf("Rename(absent, present) = %v, want ErrExist", err)
	}

	// Delete.
	if err := b.Delete("c"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("c"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Get after delete = %v, want ErrNotExist", err)
	}

	// List ordering: lexicographic over all present names.
	if err := b.Put("z-last", []byte("z")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("0-first", []byte("0")); err != nil {
		t.Fatal(err)
	}
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0-first", "d", "z-last"}
	if len(names) != len(want) {
		t.Fatalf("List = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("List = %v, want %v", names, want)
		}
	}

	// TotalBytes counts payload bytes only.
	total, err := b.TotalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if wantTotal := int64(len("v2-longer") + 1 + 1); total != wantTotal {
		t.Fatalf("TotalBytes = %d, want %d", total, wantTotal)
	}

	// Wrapper chains must still expose the innermost backend.
	switch Innermost(b).(type) {
	case *Memory, *Disk:
	default:
		t.Fatalf("Innermost returned %T", Innermost(b))
	}
}
