package rollback

import (
	"errors"
	"testing"
	"testing/quick"

	"segshare/internal/enclave"
)

func newHasher() *Hasher { return NewHasher([]byte("rollback-test-key")) }

func TestMainHashesAreDistinct(t *testing.T) {
	h := newHasher()
	c1 := ContentDigest([]byte("content"))
	c2 := ContentDigest([]byte("other"))

	leaf := h.LeafMain("/a/f", c1)
	tests := []struct {
		name  string
		other Digest
	}{
		{name: "different path", other: h.LeafMain("/a/g", c1)},
		{name: "different content", other: h.LeafMain("/a/f", c2)},
		{name: "inner vs leaf", other: h.InnerMain("/a/f", c1, &Buckets{})},
		{name: "different key", other: NewHasher([]byte("other")).LeafMain("/a/f", c1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if leaf == tt.other {
				t.Fatal("main hashes collided")
			}
		})
	}
	if leaf != h.LeafMain("/a/f", c1) {
		t.Fatal("main hash not deterministic")
	}
}

func TestInnerMainDependsOnBuckets(t *testing.T) {
	h := newHasher()
	c := ContentDigest([]byte("dir listing"))
	var b1, b2 Buckets
	b2.AddChild(h, "/d/x", h.LeafMain("/d/x", ContentDigest([]byte("x"))))
	if h.InnerMain("/d/", c, &b1) == h.InnerMain("/d/", c, &b2) {
		t.Fatal("inner main ignores buckets")
	}
}

func TestBucketIndexStableAndInRange(t *testing.T) {
	h := newHasher()
	paths := []string{"/a", "/a/b", "/a/b/c.txt", "/長いパス/f", ""}
	for _, p := range paths {
		i := h.BucketIndex(p)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("BucketIndex(%q) = %d out of range", p, i)
		}
		if i != h.BucketIndex(p) {
			t.Fatalf("BucketIndex(%q) not deterministic", p)
		}
	}
}

func TestBucketAddRemoveReplaceVerify(t *testing.T) {
	h := newHasher()
	var b Buckets

	childA := "/d/a"
	childB := "/d/b"
	mainA := h.LeafMain(childA, ContentDigest([]byte("a1")))
	mainB := h.LeafMain(childB, ContentDigest([]byte("b1")))

	b.AddChild(h, childA, mainA)
	b.AddChild(h, childB, mainB)

	// Verify each child's bucket with the correct member set.
	verify := func(child string, mains []Digest) error {
		return b.VerifyBucket(h, child, mains)
	}
	bucketMembers := func(child string) []Digest {
		idx := h.BucketIndex(child)
		var mains []Digest
		if h.BucketIndex(childA) == idx {
			mains = append(mains, mainA)
		}
		if h.BucketIndex(childB) == idx {
			mains = append(mains, mainB)
		}
		return mains
	}
	if err := verify(childA, bucketMembers(childA)); err != nil {
		t.Fatalf("verify A: %v", err)
	}
	if err := verify(childB, bucketMembers(childB)); err != nil {
		t.Fatalf("verify B: %v", err)
	}

	// Update A's content: replace its main hash.
	mainA2 := h.LeafMain(childA, ContentDigest([]byte("a2")))
	b.ReplaceChild(h, childA, mainA, mainA2)
	mainA = mainA2
	if err := verify(childA, bucketMembers(childA)); err != nil {
		t.Fatalf("verify after replace: %v", err)
	}

	// A stale main hash (rollback) must fail verification.
	stale := h.LeafMain(childA, ContentDigest([]byte("a1")))
	staleSet := bucketMembers(childA)
	for i := range staleSet {
		if staleSet[i] == mainA {
			staleSet[i] = stale
		}
	}
	if err := verify(childA, staleSet); !errors.Is(err, ErrRollback) {
		t.Fatalf("stale verify: want ErrRollback, got %v", err)
	}

	// Remove both children: buckets return to empty.
	b.RemoveChild(h, childA, mainA)
	b.RemoveChild(h, childB, mainB)
	if !b.IsEmpty() {
		t.Fatal("buckets not empty after removing all children")
	}
}

func TestHeaderCodecRoundTrip(t *testing.T) {
	h := newHasher()
	var buckets Buckets
	buckets.AddChild(h, "/d/x", h.LeafMain("/d/x", ContentDigest([]byte("x"))))

	tests := []struct {
		name string
		give *Header
	}{
		{name: "leaf", give: &Header{Main: h.LeafMain("/f", ContentDigest([]byte("c")))}},
		{name: "leaf with token", give: &Header{Main: Digest{1}, Token: 42}},
		{name: "inner", give: &Header{Main: Digest{2}, Inner: true, Buckets: buckets, Token: 7}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			content := []byte("logical file content")
			blob := append(tt.give.Encode(), content...)
			if len(tt.give.Encode()) != tt.give.EncodedSize() {
				t.Fatalf("EncodedSize = %d, encoded %d", tt.give.EncodedSize(), len(tt.give.Encode()))
			}
			got, rest, err := DecodeHeader(blob)
			if err != nil {
				t.Fatalf("DecodeHeader: %v", err)
			}
			if string(rest) != string(content) {
				t.Fatalf("content = %q", rest)
			}
			if got.Main != tt.give.Main || got.Inner != tt.give.Inner || got.Token != tt.give.Token {
				t.Fatalf("header = %+v, want %+v", got, tt.give)
			}
			for i := range got.Buckets {
				if !got.Buckets[i].Equal(tt.give.Buckets[i]) {
					t.Fatalf("bucket %d mismatch", i)
				}
			}
		})
	}
}

func TestDecodeHeaderRejectsCorruption(t *testing.T) {
	valid := (&Header{Main: Digest{1}, Inner: true}).Encode()
	tests := []struct {
		name string
		give []byte
	}{
		{name: "empty", give: nil},
		{name: "bad tag", give: append([]byte{0xFF}, valid[1:]...)},
		{name: "unknown flag", give: append([]byte{headerTag, 0x02}, valid[2:]...)},
		{name: "truncated main", give: valid[:10]},
		{name: "truncated buckets", give: valid[:len(valid)-5]},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := DecodeHeader(tt.give); !errors.Is(err, ErrHeader) {
				t.Fatalf("want ErrHeader, got %v", err)
			}
		})
	}
}

func testEnclave(t *testing.T) *enclave.Enclave {
	t.Helper()
	p, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.Launch(enclave.CodeIdentity{Name: "segshare", Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestProtectedMemoryGuard(t *testing.T) {
	g := NewProtectedMemoryGuard(testEnclave(t), "content-root")

	// Fresh guard accepts anything (first boot).
	if err := g.Check(Digest{1}, 0); err != nil {
		t.Fatalf("fresh Check: %v", err)
	}
	if _, err := g.Commit(Digest{1}); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := g.Check(Digest{1}, 0); err != nil {
		t.Fatalf("Check after commit: %v", err)
	}
	// A rolled-back root digest is rejected.
	if err := g.Check(Digest{9}, 0); !errors.Is(err, ErrRollback) {
		t.Fatalf("rollback Check: want ErrRollback, got %v", err)
	}
	// Reset (CA-authorized restore) installs the restored digest.
	if err := g.Reset(Digest{9}, 0); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if err := g.Check(Digest{9}, 0); err != nil {
		t.Fatalf("Check after reset: %v", err)
	}
}

func TestCounterGuard(t *testing.T) {
	g := NewCounterGuard(testEnclave(t), "content-root")
	tok1, err := g.Commit(Digest{1})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := g.Check(Digest{1}, tok1); err != nil {
		t.Fatalf("Check: %v", err)
	}
	tok2, err := g.Commit(Digest{2})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if tok2 != tok1+1 {
		t.Fatalf("tokens not monotonic: %d then %d", tok1, tok2)
	}
	// The old token (a rolled-back root file) is rejected.
	if err := g.Check(Digest{1}, tok1); !errors.Is(err, ErrRollback) {
		t.Fatalf("stale token: want ErrRollback, got %v", err)
	}
	if g.CurrentToken() != tok2 {
		t.Fatalf("CurrentToken = %d, want %d", g.CurrentToken(), tok2)
	}
}

func TestNopGuard(t *testing.T) {
	var g NopGuard
	if _, err := g.Commit(Digest{1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Check(Digest{5}, 99); err != nil {
		t.Fatal(err)
	}
	if err := g.Reset(Digest{5}, 99); err != nil {
		t.Fatal(err)
	}
}

// Property: bucket algebra is consistent with recomputing the bucket from
// scratch for any sequence of child additions/updates/removals.
func TestQuickBucketsAgainstReference(t *testing.T) {
	h := newHasher()
	type op struct {
		Child   uint8
		Content uint32
		Remove  bool
	}
	prop := func(ops []op) bool {
		var b Buckets
		present := make(map[string]Digest)
		for _, o := range ops {
			child := "/d/" + string(rune('a'+o.Child%26))
			content := ContentDigest(binaryContent(o.Content))
			main := h.LeafMain(child, content)
			if o.Remove {
				if old, ok := present[child]; ok {
					b.RemoveChild(h, child, old)
					delete(present, child)
				}
			} else if old, ok := present[child]; ok {
				b.ReplaceChild(h, child, old, main)
				present[child] = main
			} else {
				b.AddChild(h, child, main)
				present[child] = main
			}
		}
		// Verify every present child's bucket against the reference set.
		for child := range present {
			idx := h.BucketIndex(child)
			var mains []Digest
			for other, m := range present {
				if h.BucketIndex(other) == idx {
					mains = append(mains, m)
				}
			}
			if err := b.VerifyBucket(h, child, mains); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func binaryContent(v uint32) []byte {
	return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
}
