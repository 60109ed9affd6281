package pae

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// TestHKDFVector checks the implementation against RFC 5869 test case 1.
func TestHKDFVector(t *testing.T) {
	ikm, _ := hex.DecodeString("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	salt, _ := hex.DecodeString("000102030405060708090a0b0c")
	info, _ := hex.DecodeString("f0f1f2f3f4f5f6f7f8f9")
	wantPRK, _ := hex.DecodeString("077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
	wantOKM, _ := hex.DecodeString("3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865")

	prk := hkdfExtract(salt, ikm)
	if !bytes.Equal(prk, wantPRK) {
		t.Fatalf("PRK = %x, want %x", prk, wantPRK)
	}
	okm, err := hkdfExpand(prk, info, 42)
	if err != nil {
		t.Fatalf("hkdfExpand: %v", err)
	}
	if !bytes.Equal(okm, wantOKM) {
		t.Fatalf("OKM = %x, want %x", okm, wantOKM)
	}
}

func TestDeriveBytesDeterministic(t *testing.T) {
	secret := []byte("root key material")
	a, err := DeriveBytes(secret, "label", []byte("ctx"), 32)
	if err != nil {
		t.Fatalf("DeriveBytes: %v", err)
	}
	b, err := DeriveBytes(secret, "label", []byte("ctx"), 32)
	if err != nil {
		t.Fatalf("DeriveBytes: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same inputs derived different outputs")
	}
}

func TestDeriveBytesDomainSeparation(t *testing.T) {
	secret := []byte("root key material")
	base, err := DeriveBytes(secret, "label", []byte("ctx"), 32)
	if err != nil {
		t.Fatalf("DeriveBytes: %v", err)
	}
	variants := []struct {
		name    string
		label   string
		context []byte
		secret  []byte
	}{
		{name: "different label", label: "label2", context: []byte("ctx"), secret: secret},
		{name: "different context", label: "label", context: []byte("ctx2"), secret: secret},
		{name: "different secret", label: "label", context: []byte("ctx"), secret: []byte("other")},
	}
	for _, tt := range variants {
		t.Run(tt.name, func(t *testing.T) {
			got, err := DeriveBytes(tt.secret, tt.label, tt.context, 32)
			if err != nil {
				t.Fatalf("DeriveBytes: %v", err)
			}
			if bytes.Equal(got, base) {
				t.Fatal("derivation collided despite differing inputs")
			}
		})
	}
}

func TestDeriveBytesLengths(t *testing.T) {
	secret := []byte("s")
	for _, n := range []int{1, 16, 31, 32, 33, 64, 255, 8160} {
		out, err := DeriveBytes(secret, "l", nil, n)
		if err != nil {
			t.Fatalf("length %d: %v", n, err)
		}
		if len(out) != n {
			t.Fatalf("length %d: got %d bytes", n, len(out))
		}
	}
	if _, err := DeriveBytes(secret, "l", nil, 255*sha256.Size+1); err == nil {
		t.Fatal("expected error for over-long expansion")
	}
}

func TestDeriveKey(t *testing.T) {
	k1, err := DeriveKey([]byte("root"), "file-key", []byte("/a/b"))
	if err != nil {
		t.Fatalf("DeriveKey: %v", err)
	}
	k2, err := DeriveKey([]byte("root"), "file-key", []byte("/a/c"))
	if err != nil {
		t.Fatalf("DeriveKey: %v", err)
	}
	if k1.Equal(k2) {
		t.Fatal("different contexts yielded the same file key")
	}
}

func TestMACAndVerify(t *testing.T) {
	key := []byte("mac key")
	tag := MAC(key, []byte("data"))
	if !VerifyMAC(key, []byte("data"), tag[:]) {
		t.Fatal("valid MAC rejected")
	}
	if VerifyMAC(key, []byte("datX"), tag[:]) {
		t.Fatal("MAC over different data accepted")
	}
	if VerifyMAC([]byte("other"), []byte("data"), tag[:]) {
		t.Fatal("MAC under different key accepted")
	}
}

// Property: MAC is a function (deterministic) and key-separated.
func TestQuickMAC(t *testing.T) {
	prop := func(key, data []byte) bool {
		a := MAC(key, data)
		b := MAC(key, data)
		return a == b && VerifyMAC(key, data, a[:])
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMACKeyMatchesMAC pins MACKey.Sum to MAC and to RFC 4231 test
// cases 1, 2 and 6 (a key longer than the block size), from 8 goroutines
// sharing each MACKey so pooled states are reused across callers; run
// it under -race.
func TestMACKeyMatchesMAC(t *testing.T) {
	vectors := []struct {
		key, data []byte
		want      string
	}{
		{bytes.Repeat([]byte{0x0b}, 20), []byte("Hi There"),
			"b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
		{[]byte("Jefe"), []byte("what do ya want for nothing?"),
			"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
		{bytes.Repeat([]byte{0xaa}, 131), []byte("Test Using Larger Than Block-Size Key - Hash Key First"),
			"60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
	}
	for i, v := range vectors {
		m := NewMACKey(v.key)
		if got := MAC(v.key, v.data); hex.EncodeToString(got[:]) != v.want {
			t.Fatalf("vector %d: MAC = %x", i, got)
		}
		errs := make(chan string, 8)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := 0; n < 200; n++ {
					// Interleave the vector with other lengths so a pooled
					// state always carries a previous caller's residue.
					data := bytes.Repeat([]byte{byte(g)}, (g*37+n)%300)
					if got, want := m.Sum(data), MAC(v.key, data); got != want {
						errs <- fmt.Sprintf("goroutine %d: Sum(%d bytes) = %x, MAC = %x", g, len(data), got, want)
						return
					}
					if got := m.Sum(v.data); hex.EncodeToString(got[:]) != v.want {
						errs <- fmt.Sprintf("goroutine %d: Sum(vector) = %x", g, got)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("vector %d: %s", i, e)
		}
	}
}
