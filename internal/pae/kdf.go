package pae

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"
	"sync"
)

// hkdfExtract implements the HKDF-Extract step of RFC 5869 with SHA-256.
func hkdfExtract(salt, ikm []byte) []byte {
	if len(salt) == 0 {
		salt = make([]byte, sha256.Size)
	}
	mac := hmac.New(sha256.New, salt)
	mac.Write(ikm)
	return mac.Sum(nil)
}

// hkdfExpand implements the HKDF-Expand step of RFC 5869 with SHA-256.
func hkdfExpand(prk, info []byte, length int) ([]byte, error) {
	const hashLen = sha256.Size
	if length > 255*hashLen {
		return nil, fmt.Errorf("pae: hkdf expand length %d too large", length)
	}
	var (
		out  = make([]byte, 0, length)
		prev []byte
	)
	for counter := byte(1); len(out) < length; counter++ {
		mac := hmac.New(sha256.New, prk)
		mac.Write(prev)
		mac.Write(info)
		mac.Write([]byte{counter})
		prev = mac.Sum(nil)
		out = append(out, prev...)
	}
	return out[:length], nil
}

// DeriveBytes derives length pseudorandom bytes from secret, bound to the
// domain-separation label and context. It is the generic KDF used across
// the code base (sealing keys, attestation binding, file keys).
func DeriveBytes(secret []byte, label string, context []byte, length int) ([]byte, error) {
	prk := hkdfExtract([]byte(label), secret)
	return hkdfExpand(prk, context, length)
}

// DeriveKey derives a PAE key from secret for the given label and context.
// SeGShare's trusted file manager uses it to derive the per-file key SK_f
// from the root key SK_r and the file's identity (paper §IV-B).
func DeriveKey(secret []byte, label string, context []byte) (Key, error) {
	raw, err := DeriveBytes(secret, label, context, KeySize)
	if err != nil {
		return Key{}, err
	}
	return KeyFromBytes(raw)
}

// MAC computes HMAC-SHA256 of data under key. The trusted file manager
// uses it for dedup content addressing (§V-A) and path hiding (§V-C).
func MAC(key, data []byte) [sha256.Size]byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(data)
	var out [sha256.Size]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// MACKey computes HMAC-SHA256 under one fixed key, for keys that MAC
// on every request (the rollback tree's hashes, hidden storage names,
// the multiset-hash elements). MAC builds a fresh HMAC per call, which
// re-derives both padded key blocks; MACKey keeps keyed HMAC states in
// a pool, and Reset restores a state's keyed inner hash from its saved
// copy instead. Sum is byte-identical to MAC and safe for concurrent
// use.
type MACKey struct {
	pool sync.Pool
}

// NewMACKey returns a MACKey over key. The key is copied.
func NewMACKey(key []byte) *MACKey {
	k := append([]byte(nil), key...)
	m := &MACKey{}
	m.pool.New = func() any { return hmac.New(sha256.New, k) }
	return m
}

// Sum returns HMAC-SHA256 of data under the key.
func (m *MACKey) Sum(data []byte) [sha256.Size]byte {
	h := m.pool.Get().(hash.Hash)
	h.Reset()
	h.Write(data)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	m.pool.Put(h)
	return out
}

// VerifyMAC reports whether tag is a valid HMAC-SHA256 of data under key,
// in constant time.
func VerifyMAC(key, data []byte, tag []byte) bool {
	want := MAC(key, data)
	return hmac.Equal(want[:], tag)
}
