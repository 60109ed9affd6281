// Package dedup implements SeGShare's server-side, file-based
// deduplication store (paper §V-A). Plaintext data is deduplicated inside
// the enclave and only a single encrypted copy is stored:
//
//   - the hex form of an HMAC over an uploaded file's plaintext, hName, is
//     the file's content address,
//   - if no object named hName exists, the file is encrypted and stored
//     under hName; otherwise nothing is written.
//
// The paper streams the upload into a temporary object while the HMAC
// accumulates and then renames or removes it. Uploads reach the store
// whole (DESIGN §6 item 9), so the address is known before anything is
// written and neither the temporary object nor the rename is needed.
//
// Content files in the content store then hold hName as an indirection
// (like a symbolic link). Deduplication works across groups, and
// membership revocation never requires re-encryption because the enclave
// owns all keys.
//
// Reference counting is an extension beyond the paper (which leaves
// garbage collection unspecified): each object has a sealed reference
// record, hName + ".refs", holding its count, so that Release can delete
// the object once no content file points at it. A Put or Release reads
// and writes that one record, whatever the number of stored objects.
//
// An object is sealed under a key derived from its address, with the
// address as its pfs file ID, so an object that the store moves to
// another address fails authenticated decryption there: a read checks
// the hName↔content binding with AES-GCM alone. Objects written before
// address keys hold a wrapped random key instead; they still open, and
// their binding is checked by recomputing the HMAC.
package dedup

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"segshare/internal/obs"
	"segshare/internal/pae"
	"segshare/internal/pfs"
	"segshare/internal/store"
)

// Dedup errors.
var (
	// ErrNotFound is returned for an unknown content address.
	ErrNotFound = errors.New("dedup: object not found")
	// ErrCorrupt is returned when a stored object fails decryption or its
	// content does not match its content address.
	ErrCorrupt = errors.New("dedup: object corrupt")
)

// legacyRefsName is the single reference table that stores written
// before per-object records held every count; New converts it.
const legacyRefsName = "_refs"

// refsName names the reference record of the object stored under hName.
func refsName(hName string) string { return hName + ".refs" }

// Store is the deduplication store. It is safe for concurrent use.
type Store struct {
	backend store.Backend
	name    *pae.MACKey // HMAC key for content addressing
	objRoot []byte      // derives each object's key from its address
	wrapKey pae.Key     // unwraps the random keys of legacy objects
	refs    *pae.Cipher // seals the reference records
	keys    KeyCache    // opened object keys by address; nil: none

	// mu serializes Put and Release, each a read-modify-write of one
	// reference record.
	mu sync.Mutex

	hits         *obs.Counter // Put of already-stored content
	misses       *obs.Counter // Put of new content
	bytesDeduped *obs.Counter // plaintext bytes saved by hits
	corruptTotal *obs.Counter // Get detecting corrupt objects
	removedTotal *obs.Counter // objects physically deleted by Release
}

// Option configures a Store.
type Option func(*Store)

// WithObs selects the metric registry the store reports into. The
// default is obs.Default(). Only aggregate hit/miss counts and byte
// totals are exported — never content addresses, which are key-derived.
func WithObs(reg *obs.Registry) Option {
	return func(s *Store) { s.initMetrics(reg) }
}

// WithWorkers changes nothing: object blobs are sealed and opened on
// the caller's goroutine.
//
// Deprecated: the worker count is ignored.
func WithWorkers(int) Option {
	return func(*Store) {}
}

// KeyCache recalls the opened key schedule of an object address. An
// address's keys are a pure function of the store's root key and the
// address, so an entry never goes stale. It must be safe for concurrent
// use.
type KeyCache interface {
	Keys(hName string) (*pfs.Keys, bool)
	PutKeys(hName string, keys *pfs.Keys)
}

// WithKeyCache keeps the opened keys of the addresses the store seals and
// opens in c, so a warm Get runs no key derivation. By default every call
// derives them.
func WithKeyCache(c KeyCache) Option {
	return func(s *Store) { s.keys = c }
}

func (s *Store) initMetrics(reg *obs.Registry) {
	s.hits = reg.Counter("segshare_dedup_put_total", "Dedup store puts by outcome.", obs.Labels{"result": "hit"})
	s.misses = reg.Counter("segshare_dedup_put_total", "Dedup store puts by outcome.", obs.Labels{"result": "miss"})
	s.bytesDeduped = reg.Counter("segshare_dedup_saved_bytes_total", "Plaintext bytes not stored again thanks to deduplication.", nil)
	s.corruptTotal = reg.Counter("segshare_dedup_corrupt_total", "Dedup reads failing decryption or the address binding check.", nil)
	s.removedTotal = reg.Counter("segshare_dedup_removed_total", "Dedup objects physically deleted after their last reference.", nil)
}

// New creates a deduplication store over backend. All keys are derived
// from rootKey (the store's slice of SK_r). A reference table left by an
// older store is converted to reference records first.
func New(backend store.Backend, rootKey []byte, opts ...Option) (*Store, error) {
	nameKey, err := pae.DeriveBytes(rootKey, "dedup-name", nil, 32)
	if err != nil {
		return nil, err
	}
	objRoot, err := pae.DeriveBytes(rootKey, "dedup-object-root", nil, 32)
	if err != nil {
		return nil, err
	}
	wrapKey, err := pae.DeriveKey(rootKey, "dedup-wrap", nil)
	if err != nil {
		return nil, err
	}
	refsKey, err := pae.DeriveKey(rootKey, "dedup-refs", nil)
	if err != nil {
		return nil, err
	}
	refs, err := pae.NewCipher(refsKey)
	if err != nil {
		return nil, err
	}
	s := &Store{backend: backend, name: pae.NewMACKey(nameKey), objRoot: objRoot, wrapKey: wrapKey, refs: refs}
	s.initMetrics(obs.Default())
	for _, opt := range opts {
		opt(s)
	}
	if err := s.convertLegacyRefs(); err != nil {
		return nil, err
	}
	return s, nil
}

// observePut counts one put outcome; hits also count the plaintext bytes
// the store did not have to persist again.
func (s *Store) observePut(duplicate bool, size int) {
	if duplicate {
		s.hits.Inc()
		s.bytesDeduped.Add(uint64(size))
	} else {
		s.misses.Inc()
	}
}

// contentName computes hName, the hex content address of plaintext.
func (s *Store) contentName(content []byte) string {
	mac := s.name.Sum(content)
	return hex.EncodeToString(mac[:])
}

// objectKeys returns the opened key schedule of the object at hName,
// from the key cache when it holds it.
func (s *Store) objectKeys(hName string) (*pfs.Keys, error) {
	if s.keys != nil {
		if keys, ok := s.keys.Keys(hName); ok {
			return keys, nil
		}
	}
	key, err := pae.DeriveKey(s.objRoot, "dedup-object", []byte(hName))
	if err != nil {
		return nil, err
	}
	keys, err := pfs.NewKeys(key)
	if err != nil {
		return nil, err
	}
	if s.keys != nil {
		s.keys.PutKeys(hName, keys)
	}
	return keys, nil
}

// encodeObject encrypts content under its address's key and returns the
// stored object bytes: a zero u32 (no wrapped key) ‖ protected blob with
// hName as its file ID. The blob is sealed directly into the object
// buffer, so the content is copied once into ciphertext slots rather
// than through an intermediate full-size blob.
func (s *Store) encodeObject(hName string, content []byte) ([]byte, error) {
	keys, err := s.objectKeys(hName)
	if err != nil {
		return nil, err
	}
	size := int64(len(content))
	out := make([]byte, 4, 4+int(size+pfs.Overhead(size)))
	return keys.AppendEncrypt(out, []byte(hName), content)
}

// decodeObject opens the object stored at hName. An address-keyed object
// opens only there: its key and its file ID are the address. A legacy
// object (a non-zero wrapped-key length) opens under its unwrapped key,
// and its content must hash to the address.
func (s *Store) decodeObject(hName string, raw []byte) ([]byte, error) {
	if len(raw) < 4 {
		return nil, ErrCorrupt
	}
	n := binary.BigEndian.Uint32(raw)
	if n == 0 {
		keys, err := s.objectKeys(hName)
		if err != nil {
			return nil, err
		}
		// raw is the caller's (Backend.Get), so blobs are opened in place.
		content, err := keys.DecryptCtx(nil, []byte(hName), raw[4:])
		if err != nil {
			return nil, ErrCorrupt
		}
		return content, nil
	}
	if uint64(len(raw)-4) < uint64(n) {
		return nil, ErrCorrupt
	}
	keyRaw, err := pae.Decrypt(s.wrapKey, raw[4:4+n], []byte("dedup-object-key"))
	if err != nil {
		return nil, ErrCorrupt
	}
	fileKey, err := pae.KeyFromBytes(keyRaw)
	if err != nil {
		return nil, ErrCorrupt
	}
	keys, err := pfs.NewKeys(fileKey)
	if err != nil {
		return nil, err
	}
	content, err := keys.DecryptCtx(nil, nil, raw[4+n:])
	if err != nil {
		return nil, ErrCorrupt
	}
	if s.contentName(content) != hName {
		return nil, fmt.Errorf("%w: content does not match address", ErrCorrupt)
	}
	return content, nil
}

// Put deduplicates and stores content, returning its content address and
// whether it was already present. The reference count of the address is
// incremented either way.
func (s *Store) Put(content []byte) (hName string, duplicate bool, err error) {
	hName = s.contentName(content)
	s.mu.Lock()
	defer s.mu.Unlock()
	exists, err := s.backend.Exists(hName)
	if err != nil {
		return "", false, err
	}
	if !exists {
		obj, err := s.encodeObject(hName, content)
		if err != nil {
			return "", false, err
		}
		if err := s.backend.Put(hName, obj); err != nil {
			return "", false, err
		}
	}
	n, err := s.readCount(hName)
	if err != nil {
		return "", false, err
	}
	if err := s.writeCount(hName, n+1); err != nil {
		return "", false, err
	}
	s.observePut(exists, len(content))
	return hName, exists, nil
}

// Get returns the plaintext stored under the content address, verifying
// both the ciphertext integrity and the address↔content binding.
func (s *Store) Get(hName string) ([]byte, error) {
	raw, err := s.backend.Get(hName)
	if errors.Is(err, store.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, hName)
	}
	if err != nil {
		return nil, err
	}
	content, err := s.decodeObject(hName, raw)
	if err != nil {
		s.corruptTotal.Inc()
		return nil, err
	}
	return content, nil
}

// Release decrements the reference count of the content address, deleting
// the object when it reaches zero. It reports whether the object was
// physically removed.
func (s *Store) Release(hName string) (removed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.readCount(hName)
	if err != nil {
		return false, err
	}
	if n == 0 {
		return false, fmt.Errorf("%w: %s", ErrNotFound, hName)
	}
	if n > 1 {
		return false, s.writeCount(hName, n-1)
	}
	// Object first, record last: a crash in between leaves a count for
	// an absent object, which only keeps the next Put's object longer.
	if err := s.backend.Delete(hName); err != nil && !errors.Is(err, store.ErrNotExist) {
		return false, err
	}
	if err := s.backend.Delete(refsName(hName)); err != nil && !errors.Is(err, store.ErrNotExist) {
		return false, err
	}
	s.removedTotal.Inc()
	return true, nil
}

// RefCount returns the stored reference count of a content address
// (zero if unknown).
func (s *Store) RefCount(hName string) (uint32, error) { return s.readCount(hName) }

// Reload converts a reference table that a backup restoration brought
// back underneath the store. The records themselves need no reload:
// every call reads them from the backend.
func (s *Store) Reload() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.convertLegacyRefs()
}

// TotalBytes reports the backend's stored bytes (the dedup savings
// experiment reads it).
func (s *Store) TotalBytes() (int64, error) { return s.backend.TotalBytes() }

// readCount reads and authenticates hName's reference record; an absent
// record is a count of zero. The record's name is its associated data,
// so a record copied onto another object's name fails to open.
func (s *Store) readCount(hName string) (uint32, error) {
	name := refsName(hName)
	raw, err := s.backend.Get(name)
	if errors.Is(err, store.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	pt, err := s.refs.Open(raw, []byte(name))
	if err != nil || len(pt) != 4 {
		return 0, fmt.Errorf("%w: reference record of %s", ErrCorrupt, hName)
	}
	return binary.BigEndian.Uint32(pt), nil
}

// writeCount seals and stores hName's reference record.
func (s *Store) writeCount(hName string, n uint32) error {
	name := refsName(hName)
	ct, err := s.refs.Seal(binary.BigEndian.AppendUint32(nil, n), []byte(name))
	if err != nil {
		return err
	}
	return s.backend.Put(name, ct)
}

// convertLegacyRefs writes one reference record per entry of a stored
// reference table and deletes the table last, so a conversion cut short
// leaves the table in place and the next call converts it again.
func (s *Store) convertLegacyRefs() error {
	raw, err := s.backend.Get(legacyRefsName)
	if errors.Is(err, store.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	pt, err := s.refs.Open(raw, []byte(legacyRefsName))
	if err != nil {
		return fmt.Errorf("%w: reference table", ErrCorrupt)
	}
	table, err := decodeRefs(pt)
	if err != nil {
		return err
	}
	for hName, n := range table {
		if err := s.writeCount(hName, n); err != nil {
			return err
		}
	}
	return s.backend.Delete(legacyRefsName)
}

// decodeRefs decodes a reference table: a u32 entry count, then per entry
// a u32 name length, the name and a u32 count.
func decodeRefs(data []byte) (map[string]uint32, error) {
	if len(data) < 4 {
		return nil, ErrCorrupt
	}
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	// Every entry takes at least 8 bytes, so the remaining length bounds
	// the size hint: a corrupt count cannot ask for a huge map.
	refs := make(map[string]uint32, min(int(n), len(data)/8))
	for i := uint32(0); i < n; i++ {
		if len(data) < 4 {
			return nil, ErrCorrupt
		}
		l := binary.BigEndian.Uint32(data)
		data = data[4:]
		if uint64(len(data)) < uint64(l)+4 {
			return nil, ErrCorrupt
		}
		name := string(data[:l])
		count := binary.BigEndian.Uint32(data[l:])
		data = data[l+4:]
		refs[name] = count
	}
	if len(data) != 0 {
		return nil, ErrCorrupt
	}
	return refs, nil
}
