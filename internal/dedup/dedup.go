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
// garbage collection unspecified): the store keeps an encrypted reference
// index so that Release can delete an object once no content file points
// at it. Every stored object wraps a random per-object key so the
// temp-to-final rename needs no re-encryption; the hName↔content binding
// is verified on every read by recomputing the HMAC.
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

const refsName = "_refs"

// Store is the deduplication store. It is safe for concurrent use.
type Store struct {
	backend store.Backend
	nameKey []byte  // HMAC key for content addressing
	wrapKey pae.Key // key-encryption key for per-object keys
	refsKey pae.Key // key for the reference index

	// workers bounds the chunk-crypto worker pool used when sealing and
	// opening object blobs; 1 (the default) is strictly serial.
	workers int

	mu sync.Mutex
	// refs is the decoded reference index, read from the backend on the
	// first Put or Release and kept equal to the stored copy under mu:
	// every change is saved before the call returns, and a failed save
	// drops it so the next call reads the stored table again.
	refs map[string]uint32

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

// WithWorkers sets the chunk-crypto worker count for object blobs;
// values below 1 are clamped to serial.
func WithWorkers(n int) Option {
	return func(s *Store) {
		if n < 1 {
			n = 1
		}
		s.workers = n
	}
}

func (s *Store) initMetrics(reg *obs.Registry) {
	s.hits = reg.Counter("segshare_dedup_put_total", "Dedup store puts by outcome.", obs.Labels{"result": "hit"})
	s.misses = reg.Counter("segshare_dedup_put_total", "Dedup store puts by outcome.", obs.Labels{"result": "miss"})
	s.bytesDeduped = reg.Counter("segshare_dedup_saved_bytes_total", "Plaintext bytes not stored again thanks to deduplication.", nil)
	s.corruptTotal = reg.Counter("segshare_dedup_corrupt_total", "Dedup reads failing decryption or the address binding check.", nil)
	s.removedTotal = reg.Counter("segshare_dedup_removed_total", "Dedup objects physically deleted after their last reference.", nil)
}

// New creates a deduplication store over backend. All keys are derived
// from rootKey (the store's slice of SK_r).
func New(backend store.Backend, rootKey []byte, opts ...Option) (*Store, error) {
	nameKey, err := pae.DeriveBytes(rootKey, "dedup-name", nil, 32)
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
	s := &Store{backend: backend, nameKey: nameKey, wrapKey: wrapKey, refsKey: refsKey, workers: 1}
	s.initMetrics(obs.Default())
	for _, opt := range opts {
		opt(s)
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
	mac := pae.MAC(s.nameKey, content)
	return hex.EncodeToString(mac[:])
}

// encodeObject encrypts content under a fresh random key and returns the
// stored object bytes: wrapped key ‖ protected blob. The blob is sealed
// directly into the object buffer (pfs.AppendEncrypt), so the content is
// copied once into ciphertext slots rather than through an intermediate
// full-size blob.
func (s *Store) encodeObject(content []byte) ([]byte, error) {
	fileKey, err := pae.NewRandomKey()
	if err != nil {
		return nil, err
	}
	wrapped, err := pae.Encrypt(s.wrapKey, fileKey[:], []byte("dedup-object-key"))
	if err != nil {
		return nil, err
	}
	size := int64(len(content))
	out := make([]byte, 0, 4+len(wrapped)+int(size+pfs.Overhead(size)))
	out = binary.BigEndian.AppendUint32(out, uint32(len(wrapped)))
	out = append(out, wrapped...)
	return pfs.AppendEncrypt(out, fileKey, nil, content, s.workers)
}

func (s *Store) decodeObject(raw []byte) ([]byte, error) {
	if len(raw) < 4 {
		return nil, ErrCorrupt
	}
	n := binary.BigEndian.Uint32(raw)
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
	// raw is the caller's (Backend.Get), so the blob is opened in place.
	content, err := keys.DecryptCtx(nil, nil, raw[4+n:], s.workers)
	if err != nil {
		return nil, ErrCorrupt
	}
	return content, nil
}

// Put deduplicates and stores content, returning its content address and
// whether it was already present. The reference count of the address is
// incremented either way.
func (s *Store) Put(content []byte) (hName string, duplicate bool, err error) {
	return s.put(s.contentName(content), content)
}

func (s *Store) put(hName string, content []byte) (string, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	exists, err := s.backend.Exists(hName)
	if err != nil {
		return "", false, err
	}
	if !exists {
		obj, err := s.encodeObject(content)
		if err != nil {
			return "", false, err
		}
		if err := s.backend.Put(hName, obj); err != nil {
			return "", false, err
		}
	}
	if err := s.addRefLocked(hName, 1); err != nil {
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
	content, err := s.decodeObject(raw)
	if err != nil {
		s.corruptTotal.Inc()
		return nil, err
	}
	if s.contentName(content) != hName {
		s.corruptTotal.Inc()
		return nil, fmt.Errorf("%w: content does not match address", ErrCorrupt)
	}
	return content, nil
}

// Release decrements the reference count of the content address, deleting
// the object when it reaches zero. It reports whether the object was
// physically removed.
func (s *Store) Release(hName string) (removed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	refs, err := s.loadRefsLocked()
	if err != nil {
		return false, err
	}
	n, ok := refs[hName]
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrNotFound, hName)
	}
	if n > 1 {
		refs[hName] = n - 1
		return false, s.saveRefsLocked()
	}
	if err := s.backend.Delete(hName); err != nil && !errors.Is(err, store.ErrNotExist) {
		return false, err
	}
	delete(refs, hName)
	s.removedTotal.Inc()
	return true, s.saveRefsLocked()
}

// RefCount returns the stored reference count of a content address
// (zero if unknown). It reads and authenticates the stored index, not
// the in-memory copy, so it reports what a restarted store would see.
func (s *Store) RefCount(hName string) (uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	refs, err := s.readRefsLocked()
	if err != nil {
		return 0, err
	}
	return refs[hName], nil
}

// Reload forgets the in-memory reference index, so the next Put or
// Release reads the stored one — after a backup restoration replaced
// the backend's objects underneath the store.
func (s *Store) Reload() {
	s.mu.Lock()
	s.refs = nil
	s.mu.Unlock()
}

// TotalBytes reports the backend's stored bytes (the dedup savings
// experiment reads it).
func (s *Store) TotalBytes() (int64, error) { return s.backend.TotalBytes() }

func (s *Store) addRefLocked(hName string, delta uint32) error {
	refs, err := s.loadRefsLocked()
	if err != nil {
		return err
	}
	refs[hName] += delta
	return s.saveRefsLocked()
}

// loadRefsLocked returns the in-memory reference index, reading it from
// the backend first if this store holds none.
func (s *Store) loadRefsLocked() (map[string]uint32, error) {
	if s.refs == nil {
		refs, err := s.readRefsLocked()
		if err != nil {
			return nil, err
		}
		s.refs = refs
	}
	return s.refs, nil
}

// readRefsLocked reads, authenticates and decodes the stored index.
func (s *Store) readRefsLocked() (map[string]uint32, error) {
	raw, err := s.backend.Get(refsName)
	if errors.Is(err, store.ErrNotExist) {
		return make(map[string]uint32), nil
	}
	if err != nil {
		return nil, err
	}
	pt, err := pae.Decrypt(s.refsKey, raw, []byte(refsName))
	if err != nil {
		return nil, fmt.Errorf("%w: reference index", ErrCorrupt)
	}
	return decodeRefs(pt)
}

// saveRefsLocked seals and stores the in-memory index. On failure the
// backend may hold either version, so the copy is dropped and the next
// call reads whichever one is stored.
func (s *Store) saveRefsLocked() error {
	ct, err := pae.Encrypt(s.refsKey, encodeRefs(s.refs), []byte(refsName))
	if err == nil {
		err = s.backend.Put(refsName, ct)
	}
	if err != nil {
		s.refs = nil
	}
	return err
}

// encodeRefs serialises the index in map order: decodeRefs needs none,
// and the encoding's size does not depend on it.
func encodeRefs(refs map[string]uint32) []byte {
	size := 4
	for name := range refs {
		size += 8 + len(name)
	}
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint32(out, uint32(len(refs)))
	for name, n := range refs {
		out = binary.BigEndian.AppendUint32(out, uint32(len(name)))
		out = append(out, name...)
		out = binary.BigEndian.AppendUint32(out, n)
	}
	return out
}

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
