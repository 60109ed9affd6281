package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"

	"segshare"
)

// workloadSpec is one traffic mix. Directory fan-out is part of the spec
// and held fixed per workload because request cost depends on it strongly
// (see README, "Baseline observations").
type workloadSpec struct {
	Name string
	Why  string
	// ObjectBytes is the exact size of every object, header and trailer
	// included, so a PUT never changes the live plaintext volume.
	ObjectBytes int
	Dirs        int
	FilesPerDir int
	// GetPct/PutPct/ACLPct is the op-class mix in percent (sums to 100).
	GetPct, PutPct, ACLPct int
	// Direct drives Server.Direct sessions instead of TLS clients.
	Direct   bool
	Features segshare.Features
	Audit    bool
	// PoolPct is the share of PUT bodies drawn from a 16-entry pool of
	// identical bodies, so deduplication has hits to find.
	PoolPct int
	// TraceOps is the fixed op count of the single-client traced pass.
	TraceOps int
}

func (w workloadSpec) files() int { return w.Dirs * w.FilesPerDir }

const (
	sharingGroups = 16
	poolEntries   = 16
	zipfS         = 1.1
)

var workloads = []workloadSpec{
	{
		Name:        "small_tls",
		Why:         "4 KiB objects over mTLS and the bridge: per-request fixed costs (TLS records, ecalls, admission, locks, authz, journal intent) dominate; chunk crypto and store bytes do little",
		ObjectBytes: 4 << 10, Dirs: 26, FilesPerDir: 256,
		GetPct: 80, PutPct: 15, ACLPct: 5,
		TraceOps: 2000,
	},
	{
		Name:        "small_direct",
		Why:         "same op stream and corpus through in-process sessions: bypasses client/enctls/bridge/HTTP, so a transport change must not move it while a core/journal/acl/cache change moves both",
		ObjectBytes: 4 << 10, Dirs: 26, FilesPerDir: 256,
		GetPct: 80, PutPct: 15, ACLPct: 5,
		Direct:   true,
		TraceOps: 2000,
	},
	{
		Name:        "bulk_tls",
		Why:         "1 MiB objects, reads beside writes: byte-proportional layers (pfs/pae chunk crypto, journal body copy, store bytes, TLS records) dominate; per-request fixed costs do little",
		ObjectBytes: 1 << 20, Dirs: 9, FilesPerDir: 32,
		GetPct: 45, PutPct: 45, ACLPct: 10,
		TraceOps: 200,
	},
	{
		Name:        "full_tls",
		Why:         "64 KiB objects with dedup, hidden paths, rollback tree, counter guard and audit log on: the only workload where dedup/rollback/mhash/counter/audit do work",
		ObjectBytes: 64 << 10, Dirs: 22, FilesPerDir: 64,
		GetPct: 80, PutPct: 15, ACLPct: 5,
		Features: segshare.Features{
			Dedup:              true,
			HidePaths:          true,
			RollbackProtection: true,
			Guard:              segshare.GuardCounter,
		},
		Audit:    true,
		PoolPct:  30,
		TraceOps: 600,
	},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// --- self-describing objects -------------------------------------------
//
// Every object carries its own identity, so a GET is verified without the
// generator holding a second copy or serialising against concurrent PUTs:
//
//	magic u32 | file id u32 | version u64 | length u32 | filler | crc32c u32

const (
	objMagic    = 0x53474231 // "SGB1"
	objHeader   = 20
	objTrailer  = 4
	poolIDBase  = 0xF0000000 // ids at or above name a shared pool body
	minObjBytes = objHeader + objTrailer
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// filler is the seeded random byte pool object payloads are cut from.
// Cutting (instead of generating) keeps the generator's CPU share small
// next to the server it shares cores with.
type filler []byte

func newFiller(seed uint64, objectBytes int) filler {
	f := make(filler, objectBytes+(64<<10))
	rand.New(rand.NewSource(int64(seed ^ 0x5eed0b1ec7))).Read(f)
	return f
}

// makeObject writes the object (id, version) into dst, which must be
// exactly the workload's object size.
func (f filler) makeObject(dst []byte, id uint32, version uint64) {
	n := len(dst)
	binary.BigEndian.PutUint32(dst[0:], objMagic)
	binary.BigEndian.PutUint32(dst[4:], id)
	binary.BigEndian.PutUint64(dst[8:], version)
	binary.BigEndian.PutUint32(dst[16:], uint32(n))
	span := len(f) - n
	off := int((uint64(id)*2654435761 + version*40503) % uint64(span))
	copy(dst[objHeader:n-objTrailer], f[off:])
	binary.BigEndian.PutUint32(dst[n-objTrailer:], crc32.Checksum(dst[:n-objTrailer], castagnoli))
}

var errBadObject = errors.New("object failed verification")

// verifyObject checks that b is an intact object of the expected size
// belonging to file id wantID — or, when pool bodies are in play, to the
// shared pool.
func verifyObject(b []byte, wantID uint32, size int, poolOK bool) error {
	if len(b) != size || size < minObjBytes {
		return fmt.Errorf("%w: length %d, want %d", errBadObject, len(b), size)
	}
	if binary.BigEndian.Uint32(b[0:]) != objMagic {
		return fmt.Errorf("%w: bad magic", errBadObject)
	}
	if got := binary.BigEndian.Uint32(b[16:]); int(got) != size {
		return fmt.Errorf("%w: length field %d, want %d", errBadObject, got, size)
	}
	if crc32.Checksum(b[:size-objTrailer], castagnoli) != binary.BigEndian.Uint32(b[size-objTrailer:]) {
		return fmt.Errorf("%w: checksum mismatch", errBadObject)
	}
	id := binary.BigEndian.Uint32(b[4:])
	if id != wantID && !(poolOK && id >= poolIDBase && id < poolIDBase+poolEntries) {
		return fmt.Errorf("%w: file id %d, want %d", errBadObject, id, wantID)
	}
	return nil
}

// --- op stream ---------------------------------------------------------

type opClass uint8

const (
	opGet opClass = iota
	opPut
	opACL
	numClasses
)

var classNames = [numClasses]string{"get", "put", "acl"}

// op is one generated operation. Pool is the pool entry a PUT body is
// drawn from, or -1 for a fresh self-describing body.
type op struct {
	Class opClass
	File  int
	Pool  int
}

// generator yields the op stream of one client: a pure function of
// (spec, seed, client).
type generator struct {
	spec workloadSpec
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int32
}

func mix64(seed uint64, lane int) int64 {
	z := seed + uint64(lane+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// filePermutation maps Zipf ranks to file indices. It depends on the seed
// only, so every client agrees on which files are hot and the hot set is
// spread over the directories.
func filePermutation(seed uint64, n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(mix64(seed, -7)))
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

func newGenerator(spec workloadSpec, seed uint64, client int, perm []int32) *generator {
	rng := rand.New(rand.NewSource(mix64(seed, client)))
	return &generator{
		spec: spec,
		rng:  rng,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(spec.files()-1)),
		perm: perm,
	}
}

func (g *generator) next() op {
	o := op{Pool: -1}
	switch r := g.rng.Intn(100); {
	case r < g.spec.GetPct:
		o.Class = opGet
	case r < g.spec.GetPct+g.spec.PutPct:
		o.Class = opPut
	default:
		o.Class = opACL
	}
	if o.Class == opACL {
		return o
	}
	o.File = int(g.perm[g.zipf.Uint64()])
	if o.Class == opPut && g.spec.PoolPct > 0 && g.rng.Intn(100) < g.spec.PoolPct {
		o.Pool = g.rng.Intn(poolEntries)
	}
	return o
}

// streamHash fingerprints the first n ops of every client's stream.
func streamHash(spec workloadSpec, seed uint64, clients, n int) uint64 {
	h := fnv.New64a()
	perm := filePermutation(seed, spec.files())
	var buf [10]byte
	for c := 0; c < clients; c++ {
		g := newGenerator(spec, seed, c, perm)
		for i := 0; i < n; i++ {
			o := g.next()
			buf[0] = byte(o.Class)
			binary.BigEndian.PutUint32(buf[1:], uint32(o.File))
			binary.BigEndian.PutUint32(buf[5:], uint32(o.Pool+1))
			h.Write(buf[:9])
		}
	}
	return h.Sum64()
}

func filePath(spec workloadSpec, file int) string {
	return fmt.Sprintf("/d%03d/f%04d.bin", file/spec.FilesPerDir, file%spec.FilesPerDir)
}

func dirPath(dir int) string { return fmt.Sprintf("/d%03d/", dir) }
