package main

import (
	"bytes"
	"crypto/rand"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"segshare/internal/acl"
	"segshare/internal/audit"
	"segshare/internal/ca"
	"segshare/internal/cache"
	"segshare/internal/dedup"
	"segshare/internal/enclave"
	"segshare/internal/enctls"
	"segshare/internal/fspath"
	"segshare/internal/journal"
	"segshare/internal/mhash"
	"segshare/internal/obs"
	"segshare/internal/pae"
	"segshare/internal/pfs"
	"segshare/internal/rollback"
	"segshare/internal/store"
)

// Layer probes time each layer's public functions from outside, on one
// goroutine, with workload-shaped inputs: the median of probeBatches
// fixed-count batches. They are the unit costs the traced run's counts
// are multiplied with, and the first place a layer-local change shows.

const probeBatches = 5

// prober scales every probe's fixed batch count (sized for a full run) by
// scale, so the fast tests can run all probes in well under a second.
type prober struct {
	scale float64
	out   map[string]float64
	err   error
}

// time runs fn(n) probeBatches times and returns the median time per
// iteration in nanoseconds.
func (p *prober) time(count int, fn func(n int) error) float64 {
	n := max(1, int(float64(count)*p.scale))
	per := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches && p.err == nil; b++ {
		start := time.Now()
		if err := fn(n); err != nil {
			p.err = err
			return 0
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	if len(per) == 0 {
		return 0
	}
	slices.Sort(per)
	return per[len(per)/2]
}

func (p *prober) us(name string, count int, fn func(n int) error) {
	p.out[name] = p.time(count, fn) / 1e3
}

func (p *prober) ms(name string, count int, fn func(n int) error) {
	p.out[name] = p.time(count, fn) / 1e6
}

func (p *prober) ns(name string, count int, fn func(n int) error) {
	p.out[name] = p.time(count, fn)
}

func (p *prober) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

func randomBytes(n int) []byte {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(err) // crypto/rand does not fail on supported platforms
	}
	return b
}

// each repeats one call n times, stopping at the first error.
func each(n int, call func() error) error {
	for i := 0; i < n; i++ {
		if err := call(); err != nil {
			return err
		}
	}
	return nil
}

// probeInputs are the workload-shaped payloads: one small, one full_tls
// and one bulk object.
type probeInputs struct{ k4, k64, m1 []byte }

// runProbes measures every layer probe. scale 1 is the full run.
func runProbes(scale float64) (map[string]float64, error) {
	p := &prober{scale: scale, out: make(map[string]float64)}
	in := probeInputs{k4: randomBytes(4 << 10), k64: randomBytes(64 << 10), m1: randomBytes(1 << 20)}
	for _, probe := range []func(*prober, probeInputs){
		probePAE, probePFS, probeStore, probeJournal, probeACL, probeCache,
		probeEnclave, probeEnctls, probeDedup, probeRollback, probeAudit, probeFspath,
	} {
		if p.err == nil {
			probe(p, in)
		}
	}
	return p.out, p.err
}

func probePAE(p *prober, in probeInputs) {
	key, err := pae.NewRandomKey()
	p.fail(err)
	c, err := pae.NewCipher(key)
	p.fail(err)
	if p.err != nil {
		return
	}
	ad := []byte("probe")
	sealed, err := c.Seal(in.k4, ad)
	p.fail(err)
	p.us("pae.seal_4k_us", 4000, func(n int) error {
		return each(n, func() error { _, err := c.Seal(in.k4, ad); return err })
	})
	p.us("pae.open_4k_us", 4000, func(n int) error {
		return each(n, func() error { _, err := c.Open(sealed, ad); return err })
	})
	p.us("pae.derive_key_us", 4000, func(n int) error {
		return each(n, func() error { _, err := pae.DeriveKey(key[:], "probe", ad); return err })
	})
}

func probePFS(p *prober, in probeInputs) {
	key, err := pae.NewRandomKey()
	p.fail(err)
	if p.err != nil {
		return
	}
	id := []byte("probe-file")
	workers := pfs.DefaultWorkers()
	blob4k, err := pfs.EncryptWorkers(key, id, in.k4, workers)
	p.fail(err)
	blob1m, err := pfs.EncryptWorkers(key, id, in.m1, workers)
	p.fail(err)
	if p.err != nil {
		return
	}
	p.us("pfs.encrypt_4k_us", 2000, func(n int) error {
		return each(n, func() error { _, err := pfs.EncryptWorkers(key, id, in.k4, workers); return err })
	})
	p.us("pfs.decrypt_4k_us", 2000, func(n int) error {
		return each(n, func() error { _, err := pfs.DecryptWorkers(key, id, blob4k, workers); return err })
	})
	p.ms("pfs.encrypt_1m_ms", 20, func(n int) error {
		return each(n, func() error { _, err := pfs.EncryptWorkers(key, id, in.m1, workers); return err })
	})
	p.ms("pfs.decrypt_1m_ms", 20, func(n int) error {
		return each(n, func() error { _, err := pfs.DecryptWorkers(key, id, blob1m, workers); return err })
	})
	buf := make([]byte, 4<<10)
	p.us("pfs.readat_4k_of_1m_us", 1000, func(n int) error {
		r, err := pfs.Open(key, id, bytes.NewReader(blob1m), int64(len(blob1m)))
		if err != nil {
			return err
		}
		chunks := len(in.m1) / len(buf)
		for i := 0; i < n; i++ {
			if _, err := r.ReadAt(buf, int64(i*7919%chunks)*int64(len(buf))); err != nil {
				return err
			}
		}
		return nil
	})
	p.out["pfs.stored_ratio_1m"] = float64(len(blob1m)) / float64(len(in.m1))
}

func probeStore(p *prober, in probeInputs) {
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("probe-object-%04d", i)
	}
	putGet := func(b store.Backend, size string, data []byte, count int) {
		for _, name := range names {
			p.fail(b.Put(name, data))
		}
		i := 0
		p.us("store.put_"+size+"_us", count, func(n int) error {
			return each(n, func() error { i++; return b.Put(names[i%len(names)], data) })
		})
		p.us("store.get_"+size+"_us", count, func(n int) error {
			return each(n, func() error { i++; _, err := b.Get(names[i%len(names)]); return err })
		})
	}
	putGet(store.NewMemory(), "4k", in.k4, 20000)
	putGet(store.NewMemory(), "1m", in.m1, 100)
	// The wrapper stack the server builds around every store.
	wrapped := store.NewInstrumented(
		store.NewResilient(store.NewMemory(), "content", store.ResilientOptions{Obs: obs.NewRegistry()}),
		"content", obs.NewRegistry())
	i := 0
	p.us("store.resilient_put_4k_us", 10000, func(n int) error {
		return each(n, func() error { i++; return wrapped.Put(names[i%len(names)], in.k4) })
	})
}

// launchProbeEnclave launches a throwaway enclave for the probes that need one.
func launchProbeEnclave() (*enclave.Enclave, error) {
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		return nil, err
	}
	return platform.Launch(enclave.CodeIdentity{Name: "segshare-benchmark-probe", Version: 1})
}

func probeJournal(p *prober, in probeInputs) {
	encl, err := launchProbeEnclave()
	p.fail(err)
	keys, err := journal.DeriveKeys(randomBytes(32))
	p.fail(err)
	if p.err != nil {
		return
	}
	backend := newTracedBackend(store.NewMemory(), "group", newTracer())
	jl, err := journal.Open(backend, keys, encl.Counter("journal-probe"), journal.Options{Obs: obs.NewRegistry()})
	p.fail(err)
	if p.err != nil {
		return
	}
	commit := func(body []byte) func(n int) error {
		writes := []journal.Write{{Store: "content", Name: "/d000/f0000.bin", Body: body}}
		return func(n int) error {
			return each(n, func() error {
				seq, err := jl.Commit("fs_put", writes, nil)
				if err != nil {
					return err
				}
				return jl.MarkApplied(seq)
			})
		}
	}
	p.us("journal.commit_4k_us", 2000, commit(in.k4))
	before := backend.bytesWritten.Load()
	commits := backend.ops.Load()
	p.ms("journal.commit_1m_ms", 10, commit(in.m1))
	commits = (backend.ops.Load() - commits) / 2 // one Put and one Delete per commit
	if commits > 0 {
		p.out["journal.bytes_per_payload_byte"] =
			float64(backend.bytesWritten.Load()-before) / float64(commits*int64(len(in.m1)))
	}
}

func probeACL(p *prober, _ probeInputs) {
	a := &acl.ACL{}
	var ml acl.MemberList
	for g := acl.GroupID(1); g <= sharingGroups; g++ {
		a.SetPermission(g, acl.PermReadWrite)
		ml.Add(g + 100) // 15 misses, then one hit: the whole list is walked
	}
	ml.Add(sharingGroups)
	encoded := a.Encode()
	p.us("acl.authorize_us", 200000, func(n int) error {
		return each(n, func() error {
			if !acl.AuthorizeFile(&ml, a, nil, acl.PermRead) {
				return fmt.Errorf("acl probe: unexpected denial")
			}
			return nil
		})
	})
	p.us("acl.decode_acl_us", 100000, func(n int) error {
		return each(n, func() error { _, err := acl.DecodeACL(encoded); return err })
	})
	p.us("acl.encode_acl_us", 100000, func(n int) error {
		return each(n, func() error {
			if len(a.Encode()) == 0 {
				return fmt.Errorf("acl probe: empty encoding")
			}
			return nil
		})
	})
}

func probeCache(p *prober, _ probeInputs) {
	c := cache.New[*acl.ACL](8 << 20)
	keys := make([]string, 1024)
	val := &acl.ACL{}
	for i := range keys {
		keys[i] = fmt.Sprintf("acl:/d%03d/f%04d.bin", i/256, i%256)
		c.Put(keys[i], val, 128, c.Gen())
	}
	i := 0
	p.ns("cache.get_hit_ns", 500000, func(n int) error {
		return each(n, func() error {
			i++
			if _, ok := c.Get(keys[i%len(keys)]); !ok {
				return fmt.Errorf("cache probe: unexpected miss")
			}
			return nil
		})
	})
	p.ns("cache.put_ns", 200000, func(n int) error {
		return each(n, func() error { i++; c.Put(keys[i%len(keys)], val, 128, c.Gen()); return nil })
	})
}

func probeEnclave(p *prober, in probeInputs) {
	encl, err := launchProbeEnclave()
	p.fail(err)
	if p.err != nil {
		return
	}
	bridge := enclave.NewBridge(enclave.BridgeConfig{Obs: obs.NewRegistry()})
	defer bridge.Close()
	bridge.RegisterECall("probe.echo", func(payload []byte) ([]byte, error) { return payload, nil })
	p.us("enclave.ecall_4k_us", 20000, func(n int) error {
		return each(n, func() error { _, err := bridge.ECall("probe.echo", in.k4); return err })
	})
	ctr := encl.Counter("probe")
	p.us("enclave.counter_inc_us", 200000, func(n int) error {
		return each(n, func() error { _, err := ctr.Increment(); return err })
	})
	ad := []byte("probe")
	p.us("enclave.seal_4k_us", 4000, func(n int) error {
		return each(n, func() error { _, err := encl.Seal(in.k4, ad); return err })
	})
}

// probeEnctls runs an echo service behind the split TLS stack: TCP
// terminator → bridge → trusted endpoint, the transport under every
// *_tls workload without HTTP or the request handler on top.
func probeEnctls(p *prober, in probeInputs) {
	authority, err := ca.New("probe CA")
	p.fail(err)
	if p.err != nil {
		return
	}
	serverCred, err := authority.IssueServerCertificate([]string{"localhost"}, 0)
	p.fail(err)
	clientCred, err := authority.IssueClientCertificate(ca.Identity{UserID: "probe"}, time.Hour)
	p.fail(err)
	if p.err != nil {
		return
	}
	serverCert, err := serverCred.TLSCertificate()
	p.fail(err)
	clientCert, err := clientCred.TLSCertificate()
	p.fail(err)
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	p.fail(err)
	if p.err != nil {
		return
	}
	bridge := enclave.NewBridge(enclave.BridgeConfig{Obs: obs.NewRegistry()})
	endpoint := enctls.NewTrustedEndpoint(bridge, &tls.Config{
		Certificates: []tls.Certificate{serverCert},
		ClientCAs:    authority.CertPool(),
	})
	term := enctls.NewUntrustedTerminator(bridge, tcp)
	serverDone := make(chan struct{})
	go func() {
		defer close(serverDone)
		for {
			conn, err := endpoint.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(conn, conn) // echo until the client hangs up
			}()
		}
	}()
	defer func() {
		term.Close()
		endpoint.Close()
		bridge.Close()
		<-serverDone
	}()

	conf := &tls.Config{
		RootCAs:      authority.CertPool(),
		ServerName:   "localhost",
		Certificates: []tls.Certificate{clientCert},
		MinVersion:   tls.VersionTLS12,
	}
	addr := term.Addr().String()
	p.ms("enctls.handshake_ms", 20, func(n int) error {
		return each(n, func() error {
			conn, err := tls.Dial("tcp", addr, conf)
			if err != nil {
				return err
			}
			return conn.Close()
		})
	})
	conn, err := tls.Dial("tcp", addr, conf)
	p.fail(err)
	if p.err != nil {
		return
	}
	defer conn.Close()
	echo := func(msg []byte) func(n int) error {
		reply := make([]byte, len(msg))
		return func(n int) error {
			return each(n, func() error {
				if _, err := conn.Write(msg); err != nil {
					return err
				}
				_, err := io.ReadFull(conn, reply)
				return err
			})
		}
	}
	p.us("enctls.echo_4k_us", 2000, echo(in.k4))
	p.ms("enctls.stream_1m_ms", 20, echo(in.m1))
}

func probeDedup(p *prober, in probeInputs) {
	ds, err := dedup.New(store.NewMemory(), randomBytes(32), dedup.WithObs(obs.NewRegistry()),
		dedup.WithWorkers(pfs.DefaultWorkers()))
	p.fail(err)
	if p.err != nil {
		return
	}
	// Every put re-seals the reference table, so its cost depends on how
	// many objects the store holds: start from a full_tls-sized store.
	body := bytes.Clone(in.k64)
	serial := uint64(0)
	fresh := func() []byte {
		serial++
		body[0], body[1], body[2], body[3] = byte(serial), byte(serial>>8), byte(serial>>16), byte(serial>>24)
		return body
	}
	for i := 0; i < int(1024*p.scale) && p.err == nil; i++ {
		_, _, err := ds.Put(fresh())
		p.fail(err)
	}
	p.us("dedup.put_new_64k_us", 100, func(n int) error {
		return each(n, func() error {
			_, dup, err := ds.Put(fresh())
			if err == nil && dup {
				err = fmt.Errorf("dedup probe: fresh body reported duplicate")
			}
			return err
		})
	})
	name, _, err := ds.Put(in.k64)
	p.fail(err)
	p.us("dedup.put_dup_64k_us", 200, func(n int) error {
		return each(n, func() error {
			_, dup, err := ds.Put(in.k64)
			if err == nil && !dup {
				err = fmt.Errorf("dedup probe: repeated body not deduplicated")
			}
			return err
		})
	})
	p.us("dedup.get_64k_us", 1000, func(n int) error {
		return each(n, func() error { _, err := ds.Get(name); return err })
	})
}

func probeRollback(p *prober, in probeInputs) {
	key := randomBytes(32)
	h := rollback.NewHasher(key)
	var buckets rollback.Buckets
	child := "/d000/f0000.bin"
	oldMain := h.LeafMain(child, rollback.ContentDigest(in.k4))
	newMain := h.LeafMain(child, rollback.ContentDigest(in.k64))
	buckets.AddChild(h, child, oldMain)
	p.us("rollback.replace_child_us", 20000, func(n int) error {
		return each(n, func() error {
			buckets.ReplaceChild(h, child, oldMain, newMain)
			oldMain, newMain = newMain, oldMain
			return nil
		})
	})
	digest := rollback.ContentDigest(in.k4)
	p.us("rollback.leaf_main_us", 50000, func(n int) error {
		return each(n, func() error { _ = h.LeafMain(child, digest); return nil })
	})
	acc := mhash.NewAccumulator(key)
	sum := acc.Add(mhash.Hash{}, oldMain[:])
	p.us("mhash.replace_us", 20000, func(n int) error {
		return each(n, func() error {
			sum = acc.Replace(sum, oldMain[:], newMain[:])
			oldMain, newMain = newMain, oldMain
			return nil
		})
	})
}

func probeAudit(p *prober, _ probeInputs) {
	encl, err := launchProbeEnclave()
	p.fail(err)
	keys, err := audit.DeriveKeys(randomBytes(32))
	p.fail(err)
	if p.err != nil {
		return
	}
	// Block on a full queue so every emitted event is written and the
	// amortised cost covers sealing, chaining and persisting.
	log, err := audit.Open(store.NewMemory(), keys, encl.Counter("audit-probe"),
		audit.Options{Overflow: audit.OverflowBlock, Obs: obs.NewRegistry()})
	p.fail(err)
	if p.err != nil {
		return
	}
	defer log.Close()
	ev := audit.Event{
		Event: audit.EventFileAuthzAllow, Decision: audit.DecisionAllow, Op: "fs_get",
		User: ownerUser, Path: "/d000/f0000.bin",
	}
	p.us("audit.emit_us", 1000, func(n int) error {
		for i := 0; i < n; i++ {
			log.Emit(ev)
		}
		return log.Flush()
	})
}

func probeFspath(p *prober, _ probeInputs) {
	p.ns("fspath.parse_ns", 500000, func(n int) error {
		return each(n, func() error { _, err := fspath.Parse("/d017/f0123.bin"); return err })
	})
}
