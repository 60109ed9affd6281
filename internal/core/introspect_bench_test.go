package core

import (
	"testing"

	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/store"
)

// Microbenchmarks for the serving stack's fixed per-request cost: the
// in-process direct GET is the cheapest request the server can serve,
// so any fixed per-request overhead (live-set add/remove, SLO ring
// writes, heavy-hitter offer) shows here at its worst. The benchmark
// ledger measures the shipped configuration end-to-end; these exist for
// quick profiling (-cpuprofile) when the per-request cost moves.

func benchServer(b *testing.B) *Server {
	b.Helper()
	authority, err := ca.New("bench CA")
	if err != nil {
		b.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewServer(platform, Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: store.NewMemory(),
		GroupStore:   store.NewMemory(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

func BenchmarkDirectGet(b *testing.B) {
	s := benchServer(b)
	d := s.Direct("alice")
	if err := d.Upload("/f.txt", []byte("payload payload payload")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Download("/f.txt"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDirectMixedParallel(b *testing.B) {
	s := benchServer(b)
	d := s.Direct("alice")
	if err := d.Upload("/f.txt", []byte("payload payload payload")); err != nil {
		b.Fatal(err)
	}
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%4 == 0 {
				if err := d.Upload("/f.txt", []byte("payload payload payload")); err != nil {
					b.Error(err)
					return
				}
			} else {
				if _, err := d.Download("/f.txt"); err != nil {
					b.Error(err)
					return
				}
			}
			i++
		}
	})
}
