package core

import (
	"testing"

	"segshare/internal/ca"
	"segshare/internal/enclave"
	"segshare/internal/obs"
	"segshare/internal/store"
)

// Microbenchmarks for the introspection layer's per-request cost: the
// in-process direct GET is the cheapest request the server can serve,
// so any fixed per-request overhead (live-set add/remove, SLO ring
// writes, heavy-hitter offer) shows here at its worst. The benchmark
// ledger measures the shipped configuration end-to-end; this pair exists
// for quick profiling (-cpuprofile) when its per-request cost moves.

func benchServer(b *testing.B, introspect bool) *Server {
	b.Helper()
	authority, err := ca.New("bench CA")
	if err != nil {
		b.Fatal(err)
	}
	platform, err := enclave.NewPlatform(enclave.PlatformConfig{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		CACertPEM:    authority.CertificatePEM(),
		ContentStore: store.NewMemory(),
		GroupStore:   store.NewMemory(),
	}
	if introspect {
		cfg.SLO = &obs.SLOConfig{}
		cfg.HotGroups = -1
	}
	s, err := NewServer(platform, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

func benchGet(b *testing.B, introspect bool) {
	s := benchServer(b, introspect)
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

func BenchmarkGetIntrospectOff(b *testing.B) { benchGet(b, false) }
func BenchmarkGetIntrospectOn(b *testing.B)  { benchGet(b, true) }

func benchMixedParallel(b *testing.B, introspect bool) {
	s := benchServer(b, introspect)
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

func BenchmarkMixedParallelIntrospectOff(b *testing.B) { benchMixedParallel(b, false) }
func BenchmarkMixedParallelIntrospectOn(b *testing.B)  { benchMixedParallel(b, true) }
