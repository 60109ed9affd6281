package bench

import (
	"crypto/rand"
	"fmt"
	"runtime"
	"time"

	"segshare/internal/obs"
)

// E14 — parallel chunk-crypto pipeline (DESIGN.md §14). The content data
// path seals and opens 4 KiB PFS chunks through a bounded worker pool
// and recycles chunk/ciphertext buffers through sync.Pools. This
// experiment sweeps the worker count over single-stream 8 MiB PUT and
// GET, reporting throughput and allocations per operation. workers=1 is
// the serial before-configuration; on a single-core host the parallel
// cells measure pipeline overhead rather than speedup (EXPERIMENTS.md
// E14 discusses both readings).

// E14Config parameterizes the chunk-crypto sweep.
type E14Config struct {
	// Workers holds the pool sizes to sweep; 1 is the inline kernel.
	Workers []int
	// FileMiB is the transfer size per operation.
	FileMiB int
	// Ops is the number of PUTs (and GETs) measured per cell.
	Ops int
	// Reps repeats each cell and keeps the best throughput, interleaved
	// across worker counts so machine drift hits all cells equally.
	Reps int
}

// DefaultE14 returns the scaled-down default parameters.
func DefaultE14() E14Config {
	return E14Config{Workers: []int{1, 2, 4, 8}, FileMiB: 8, Ops: 6, Reps: 3}
}

// E14Row is one measured cell.
type E14Row struct {
	Workers     int
	Op          string  // "put" or "get"
	MiBPerSec   float64 // best-of-Reps single-stream throughput
	AllocsPerOp float64 // heap allocations per operation (mean over the best rep)
	Speedup     float64 // throughput vs workers=1 for the same op
}

// e14Cell measures ops back-to-back operations and returns throughput
// plus the mean allocation count per operation. Allocations are read
// from runtime.MemStats deltas around the timed loop; the direct session
// bypasses TLS and HTTP, so the delta is dominated by the data path
// under test.
func e14Cell(ops int, size int, fn func(i int) error) (mibps, allocs float64, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	bytes := float64(ops) * float64(size)
	mibps = bytes / (1 << 20) / elapsed.Seconds()
	allocs = float64(after.Mallocs-before.Mallocs) / float64(ops)
	return mibps, allocs, nil
}

// RunE14 sweeps the worker counts. Each worker count gets its own fresh
// deployment so pool sizing is fixed per cell; PUT overwrites one path
// (steady-state update) and GET re-reads it. Best-of-Reps throughput is
// kept per cell, and the winning rep's allocs/op rides along with it.
func RunE14(cfg E14Config) ([]E14Row, error) {
	if len(cfg.Workers) == 0 || cfg.FileMiB <= 0 || cfg.Ops <= 0 {
		return nil, fmt.Errorf("bench: e14 config incomplete: %+v", cfg)
	}
	reps := cfg.Reps
	if reps <= 0 {
		reps = 1
	}
	size := cfg.FileMiB << 20
	content := make([]byte, size)
	if _, err := rand.Read(content); err != nil {
		return nil, err
	}

	var rows []E14Row
	base := map[string]float64{} // op -> workers=1 throughput
	for _, workers := range cfg.Workers {
		env, err := NewEnv(EnvConfig{CryptoWorkers: workers})
		if err != nil {
			return nil, err
		}
		sess := env.Direct("alice")
		path := "/e14.bin"
		if err := sess.Upload(path, content); err != nil {
			env.Close()
			return nil, err
		}

		put := E14Row{Workers: workers, Op: "put"}
		get := E14Row{Workers: workers, Op: "get"}
		for rep := 0; rep < reps; rep++ {
			mibps, allocs, err := e14Cell(cfg.Ops, size, func(int) error {
				return sess.Upload(path, content)
			})
			if err != nil {
				env.Close()
				return nil, err
			}
			if mibps > put.MiBPerSec {
				put.MiBPerSec, put.AllocsPerOp = mibps, allocs
			}
			mibps, allocs, err = e14Cell(cfg.Ops, size, func(int) error {
				got, err := sess.Download(path)
				if err != nil {
					return err
				}
				if len(got) != size {
					return fmt.Errorf("bench: e14 download returned %d bytes, want %d", len(got), size)
				}
				return nil
			})
			if err != nil {
				env.Close()
				return nil, err
			}
			if mibps > get.MiBPerSec {
				get.MiBPerSec, get.AllocsPerOp = mibps, allocs
			}
		}
		env.Close()

		for _, row := range []*E14Row{&put, &get} {
			if workers == cfg.Workers[0] {
				base[row.Op] = row.MiBPerSec
			}
			if b := base[row.Op]; b > 0 {
				row.Speedup = row.MiBPerSec / b
			}
			// The snapshot gauges let -metrics-out record the sweep next
			// to the crypto counters; worker count and op come from closed
			// sets, so the labels stay inside the leak budget.
			labels := obs.Labels{"op": row.Op, "pool": fmt.Sprintf("w%d", row.Workers)}
			obs.Default().Gauge("segshare_bench_allocs_per_op",
				"Heap allocations per 8 MiB data-path operation in the E14 sweep.", labels).
				Set(int64(row.AllocsPerOp))
			obs.Default().Gauge("segshare_bench_mib_per_sec",
				"Single-stream throughput per E14 cell, in MiB/s.", labels).
				Set(int64(row.MiBPerSec))
			rows = append(rows, *row)
		}
	}
	return rows, nil
}
