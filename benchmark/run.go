package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"segshare"
)

// stopRule ends a closed-loop phase: at a wall-clock deadline (the
// measured phase) or after a fixed op count (warm-up and traced passes,
// where exact counters must repeat).
type stopRule struct {
	duration time.Duration
	ops      int64
}

func stopAfter(d time.Duration) stopRule { return stopRule{duration: d} }
func stopAfterOps(n int) stopRule        { return stopRule{ops: int64(n)} }

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	elapsed   time.Duration
	latencies [numClasses][]int64 // ns, successful ops only, pooled over clients
	attempted int64
	failed    int64
	errs      []string // first few failure descriptions
	// putBytes/getBytes are plaintext bytes moved by successful PUTs/GETs.
	putBytes, getBytes int64
	cpu                time.Duration // process user+sys CPU over the phase
	allocBytes         uint64        // MemStats.TotalAlloc delta over the phase
}

func (r *loopResult) completed() int64 { return r.attempted - r.failed }

// loop drives C closed-loop clients: each issues its next request when
// the previous reply has arrived and been verified.
type loop struct {
	d              *deployment
	seed           uint64
	owners, spares []session
}

func newLoop(d *deployment, seed uint64, owners, spares []session) *loop {
	return &loop{d: d, seed: seed, owners: owners, spares: spares}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const maxReportedErrs = 5

func (l *loop) run(stop stopRule) loopResult {
	clients := len(l.owners)
	perm := filePermutation(l.seed, l.d.spec.files())
	results := make([]clientResult, clients)
	var issued atomic.Int64 // shared op budget for stopAfterOps

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	cpuBefore := processCPU()
	start := time.Now()
	deadline := start.Add(stop.duration)

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &clientLoop{
				loop: l, c: c,
				gen:  newGenerator(l.d.spec, l.seed, c, perm),
				body: make([]byte, l.d.spec.ObjectBytes),
				res:  &results[c],
			}
			for {
				if stop.ops > 0 {
					if issued.Add(1) > stop.ops {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				cl.step()
			}
		}(c)
	}
	wg.Wait()

	out := loopResult{elapsed: time.Since(start), cpu: processCPU() - cpuBefore}
	runtime.ReadMemStats(&ms)
	out.allocBytes = ms.TotalAlloc - allocBefore
	for i := range results {
		r := &results[i]
		out.attempted += r.attempted
		out.failed += r.failed
		out.putBytes += r.putBytes
		out.getBytes += r.getBytes
		for k := range r.latencies {
			out.latencies[k] = append(out.latencies[k], r.latencies[k]...)
		}
		for _, e := range r.errs {
			if len(out.errs) < maxReportedErrs {
				out.errs = append(out.errs, e)
			}
		}
	}
	for k := range out.latencies {
		slices.Sort(out.latencies[k])
	}
	return out
}

type clientResult struct {
	latencies          [numClasses][]int64
	attempted, failed  int64
	putBytes, getBytes int64
	errs               []string
}

// clientLoop is one client's state: its op stream, its PUT buffer, its
// version counter and its position in the ACL cycle.
type clientLoop struct {
	*loop
	c       int
	gen     *generator
	body    []byte
	version uint64
	aclStep int
	res     *clientResult
}

func (cl *clientLoop) fail(format string, args ...any) {
	cl.res.failed++
	if len(cl.res.errs) < maxReportedErrs {
		cl.res.errs = append(cl.res.errs, fmt.Sprintf("client %d: ", cl.c)+fmt.Sprintf(format, args...))
	}
}

// step issues one operation, verifies the reply and records its latency.
// A failed op has no latency sample.
func (cl *clientLoop) step() {
	o := cl.gen.next()
	cl.res.attempted++
	spec := cl.d.spec
	owner := cl.owners[cl.c]
	switch o.Class {
	case opGet:
		var data []byte
		start := time.Now()
		err := cl.d.tracer.root("client", classNames[opGet], func() (err error) {
			data, err = owner.Download(filePath(spec, o.File))
			return err
		})
		lat := time.Since(start)
		if err != nil {
			cl.fail("GET %s: %v", filePath(spec, o.File), err)
			return
		}
		if err := verifyObject(data, uint32(o.File), spec.ObjectBytes, spec.PoolPct > 0); err != nil {
			cl.fail("GET %s: %v", filePath(spec, o.File), err)
			return
		}
		cl.res.getBytes += int64(len(data))
		cl.res.latencies[opGet] = append(cl.res.latencies[opGet], int64(lat))

	case opPut:
		if o.Pool >= 0 {
			cl.d.fill.makeObject(cl.body, poolIDBase+uint32(o.Pool), 0)
		} else {
			cl.version++
			cl.d.fill.makeObject(cl.body, uint32(o.File), uint64(cl.c)<<48|cl.version)
		}
		start := time.Now()
		err := cl.d.tracer.root("client", classNames[opPut], func() error {
			return owner.Upload(filePath(spec, o.File), cl.body)
		})
		lat := time.Since(start)
		if err != nil {
			cl.fail("PUT %s: %v", filePath(spec, o.File), err)
			return
		}
		cl.res.putBytes += int64(len(cl.body))
		cl.res.latencies[opPut] = append(cl.res.latencies[opPut], int64(lat))

	case opACL:
		cl.aclOp()
	}
}

// aclOp advances this client's membership cycle by one step:
//
//	AddUser(spare, group)  →  SetPermission(probe, group, r|rw)  →  RemoveUser(spare, group)
//
// Only the owner's call is timed. Each grant is then checked by a read as
// the spare user, and each revocation by the read that must now be
// refused: revocation is immediate (paper §IV), so an allowed read after
// RemoveUser is a failed operation.
func (cl *clientLoop) aclOp() {
	owner, spare := cl.owners[cl.c], cl.spares[cl.c]
	user, group, probe := spareUser(cl.c), spareGroup(cl.c), probePath(cl.c)
	step := cl.aclStep % 3
	cycle := cl.aclStep / 3
	cl.aclStep++

	var name string
	var call func() error
	switch step {
	case 0:
		name, call = "acl.add_user", func() error { return owner.AddUser(user, group) }
	case 1:
		perm := "r"
		if cycle%2 == 0 {
			perm = "rw"
		}
		name, call = "acl.set_permission", func() error { return owner.SetPermission(probe, group, perm) }
	case 2:
		name, call = "acl.remove_user", func() error { return owner.RemoveUser(user, group) }
	}
	start := time.Now()
	err := cl.d.tracer.root("client", name, call)
	lat := time.Since(start)
	if err != nil {
		cl.fail("%s: %v", name, err)
		return
	}

	var data []byte
	err = cl.d.tracer.root("client", "acl.member_read", func() (err error) {
		data, err = spare.Download(probe)
		return err
	})
	if step == 2 {
		if !errors.Is(err, segshare.ErrPermissionDenied) {
			cl.fail("revoked member read %s: got %v, want permission denied", probe, err)
			return
		}
	} else {
		if err == nil {
			err = verifyObject(data, probeFileID(cl.d.spec, cl.c), cl.d.spec.ObjectBytes, false)
		}
		if err != nil {
			cl.fail("granted member read %s: %v", probe, err)
			return
		}
	}
	cl.res.latencies[opACL] = append(cl.res.latencies[opACL], int64(lat))
}

// quantileNs returns the p-quantile (0..1) of sorted ns samples, in ns.
func quantileNs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[min(int(p*float64(len(sorted))), len(sorted)-1)])
}
