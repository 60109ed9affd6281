package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"segshare/internal/obs"
)

// The traced run produces the per-layer metrics. One client drives a fixed
// op count, so every boundary event belongs to the single request in
// flight and the exact counters repeat from run to run. It measures, in
// one tapped deployment:
//
//	pass W  workload's transport, taps idle     → discarded: whichever pass
//	        runs first pays for cold caches, which would bias pass T ÷ pass U
//	pass U  workload's transport, taps idle     → untraced op/s at C = 1
//	pass T  workload's transport, taps recording → spans, counter deltas
//	pass X  the other transport, taps recording  → transport vs core split
//	scaling direct sessions at C = 1 and C = nproc, a fixed time each
//	probes  every layer's public functions in isolation
//
// End-to-end metrics never come from here.

// fullRunSeconds is the --seconds value the fixed counts are sized for;
// shorter runs (the fast tests) scale them down.
const fullRunSeconds = 24.0

// tracedPass is one fixed-count single-client pass with everything the
// taps and the private registry saw during it.
type tracedPass struct {
	res   loopResult
	spans []span
	// Deltas over the pass.
	counters                            counterDelta
	storeOps, storeWritten, storeRead   int64
	journalWritten, wireBytes, wireRecs int64
	rootsByName                         map[string][]int64 // root span durations, ns, sorted
	rootTotal, childTotal               int64              // ns over all roots / their store+journal children
	childCount                          int64
}

// counterDelta is the change of every metric in the deployment's private
// registry over a pass: counters by value, histograms by sum and count.
type counterDelta struct{ before, after []obs.MetricSnapshot }

func matchLabels(m obs.MetricSnapshot, kv []string) bool {
	for i := 0; i+1 < len(kv); i += 2 {
		found := false
		for _, l := range m.Labels {
			if l.Key == kv[i] && l.Value == kv[i+1] {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func sumMetric(snap []obs.MetricSnapshot, name string, kv []string) (value, histSum, histCount float64) {
	for _, m := range snap {
		if m.Name != name || !matchLabels(m, kv) {
			continue
		}
		value += float64(m.Value)
		if m.Histogram != nil {
			histSum += float64(m.Histogram.Sum)
			histCount += float64(m.Histogram.Count)
		}
	}
	return
}

// counter returns the delta of a counter summed over every label set that
// carries the given key/value pairs.
func (c counterDelta) counter(name string, kv ...string) float64 {
	b, _, _ := sumMetric(c.before, name, kv)
	a, _, _ := sumMetric(c.after, name, kv)
	return a - b
}

// hist returns the delta of a histogram's sum and count.
func (c counterDelta) hist(name string, kv ...string) (sum, count float64) {
	_, bs, bc := sumMetric(c.before, name, kv)
	_, as, ac := sumMetric(c.after, name, kv)
	return as - bs, ac - bc
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// pass runs one fixed-count single-client pass over the given sessions.
func (d *deployment) pass(seed uint64, owners, spares []session, ops int, record bool) tracedPass {
	var p tracedPass
	tapTotals := func() (written, read, journal int64) {
		for _, t := range d.taps {
			written += t.bytesWritten.Load()
			read += t.bytesRead.Load()
			journal += t.journalBytes.Load()
		}
		return
	}
	d.flushAudit()
	w0, r0, j0 := tapTotals()
	wb0, wr0 := d.wire.bytes.Load(), d.wire.records.Load()
	p.counters.before = d.reg.Snapshot()
	d.tracer.take()
	d.tracer.enabled.Store(record)

	p.res = newLoop(d, seed, owners[:1], spares[:1]).run(stopAfterOps(ops))

	d.tracer.enabled.Store(false)
	d.flushAudit()
	p.spans = d.tracer.take()
	p.counters.after = d.reg.Snapshot()
	w1, r1, j1 := tapTotals()
	p.storeWritten, p.storeRead, p.journalWritten = w1-w0, r1-r0, j1-j0
	p.wireBytes, p.wireRecs = d.wire.bytes.Load()-wb0, d.wire.records.Load()-wr0

	p.rootsByName = make(map[string][]int64)
	for _, s := range p.spans {
		switch {
		case s.Layer == "client":
			p.rootsByName[s.Name] = append(p.rootsByName[s.Name], s.End-s.Start)
			p.rootTotal += s.End - s.Start
		case s.Parent != 0:
			p.childTotal += s.End - s.Start
			p.childCount++
		}
	}
	for _, v := range p.rootsByName {
		slices.Sort(v)
	}
	return p
}

// aclRoots pools the three timed ACL calls (not the member reads).
func (p *tracedPass) aclRoots() []int64 {
	var out []int64
	for name, v := range p.rootsByName {
		if strings.HasPrefix(name, "acl.") && name != "acl.member_read" {
			out = append(out, v...)
		}
	}
	slices.Sort(out)
	return out
}

// flushAudit drains the audit writer so its records and store traffic are
// counted in the pass that caused them.
func (d *deployment) flushAudit() {
	if log := d.server.AuditLog(); log != nil {
		_ = log.Flush() // a flush error surfaces as audit.records_per_op dropping
	}
}

// layerReport is what a traced run writes to layers-<workload>.json.
type layerReport struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Host        hostShape              `json:"host"`
	Config      effectiveConfig        `json:"config"`
	TraceOps    int                    `json:"trace_ops"`
	Attempted   int64                  `json:"attempted_ops"`
	Failed      int64                  `json:"failed_ops"`
	Errors      []string               `json:"errors,omitempty"`
	Metrics     map[string]layerMetric `json:"metrics"`
	Attribution map[string]float64     `json:"attribution_us_per_op"`
}

type layerMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Source string  `json:"source"`
	Moves  string  `json:"moves"`
}

// tracedRun executes the traced run and returns the report plus the spans
// of pass T.
func tracedRun(spec workloadSpec, seed uint64, clients int, seconds float64) (*layerReport, []span, error) {
	scale := min(1, seconds/fullRunSeconds)
	traceOps := max(30, int(float64(spec.TraceOps)*scale))
	host := newHostShape(clients)
	host.SHA256Pre = calibrate(seconds)

	d, err := deploy(spec, seed, clients, true)
	if err != nil {
		return nil, nil, err
	}
	defer d.Close()

	own, other := d.tlsOwners, d.directOwners
	ownSp, otherSp := d.tlsSpares, d.directSpares
	if spec.Direct {
		own, other, ownSp, otherSp = other, own, otherSp, ownSp
	}
	warm := d.pass(seed, own, ownSp, traceOps, false)
	untraced := d.pass(seed, own, ownSp, traceOps, false)
	traced := d.pass(seed, own, ownSp, traceOps, true)
	cross := d.pass(seed, other, otherSp, traceOps, true)
	tls, direct := &traced, &cross
	if spec.Direct {
		tls, direct = &cross, &traced
	}

	// Scaling: the same direct op stream at one client and at nproc.
	phase := time.Duration(seconds / 8 * float64(time.Second))
	one := newLoop(d, seed, d.directOwners[:1], d.directSpares[:1]).run(stopAfter(phase))
	lockBefore := d.reg.Snapshot()
	all := newLoop(d, seed, d.directOwners, d.directSpares).run(stopAfter(phase))
	lockWait, _ := counterDelta{before: lockBefore, after: d.reg.Snapshot()}.hist("segshare_lock_wait_ns")

	probes, err := runProbes(scale)
	if err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	host.SHA256Post = calibrate(seconds)

	m := make(map[string]float64, len(perLayerMetrics))
	for k, v := range probes {
		m[k] = v
	}
	ops := float64(traced.res.completed())
	c := traced.counters

	m["client.request_us"] = quantileNs(traced.rootsByName[classNames[opGet]], 0.5) / 1e3
	m["transport.overhead_us"] = (quantileNs(tls.rootsByName[classNames[opGet]], 0.5) - quantileNs(direct.rootsByName[classNames[opGet]], 0.5)) / 1e3
	m["core.direct_get_us"] = quantileNs(direct.rootsByName[classNames[opGet]], 0.5) / 1e3
	m["core.direct_put_us"] = quantileNs(direct.rootsByName[classNames[opPut]], 0.5) / 1e3
	m["core.direct_acl_us"] = quantileNs(direct.aclRoots(), 0.5) / 1e3
	m["core.self_us_per_op"] = ratio(float64(direct.rootTotal-direct.childTotal), float64(direct.res.completed())) / 1e3
	m["core.client_scaling"] = ratio(
		float64(all.completed())/all.elapsed.Seconds(),
		float64(one.completed())/one.elapsed.Seconds())
	m["core.lock_wait_share"] = ratio(lockWait, float64(clients)*float64(all.elapsed))
	admSum, admCount := c.hist("segshare_admission_wait_ns")
	m["core.admission_wait_us"] = ratio(admSum, admCount) / 1e3

	m["store.ops_per_op"] = ratio(float64(traced.childCount), ops)
	m["store.time_us_per_op"] = ratio(float64(traced.childTotal), ops) / 1e3
	m["store.bytes_written_per_user_byte"] = ratio(float64(traced.storeWritten), float64(traced.res.putBytes))
	m["store.bytes_read_per_user_byte"] = ratio(float64(traced.storeRead), float64(traced.res.getBytes))
	m["journal.commits_per_op"] = ratio(c.counter("segshare_journal_commits_total"), ops)
	m["journal.store_bytes_per_user_byte"] = ratio(float64(traced.journalWritten), float64(traced.res.putBytes))
	m["enclave.ecalls_per_op"] = ratio(c.counter("segshare_bridge_calls_total", "call", "ecall"), ops)
	m["enclave.ocalls_per_op"] = ratio(c.counter("segshare_bridge_calls_total", "call", "ocall"), ops)
	m["wire.bytes_per_user_byte"] = ratio(float64(traced.wireBytes), float64(traced.res.putBytes+traced.res.getBytes))
	m["wire.records_per_op"] = ratio(float64(traced.wireRecs), ops)
	hits, misses := c.counter("segshare_cache_hits_total"), c.counter("segshare_cache_misses_total")
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.evictions_per_kop"] = ratio(c.counter("segshare_cache_evictions_total"), ops) * 1e3
	dHit := c.counter("segshare_dedup_put_total", "result", "hit")
	m["dedup.hit_ratio"] = ratio(dHit, dHit+c.counter("segshare_dedup_put_total", "result", "miss"))
	depthSum, depthCount := c.hist("segshare_rollback_tree_update_depth")
	m["rollback.update_depth_mean"] = ratio(depthSum, depthCount)
	m["audit.records_per_op"] = ratio(c.counter("segshare_audit_records_total"), ops)
	m["audit.dropped"] = c.counter("segshare_audit_dropped_total")
	m["trace_overhead_ratio"] = ratio(
		float64(traced.res.completed())/traced.res.elapsed.Seconds(),
		float64(untraced.res.completed())/untraced.res.elapsed.Seconds())

	attribution := attribute(spec, &traced, m)
	var attributed float64
	for _, v := range attribution {
		attributed += v
	}
	meanRequestUs := ratio(float64(traced.rootTotal), ops) / 1e3
	m["unattributed_share"] = 1 - ratio(attributed, meanRequestUs)
	attribution["mean_request"] = meanRequestUs

	rep := &layerReport{
		Workload:    spec.Name,
		Seed:        seed,
		Host:        host,
		Config:      describeConfig(d.config, spec),
		TraceOps:    traceOps,
		Metrics:     make(map[string]layerMetric, len(perLayerMetrics)),
		Attribution: attribution,
	}
	for _, p := range []*tracedPass{&warm, &untraced, &traced, &cross} {
		rep.Attempted += p.res.attempted
		rep.Failed += p.res.failed
		rep.Errors = append(rep.Errors, p.res.errs...)
	}
	for _, r := range []*loopResult{&one, &all} {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		rep.Errors = append(rep.Errors, r.errs...)
	}
	for _, def := range perLayerMetrics {
		source := "trace"
		if _, ok := probes[def.Name]; ok {
			source = "probe"
		}
		rep.Metrics[def.Name] = layerMetric{Value: m[def.Name], Unit: def.Unit, Better: def.Better, Source: source, Moves: def.Moves}
	}
	return rep, traced.spans, nil
}

// attribute explains the mean request of pass T from outside: measured
// store time plus probe unit costs times traced counts, in µs per op. What
// it cannot explain is unattributed_share — handler, HTTP, scheduling,
// locks, allocation — the part only in-program tracing can name.
func attribute(spec workloadSpec, p *tracedPass, m map[string]float64) map[string]float64 {
	ops := float64(p.res.completed())
	perOp := func(total int64) float64 { return ratio(float64(total), ops) }

	// Per-byte unit costs from the probe nearest the object size.
	encUs, decUs := m["pfs.encrypt_4k_us"]/(4<<10), m["pfs.decrypt_4k_us"]/(4<<10)
	wireUs := m["enctls.echo_4k_us"] / (2 * (4 << 10)) // an echo crosses twice
	if spec.ObjectBytes >= 64<<10 {
		encUs, decUs = m["pfs.encrypt_1m_ms"]*1e3/(1<<20), m["pfs.decrypt_1m_ms"]*1e3/(1<<20)
		wireUs = m["enctls.stream_1m_ms"] * 1e3 / (2 * (1 << 20))
	}
	return map[string]float64{
		"store":        m["store.time_us_per_op"],
		"pfs_crypto":   perOp(p.res.putBytes)*encUs + perOp(p.res.getBytes)*decUs,
		"journal_seal": perOp(p.journalWritten) * m["pae.seal_4k_us"] / (4 << 10),
		"enctls":       perOp(p.wireBytes) * wireUs,
		"acl":          m["acl.authorize_us"] + 2*m["cache.get_hit_ns"]/1e3,
		"audit":        m["audit.records_per_op"] * m["audit.emit_us"],
	}
}
