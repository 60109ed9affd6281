package main

import (
	"errors"
	"regexp"
	"strings"
	"sync"
	"testing"

	"segshare"
)

// tiny shrinks a workload's corpus so a whole run fits in a second.
func tiny(spec workloadSpec) workloadSpec {
	spec.Dirs, spec.FilesPerDir = 2, 8
	return spec
}

func TestSpecMatchesTables(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if float64(spec.RunSeconds) != fullRunSeconds {
		t.Errorf("run_seconds = %d, fixed counts are sized for %v", spec.RunSeconds, fullRunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, declared, table []metricDef) {
		t.Helper()
		if len(declared) != len(table) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark has %d", kind, len(declared), len(table))
		}
		for i, d := range declared {
			want := table[i]
			want.Moves = "" // the interaction text lives in the Go table and the README only
			if d != want {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, benchmark %+v", kind, i, d, want)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndMetrics)
	compare("per_layer", spec.PerLayer, perLayerMetrics)

	// The builder's contract on names, units and bounds.
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	var setupBound, maxBound float64
	for _, m := range append(append([]metricDef{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q outside the allowed alphabet", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be declared with the largest bound (has %v, largest %v)", setupBound, maxBound)
	}
}

func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := endToEndRun(tiny(w), 7, 2, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 {
				t.Fatalf("%d of %d ops failed: %v", rep.Failed, rep.Attempted, rep.Errors)
			}
			res := rep.result()
			if len(res.Metrics) != len(endToEndMetrics) {
				t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(endToEndMetrics))
			}
			for _, def := range endToEndMetrics {
				got, ok := res.Metrics[def.Name]
				switch {
				case !ok:
					t.Errorf("metric %s not emitted", def.Name)
				case got.Unit != def.Unit:
					t.Errorf("metric %s: unit %q, declared %q", def.Name, got.Unit, def.Unit)
				case rep.Metrics[def.Name].Samples == 0:
					// A one-second run on a slow host (-race) may not reach an
					// op of every class; a full run collects hundreds.
					t.Logf("metric %s has no samples in this short run", def.Name)
				case got.Value <= 0:
					t.Errorf("metric %s = %v, end-to-end metrics must never be 0", def.Name, got.Value)
				}
			}
			if !rep.Config.Admission || !rep.Config.StoreResilience || !rep.Config.SLO || !rep.Config.Watchdog ||
				!rep.Config.Journal || !rep.Config.WideEvents || !rep.Config.RequestRegistry || rep.Config.HotK != 32 {
				t.Errorf("not the shipping-default configuration: %+v", rep.Config)
			}
		})
	}
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := streamHash(w, 42, 2, 5000), streamHash(w, 42, 2, 5000)
		if a != b {
			t.Errorf("%s: same seed gave op-stream hashes %x and %x", w.Name, a, b)
		}
		if c := streamHash(w, 43, 2, 5000); c == a {
			t.Errorf("%s: seeds 42 and 43 gave the same op stream", w.Name)
		}
	}
	g := newGenerator(workloads[0], 1, 0, filePermutation(1, workloads[0].files()))
	var counts [numClasses]int
	for i := 0; i < 20000; i++ {
		counts[g.next().Class]++
	}
	for class, pct := range []int{workloads[0].GetPct, workloads[0].PutPct, workloads[0].ACLPct} {
		if got := counts[class] * 100 / 20000; got < pct-2 || got > pct+2 {
			t.Errorf("class %s: %d%% of ops, mix says %d%%", classNames[class], got, pct)
		}
	}
}

func TestObjectsAreSelfDescribing(t *testing.T) {
	fill := newFiller(9, 4096)
	obj := make([]byte, 4096)
	fill.makeObject(obj, 17, 3)
	if err := verifyObject(obj, 17, 4096, false); err != nil {
		t.Fatalf("intact object rejected: %v", err)
	}
	if err := verifyObject(obj, 18, 4096, false); !errors.Is(err, errBadObject) {
		t.Errorf("object of file 17 accepted as file 18: %v", err)
	}
	obj[2000] ^= 1
	if err := verifyObject(obj, 17, 4096, false); !errors.Is(err, errBadObject) {
		t.Errorf("flipped bit not detected: %v", err)
	}
	obj[2000] ^= 1
	if err := verifyObject(obj[:4000], 17, 4096, false); !errors.Is(err, errBadObject) {
		t.Errorf("truncated object accepted: %v", err)
	}
	fill.makeObject(obj, poolIDBase+3, 0)
	if err := verifyObject(obj, 17, 4096, true); err != nil {
		t.Errorf("pool body rejected where pool bodies are in play: %v", err)
	}
	if err := verifyObject(obj, 17, 4096, false); !errors.Is(err, errBadObject) {
		t.Errorf("pool body accepted where none are written: %v", err)
	}
}

// checkTrace asserts the trace file's structural promises.
func checkTrace(t *testing.T, spans []span) {
	t.Helper()
	roots := make(map[uint64]span)
	ids := make(map[uint64]bool)
	for _, s := range spans {
		if ids[s.ID] {
			t.Errorf("span id %d used twice", s.ID)
		}
		ids[s.ID] = true
		if s.End < s.Start {
			t.Errorf("span %d (%s/%s) ends before it starts", s.ID, s.Layer, s.Name)
		}
		if s.Layer == "client" {
			if s.Parent != 0 || s.Req != s.ID {
				t.Errorf("root span %d: parent %d req %d", s.ID, s.Parent, s.Req)
			}
			roots[s.ID] = s
		}
	}
	if len(roots) == 0 {
		t.Fatal("no root spans recorded")
	}
	children := make(map[uint64]int64)
	for _, s := range spans {
		if s.Layer == "client" {
			continue
		}
		if s.Parent == 0 {
			if s.Layer != "audit" {
				t.Errorf("span %d (%s/%s) belongs to no request", s.ID, s.Layer, s.Name)
			}
			continue
		}
		root, ok := roots[s.Parent]
		if !ok {
			t.Errorf("span %d names parent %d, which is not a root", s.ID, s.Parent)
			continue
		}
		if s.Req != root.ID {
			t.Errorf("span %d: req %d, its root is %d", s.ID, s.Req, root.ID)
		}
		if s.Start < root.Start || s.End > root.End {
			t.Errorf("span %d (%s/%s) [%d,%d] lies outside its root [%d,%d]",
				s.ID, s.Layer, s.Name, s.Start, s.End, root.Start, root.End)
		}
		children[root.ID] += s.End - s.Start
	}
	for id, root := range roots {
		// One client, sequential store calls: the children cannot add up to
		// more than the root, i.e. self time is never negative.
		if self := (root.End - root.Start) - children[id]; self < 0 {
			t.Errorf("root %d (%s): self time %d ns", id, root.Name, self)
		}
	}
}

func TestTracedRun(t *testing.T) {
	for _, name := range []string{"small_direct", "full_tls"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			rep, spans, err := tracedRun(tiny(w), 11, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 {
				t.Fatalf("%d of %d ops failed: %v", rep.Failed, rep.Attempted, rep.Errors)
			}
			checkTrace(t, spans)
			res := rep.result()
			if len(res.Metrics) != len(perLayerMetrics) {
				t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(perLayerMetrics))
			}
			for _, def := range perLayerMetrics {
				got, ok := res.Metrics[def.Name]
				if !ok {
					t.Errorf("metric %s not emitted", def.Name)
				} else if got.Unit != def.Unit {
					t.Errorf("metric %s: unit %q, declared %q", def.Name, got.Unit, def.Unit)
				}
			}
			for _, mustBePositive := range []string{
				"pae.seal_4k_us", "enctls.echo_4k_us", "journal.commit_4k_us", "client.request_us",
				"core.direct_get_us", "store.ops_per_op", "journal.commits_per_op", "trace_overhead_ratio",
			} {
				if res.Metrics[mustBePositive].Value <= 0 {
					t.Errorf("%s = %v", mustBePositive, res.Metrics[mustBePositive].Value)
				}
			}
			if name == "full_tls" {
				for _, m := range []string{"audit.records_per_op", "rollback.update_depth_mean", "enclave.ecalls_per_op", "wire.records_per_op"} {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s = %v on the all-features TLS workload", m, res.Metrics[m].Value)
					}
				}
			} else if v := res.Metrics["enclave.ecalls_per_op"].Value; v != 0 {
				t.Errorf("direct workload crossed the bridge: enclave.ecalls_per_op = %v", v)
			}
		})
	}
}

// allowAll is a server stand-in whose authorization is stubbed to allow:
// it stores objects and memberships but never refuses a read.
type allowAll struct {
	mu      *sync.Mutex
	objects map[string][]byte
}

func (a allowAll) Upload(path string, content []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.objects[path] = append([]byte(nil), content...)
	return nil
}

func (a allowAll) Download(path string) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	data, ok := a.objects[path]
	if !ok {
		return nil, segshare.ErrNotFound
	}
	return data, nil
}

func (allowAll) AddUser(user, group string) error                   { return nil }
func (allowAll) RemoveUser(user, group string) error                { return nil }
func (allowAll) SetPermission(path, group, permission string) error { return nil }

func TestDenyProbeFailsTheRunWhenRevocationIsNotEnforced(t *testing.T) {
	spec := tiny(workloads[0])
	spec.GetPct, spec.PutPct, spec.ACLPct = 40, 20, 40
	d := &deployment{spec: spec, fill: newFiller(5, spec.ObjectBytes), clients: 1}
	fake := allowAll{mu: &sync.Mutex{}, objects: make(map[string][]byte)}
	body := make([]byte, spec.ObjectBytes)
	for f := 0; f < spec.files(); f++ {
		d.fill.makeObject(body, uint32(f), 0)
		_ = fake.Upload(filePath(spec, f), body)
	}
	d.fill.makeObject(body, probeFileID(spec, 0), 0)
	_ = fake.Upload(probePath(0), body)

	res := newLoop(d, 5, []session{fake}, []session{fake}).run(stopAfterOps(300))
	if res.failed == 0 {
		t.Fatal("a server that still serves a revoked member passed the run")
	}
	if len(res.errs) == 0 || !strings.Contains(res.errs[0], "revoked member read") {
		t.Errorf("failure not attributed to the deny probe: %v", res.errs)
	}
	// Every failure is a revocation step; reads, writes and grants pass.
	if gets := len(res.latencies[opGet]); gets == 0 {
		t.Error("no GET passed verification against the fake")
	}
	if want := int64(len(res.latencies[opACL])) / 2; res.failed < want-1 || res.failed > want+1 {
		t.Errorf("%d failures for %d passing ACL steps: want one failure per cycle", res.failed, len(res.latencies[opACL]))
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestRecordScannerCountsAcrossSplitReads(t *testing.T) {
	var stream []byte
	for _, n := range []int{1, 300, 16384, 0, 25} {
		stream = append(stream, 23, 3, 3, byte(n>>8), byte(n))
		stream = append(stream, make([]byte, n)...)
	}
	for _, chunk := range []int{1, 3, 7, 4096, len(stream)} {
		var s recordScanner
		var got int64
		for off := 0; off < len(stream); off += chunk {
			got += s.scan(stream[off:min(off+chunk, len(stream))])
		}
		if got != 5 {
			t.Errorf("chunk size %d: counted %d records, want 5", chunk, got)
		}
	}
}
