// Command benchmark is the repository's performance ledger: it builds an
// in-process SeGShare deployment with the options cmd/segshare-server
// enables by default, preloads a corpus, drives a seeded closed loop,
// verifies every reply, and prints every metric by name. See README.md.
//
//	bash benchmark/run.sh --workload small_tls --seed 1 --seconds 24 --trace 0
//	bash benchmark/run.sh --workload small_tls --seed 1 --seconds 24 --trace 1
//	bash benchmark/run.sh --selftest
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload to run: small_tls | small_direct | bulk_tls | full_tls")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same op streams and object bytes")
		seconds  = flag.Float64("seconds", 0, "measured phase in seconds (default: run_seconds of BENCHMARK.json; shorter for smoke tests only)")
		trace    = flag.Int("trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run + layer probes, per-layer metrics")
		outDir   = flag.String("out", "", "directory for result/trace/layers files (default: benchmark/out next to BENCHMARK.json)")
		selftest = flag.Bool("selftest", false, "A/A noise self-test: two interleaved sets of runs of this binary, compared against the BENCHMARK.json bounds")
		runs     = flag.Int("runs", 5, "selftest: runs per set and workload")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	if *outDir == "" {
		*outDir = filepath.Join(root, "benchmark", "out")
	}
	declared, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = float64(declared.RunSeconds)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *selftest {
		return selfTest(declared, root, *runs, *seconds)
	}
	spec, err := workloadByName(*workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	// Load model: C = nproc closed-loop clients, generator and server in
	// one process on GOMAXPROCS = nproc.
	clients := runtime.NumCPU()
	runtime.GOMAXPROCS(clients)

	var res result
	switch *trace {
	case 0:
		rep, err := endToEndRun(spec, *seed, clients, *seconds, setupRepeats)
		if err != nil {
			return err
		}
		rep.print(os.Stdout)
		if err := writeJSON(filepath.Join(*outDir, "result-"+spec.Name+".json"), rep); err != nil {
			return err
		}
		res = rep.result()
	case 1:
		rep, spans, err := tracedRun(spec, *seed, clients, *seconds)
		if err != nil {
			return err
		}
		rep.print(os.Stdout)
		if err := writeJSON(filepath.Join(*outDir, "layers-"+spec.Name+".json"), rep); err != nil {
			return err
		}
		tf := traceFile{Workload: spec.Name, Seed: *seed, Spans: spans}
		if err := writeJSON(filepath.Join(*outDir, "trace-"+spec.Name+".json"), tf); err != nil {
			return err
		}
		res = rep.result()
	default:
		return fmt.Errorf("--trace must be 0 or 1")
	}

	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed verification", res.Failed, res.Attempted)
	}
	return nil
}

// result is the last line of standard output, in the shape the driver
// reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// findRoot locates the checkout root — the directory holding
// BENCHMARK.json — from the working directory or its parent, so the
// binary works from the root (the driver, run.sh) and from benchmark/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root")
}

// --- the untraced run: end-to-end metrics ------------------------------

// setupRepeats is how many times one run builds the whole deployment;
// setup_s is the median, and the measured phase uses the last build.
const setupRepeats = 3

// e2eReport is what an untraced run writes to result-<workload>.json.
type e2eReport struct {
	Workload  string               `json:"workload"`
	Why       string               `json:"why"`
	Seed      uint64               `json:"seed"`
	Seconds   float64              `json:"measured_seconds"`
	Host      hostShape            `json:"host"`
	Config    effectiveConfig      `json:"config"`
	Load      string               `json:"load_model"`
	Setups    []float64            `json:"setup_seconds"`
	Attempted int64                `json:"attempted_ops"`
	Failed    int64                `json:"failed_ops"`
	Errors    []string             `json:"errors,omitempty"`
	Metrics   map[string]e2eMetric `json:"metrics"`
}

type e2eMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples"`
}

func endToEndRun(spec workloadSpec, seed uint64, clients int, seconds float64, setups int) (*e2eReport, error) {
	host := newHostShape(clients)
	host.SHA256Pre = calibrate(seconds)

	var d *deployment
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if d != nil {
			d.Close()
			d = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if d, err = deploy(spec, seed, clients, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer d.Close()

	res := newLoop(d, seed, d.owners, d.spares).run(stopAfter(time.Duration(seconds * float64(time.Second))))
	stored, err := d.storedBytes()
	if err != nil {
		return nil, err
	}
	host.SHA256Post = calibrate(seconds)

	sorted := slices.Clone(setupTimes)
	slices.Sort(sorted)
	done := res.completed()
	values := map[string]float64{
		"setup_s":                    sorted[len(sorted)/2],
		"ops_per_s":                  float64(done) / res.elapsed.Seconds(),
		"get_p50_ms":                 quantileNs(res.latencies[opGet], 0.50) / 1e6,
		"get_p99_ms":                 quantileNs(res.latencies[opGet], 0.99) / 1e6,
		"put_p50_ms":                 quantileNs(res.latencies[opPut], 0.50) / 1e6,
		"put_p99_ms":                 quantileNs(res.latencies[opPut], 0.99) / 1e6,
		"acl_p50_ms":                 quantileNs(res.latencies[opACL], 0.50) / 1e6,
		"cpu_ms_per_op":              ratio(float64(res.cpu)/1e6, float64(done)),
		"alloc_kib_per_op":           ratio(float64(res.allocBytes)/1024, float64(done)),
		"stored_bytes_per_user_byte": ratio(float64(stored), float64(d.livePlaintextBytes())),
	}
	samples := map[string]int64{
		"setup_s":    int64(len(setupTimes)),
		"get_p50_ms": int64(len(res.latencies[opGet])), "get_p99_ms": int64(len(res.latencies[opGet])),
		"put_p50_ms": int64(len(res.latencies[opPut])), "put_p99_ms": int64(len(res.latencies[opPut])),
		"acl_p50_ms": int64(len(res.latencies[opACL])),
	}
	rep := &e2eReport{
		Workload: spec.Name, Why: spec.Why, Seed: seed, Seconds: res.elapsed.Seconds(),
		Host: host, Config: describeConfig(d.config, spec),
		Load: fmt.Sprintf("closed loop, %d clients, mix get/put/acl %d/%d/%d, Zipf(s=%.1f) over %d dirs x %d files of %d B",
			clients, spec.GetPct, spec.PutPct, spec.ACLPct, zipfS, spec.Dirs, spec.FilesPerDir, spec.ObjectBytes),
		Setups:    setupTimes,
		Attempted: res.attempted, Failed: res.failed, Errors: res.errs,
		Metrics: make(map[string]e2eMetric, len(endToEndMetrics)),
	}
	for _, def := range endToEndMetrics {
		n, ok := samples[def.Name]
		if !ok {
			n = done
		}
		rep.Metrics[def.Name] = e2eMetric{Value: values[def.Name], Unit: def.Unit, Samples: n}
	}
	return rep, nil
}

func (r *e2eReport) result() result {
	out := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]resultValue)}
	for name, m := range r.Metrics {
		out.Metrics[name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	return out
}

func (r *layerReport) result() result {
	out := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]resultValue)}
	for name, m := range r.Metrics {
		out.Metrics[name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	return out
}

func printHeader(w io.Writer, workload string, seed uint64, host hostShape, cfg effectiveConfig) {
	fmt.Fprintf(w, "workload %s  seed %d\n", workload, seed)
	fmt.Fprintf(w, "host     nproc=%d GOMAXPROCS=%d clients=%d %s %s/%s  sha256 %.0f -> %.0f MiB/s\n",
		host.NumCPU, host.GOMAXPROCS, host.Clients, host.GoVersion, host.GOOS, host.GOARCH, host.SHA256Pre, host.SHA256Post)
	fmt.Fprintf(w, "config   journal=%v admission=%v store-resilience=%v slo=%v watchdog=%v hot-k=%d request-registry=%v wide-events=%v audit=%v\n",
		cfg.Journal, cfg.Admission, cfg.StoreResilience, cfg.SLO, cfg.Watchdog, cfg.HotK, cfg.RequestRegistry, cfg.WideEvents, cfg.Audit)
	fmt.Fprintf(w, "         features=%+v  %s  %s  request log: %s\n", cfg.Features, cfg.Stores, cfg.Network, cfg.RequestLog)
}

func (r *e2eReport) print(w io.Writer) {
	printHeader(w, r.Workload, r.Seed, r.Host, r.Config)
	fmt.Fprintf(w, "load     %s, %.1f s measured, set-up x%d %.3v s\n", r.Load, r.Seconds, len(r.Setups), r.Setups)
	for _, def := range endToEndMetrics {
		m := r.Metrics[def.Name]
		fmt.Fprintf(w, "  %-28s %14.4f %-7s n=%d\n", def.Name, m.Value, m.Unit, m.Samples)
	}
	printFailures(w, r.Attempted, r.Failed, r.Errors)
}

func (r *layerReport) print(w io.Writer) {
	printHeader(w, r.Workload, r.Seed, r.Host, r.Config)
	fmt.Fprintf(w, "traced   one client, %d ops per pass; layer probes: median of %d batches\n", r.TraceOps, probeBatches)
	for _, def := range perLayerMetrics {
		m := r.Metrics[def.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s %s\n", def.Name, m.Value, m.Unit, m.Source)
	}
	printFailures(w, r.Attempted, r.Failed, r.Errors)
}

func printFailures(w io.Writer, attempted, failed int64, errs []string) {
	fmt.Fprintf(w, "  attempted_ops %d  failed_ops %d\n", attempted, failed)
	for _, e := range errs {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}
