package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(root string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec benchmarkSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// quartiles returns Q1, median and Q3 by the method of Python's
// statistics.quantiles(values, n=4) (exclusive), which the driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := slices.Clone(values)
	slices.Sort(v)
	at := func(k int) float64 {
		m := len(v) + 1
		j := min(max(k*m/4, 1), len(v)-1)
		delta := k*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// selfTest is the A/A comparison: two interleaved sets of runs of this
// same binary, every workload, a fresh seed per run. It prints, per
// workload × end-to-end metric, both medians, the wider quartile spread
// and the relative worsening of the second set against the first, next to
// the bound declared in BENCHMARK.json; it fails on any breach. The same
// seeds go to both sets, so the two differ by run-to-run noise alone.
func selfTest(spec *benchmarkSpec, root string, runs int, seconds float64) error {
	if runs < 2 {
		return fmt.Errorf("--runs must be at least 2")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	// values[workload][metric][set] = one value per run
	values := make(map[string]map[string]*[2][]float64)
	for _, w := range spec.Workloads {
		values[w.Name] = make(map[string]*[2][]float64)
		for _, m := range spec.EndToEnd {
			values[w.Name][m.Name] = &[2][]float64{}
		}
	}
	for i := 0; i < runs; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range spec.Workloads {
				fmt.Fprintf(os.Stderr, "selftest: run %d/%d set %c %s\n", i+1, runs, 'A'+set, w.Name)
				res, err := childRun(self, root, w.Name, uint64(1000+i), seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, 1000+i, err)
				}
				for _, m := range spec.EndToEnd {
					mv, ok := res.Metrics[m.Name]
					if !ok {
						return fmt.Errorf("%s: metric %s missing from the result", w.Name, m.Name)
					}
					cell := values[w.Name][m.Name]
					cell[set] = append(cell[set], mv.Value)
				}
			}
		}
	}

	fmt.Printf("A/A self-test: 2 interleaved sets x %d runs x %.0f s, seeds 1000..%d\n", runs, seconds, 1000+runs-1)
	fmt.Printf("%-13s %-27s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "spread", "B vs A", "bound", "")
	breaches := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			cell := values[w.Name][m.Name]
			a1, a2, a3 := quartiles(cell[0])
			b1, b2, b3 := quartiles(cell[1])
			spread := max(ratio(a3-a1, a2), ratio(b3-b1, b2))
			worse := ratio(b2-a2, a2)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			// The driver holds every metric's median shift to the bound, and
			// every spread but set-up's.
			if worse > m.Bound || (m.Name != "setup_s" && spread > m.Bound) {
				verdict = "BREACH"
				breaches++
			} else if spread > m.Bound/3 {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("%-13s %-27s %12.4f %12.4f %7.1f%% %+7.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, a2, b2, 100*spread, 100*worse, 100*m.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d workload x metric pairs breach their bound on identical code", breaches)
	}
	return nil
}

// childRun executes one untraced run in a fresh process — as the driver
// does — and parses the last line of its output.
func childRun(self, root, workload string, seed uint64, seconds float64) (*result, error) {
	cmd := exec.Command(self,
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported %d failed operations", res.Failed)
	}
	return &res, nil
}
