// Command segshare-bench regenerates the paper's evaluation artifacts
// (DSN 2020 §VII-B): Fig. 3, Fig. 4, Fig. 5, the membership-latency
// experiment, the storage-overhead numbers, and two ablations. Output is
// a set of aligned tables, one series per paper line.
//
// Usage:
//
//	segshare-bench -exp all            # scaled defaults (minutes)
//	segshare-bench -exp fig3 -full     # paper-scale sizes (slow)
//	segshare-bench -exp fig5 -maxexp 14
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"segshare/internal/bench"
	"segshare/internal/netsim"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: fig3|memb0|fig4|fig5|storage|revoke-ablation|switchless|audit|e16|all")
		full       = flag.Bool("full", false, "use paper-scale parameters (slow)")
		runs       = flag.Int("runs", 0, "override runs per data point")
		maxExp     = flag.Int("maxexp", 0, "fig5: largest exponent x (paper: 14)")
		wan        = flag.Bool("wan", false, "simulate the paper's Azure inter-region link")
		metricsOut = flag.String("metrics-out", "", "write a JSON snapshot of the accumulated metrics (e.g. BENCH_metrics.json)")
		traceOut   = flag.String("trace-out", "", "capture every experiment's wide events and tail-sampled traces and write them as JSON (e.g. BENCH_traces.json)")
	)
	flag.Parse()
	if *traceOut != "" {
		bench.EnableTraceCapture()
	}
	if err := run(*exp, *full, *runs, *maxExp, *wan); err != nil {
		fmt.Fprintln(os.Stderr, "segshare-bench:", err)
		os.Exit(1)
	}
	if *metricsOut != "" {
		if err := bench.WriteMetricsJSON(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "segshare-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("\nmetrics snapshot written to %s\n", *metricsOut)
	}
	if *traceOut != "" {
		if err := bench.WriteTracesJSON(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "segshare-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("\nsampled traces written to %s\n", *traceOut)
	}
}

func run(exp string, full bool, runs, maxExp int, wan bool) error {
	network := netsim.Profile{}
	if wan {
		network = netsim.AzureInterRegion
	}
	all := exp == "all"
	ran := false
	if all || exp == "fig3" {
		ran = true
		if err := runFig3(full, runs, network); err != nil {
			return err
		}
	}
	if all || exp == "memb0" {
		ran = true
		if err := runMemb0(runs, network); err != nil {
			return err
		}
	}
	if all || exp == "fig4" {
		ran = true
		if err := runFig4(full, runs); err != nil {
			return err
		}
	}
	if all || exp == "fig5" {
		ran = true
		if err := runFig5(full, runs, maxExp); err != nil {
			return err
		}
	}
	if all || exp == "storage" {
		ran = true
		if err := runStorage(full); err != nil {
			return err
		}
	}
	if all || exp == "revoke-ablation" {
		ran = true
		if err := runRevocation(runs); err != nil {
			return err
		}
	}
	if all || exp == "switchless" {
		ran = true
		if err := runSwitchless(runs); err != nil {
			return err
		}
	}
	if all || exp == "audit" {
		ran = true
		if err := runAudit(runs); err != nil {
			return err
		}
	}
	if all || exp == "e16" {
		ran = true
		if err := runE16(full); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func table(header string, cols ...string) *tabwriter.Writer {
	fmt.Printf("\n== %s ==\n", header)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
	return w
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

func runFig3(full bool, runs int, network netsim.Profile) error {
	cfg := bench.DefaultFig3()
	cfg.Network = network
	if full {
		cfg.Sizes = []int{1 << 20, 10 << 20, 50 << 20, 100 << 20, 200 << 20}
	}
	if runs > 0 {
		cfg.Runs = runs
	}
	rows, err := bench.RunFig3(cfg)
	if err != nil {
		return err
	}
	w := table("Fig. 3 — up/download latency vs file size",
		"server", "size", "upload(mean)", "upload(std)", "download(mean)", "download(std)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Server, sizeLabel(r.SizeBytes),
			ms(r.Upload.Mean), ms(r.Upload.Std),
			ms(r.Download.Mean), ms(r.Download.Std))
	}
	return w.Flush()
}

func runMemb0(runs int, network netsim.Profile) error {
	if runs <= 0 {
		runs = 20
	}
	add, revoke, err := bench.RunMembershipFirstGroup(runs, network)
	if err != nil {
		return err
	}
	w := table("E2 — first-group membership latency (paper: 154.05 / 153.40 ms)",
		"operation", "mean", "std", "n")
	fmt.Fprintf(w, "add\t%s\t%s\t%d\n", ms(add.Mean), ms(add.Std), add.N)
	fmt.Fprintf(w, "revoke\t%s\t%s\t%d\n", ms(revoke.Mean), ms(revoke.Std), revoke.N)
	return w.Flush()
}

func runFig4(full bool, runs int) error {
	cfg := bench.DefaultFig4()
	if full {
		cfg.Counts = []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000}
		cfg.Runs = 50
	}
	if runs > 0 {
		cfg.Runs = runs
	}
	memb, err := bench.RunFig4Membership(cfg)
	if err != nil {
		return err
	}
	perm, err := bench.RunFig4Permission(cfg)
	if err != nil {
		return err
	}
	w := table("Fig. 4 — membership/permission add+revoke vs pre-existing count",
		"operation", "pre-existing", "mean", "std")
	for _, r := range append(memb, perm...) {
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\n", r.Op, r.Preexisting, ms(r.Latency.Mean), ms(r.Latency.Std))
	}
	return w.Flush()
}

func runFig5(full bool, runs, maxExp int) error {
	cfg := bench.DefaultFig5()
	if full {
		cfg.Exponents = []int{0, 2, 4, 6, 8, 10, 12, 14}
		cfg.Runs = 20
	}
	if maxExp > 0 {
		cfg.Exponents = nil
		for x := 0; x <= maxExp; x += 2 {
			cfg.Exponents = append(cfg.Exponents, x)
		}
	}
	if runs > 0 {
		cfg.Runs = runs
	}
	rows, err := bench.RunFig5(cfg)
	if err != nil {
		return err
	}
	w := table("Fig. 5 — 10kB up/download with rollback protection on/off",
		"structure", "rollback", "pre-existing files", "upload(mean)", "download(mean)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%v\t%d\t%s\t%s\n",
			r.Structure, r.Rollback, r.Files, ms(r.Upload.Mean), ms(r.Download.Mean))
	}
	return w.Flush()
}

func runStorage(full bool) error {
	cfg := bench.DefaultStorage()
	if full {
		cfg.FileSizes = []int{10 << 20, 200 << 20}
	}
	rows, err := bench.RunStorageOverhead(cfg)
	if err != nil {
		return err
	}
	w := table("E6 — storage overhead (paper: 1.05%–1.48%)",
		"plaintext", "ACL entries", "stored", "overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%s\t%.2f%%\n",
			sizeLabel(int(r.PlainBytes)), r.ACLEntries, sizeLabel(int(r.StoredBytes)), r.OverheadPct)
	}
	return w.Flush()
}

func runRevocation(runs int) error {
	cfg := bench.DefaultRevocation()
	if runs > 0 {
		cfg.Runs = runs
	}
	rows, err := bench.RunRevocationAblation(cfg)
	if err != nil {
		return err
	}
	w := table(fmt.Sprintf("E7 — revoking 1 of %d members sharing %d×%s files",
		cfg.Members, cfg.Files, sizeLabel(cfg.FileSize)),
		"system", "latency(mean)", "re-encrypted", "re-wrapped keys")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\n",
			r.System, ms(r.Latency.Mean), sizeLabel(int(r.ReencryptedBytes)), r.RewrappedKeys)
	}
	return w.Flush()
}

func runSwitchless(runs int) error {
	if runs <= 0 {
		runs = 10
	}
	rows, err := bench.RunSwitchlessAblation(1<<20, runs)
	if err != nil {
		return err
	}
	w := table("E8 — switchless vs blocking enclave transitions (1MiB upload)",
		"mode", "upload(mean)", "download(mean)", "transitions")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\n", r.Mode, ms(r.Upload.Mean), ms(r.Download.Mean), r.Transitions)
	}
	return w.Flush()
}

func runAudit(runs int) error {
	cfg := bench.DefaultAudit()
	if runs > 0 {
		cfg.Runs = runs
	}
	rows, err := bench.RunAuditOverhead(cfg)
	if err != nil {
		return err
	}
	w := table(fmt.Sprintf("E9 — audit-log overhead (%s payload)", sizeLabel(cfg.FileSize)),
		"audit", "upload(mean)", "download(mean)", "grant(mean)", "records", "drops", "bytes")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%d\t%d\n",
			r.Mode, ms(r.Upload.Mean), ms(r.Download.Mean), ms(r.Grant.Mean), r.Records, r.Drops, r.Bytes)
	}
	return w.Flush()
}

func runE16(full bool) error {
	cfg := bench.DefaultE16()
	if full {
		cfg.Window = 5 * time.Second
		cfg.BaseClients = 8
	}
	rows, err := bench.RunE16(cfg)
	if err != nil {
		return err
	}
	w := table(fmt.Sprintf("E16 — overload shedding, %dKiB GETs, %d-client capacity, %v/cell",
		cfg.FileKiB, cfg.BaseClients, cfg.Window),
		"load", "admission", "goodput", "p50", "p99", "ok", "shed", "errors")
	for _, r := range rows {
		onOff := "off"
		if r.Admission {
			onOff = "on"
		}
		fmt.Fprintf(w, "%s\t%s\t%.0f op/s\t%s\t%s\t%d\t%d\t%d\n",
			r.Load, onOff, r.Goodput, ms(r.P50), ms(r.P99), r.OK, r.Shed, r.Errors)
	}
	return w.Flush()
}

func sizeLabel(size int) string {
	switch {
	case size >= 1<<20:
		return fmt.Sprintf("%.4gMiB", float64(size)/float64(1<<20))
	case size >= 1<<10:
		return fmt.Sprintf("%.4gKiB", float64(size)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", size)
	}
}
