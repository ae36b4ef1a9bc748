// Command hammer-bench regenerates the paper's system experiments: Fig 1
// (workload temporal distributions), Fig 6 (chain comparison), Fig 7
// (framework comparison), Fig 8 (signing strategies), Fig 9 (task
// processing vs batch testing), Fig 10 (concurrency sweeps), the §V-C
// correctness validation and the distributed-matching microbenchmark. Each
// experiment prints its rows, renders a terminal chart, and exports a CSV
// under -out. Sweeps run through the experiment harness: -parallel bounds
// how many independent simulations execute concurrently (results are
// identical at any worker count), and every run completion prints a
// progress line.
//
// Usage:
//
//	hammer-bench -exp all
//	hammer-bench -exp fig9 -out results/
//	hammer-bench -exp fig6 -quick -parallel 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"hammer/internal/experiments"
	"hammer/internal/harness"
	"hammer/internal/monitor"
	"hammer/internal/perf"
	"hammer/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hammer-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp        = flag.String("exp", "all", "experiment: fig1|fig6|fig7|fig8|fig9|fig10|correctness|distributed|all, plus faults, families, conformance and blockbench (explicit only); 'list' prints them all")
		quick      = flag.Bool("quick", false, "shrink workloads for a fast smoke run")
		outDir     = flag.String("out", "results", "directory for CSV export")
		seed       = flag.Int64("seed", 7, "random seed")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for experiment sweeps (results are identical at any value)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		stateKind  = flag.String("state", "mem", "world-state backend every SUT run mounts: mem (in-RAM map) | paged (disk-backed paged store); results are byte-identical")
		stateCache = flag.Int("state-cache-mb", 0, "page-cache budget per paged state instance in MiB (0 = store default, 64)")
		stateDir   = flag.String("state-dir", "", "directory for paged-state files (default: OS temp); run files are removed afterwards")
		crossRate  = flag.Float64("cross-rate", 0, "cross-shard transfer fraction for -exp families (0 = the 0.2 default)")
	)
	flag.Parse()
	if err := experiments.ValidateStateBackend(*stateKind); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *cpuprofile != "" {
		stopProf, err := perf.StartCPUProfile(*cpuprofile)
		if err != nil {
			return err
		}
		defer stopProf()
	}

	reg := monitor.NewRegistry()
	opts := experiments.Default()
	if *quick {
		opts = experiments.Quick()
	}
	opts.Seed = *seed
	opts.Workers = *parallel
	opts.StateBackend = *stateKind
	opts.StateCacheMB = *stateCache
	opts.StateDir = *stateDir
	opts.CrossShardRate = *crossRate
	opts.States = experiments.NewStateRuntime()
	defer opts.States.Close()
	opts.OnProgress = progressPrinter(reg)

	selected := strings.Split(*exp, ",")
	// want matches a step asked for by name, or by "all" unless the step is
	// explicit-only.
	want := func(name string, explicit bool) bool {
		for _, s := range selected {
			if s == name || s == "all" && !explicit {
				return true
			}
		}
		return false
	}

	type step struct {
		name string
		// explicit marks a step that is not a paper figure, so "all" does
		// not include it: faults and families are resilience studies,
		// conformance a correctness suite, blockbench a framework-scale
		// workload.
		explicit bool
		fn       func() error
	}
	steps := []step{
		{"fig1", false, func() error { return runFig1(opts, *outDir) }},
		{"fig6", false, func() error { return runFig6(ctx, opts, *outDir) }},
		{"fig7", false, func() error { return runFig7(ctx, opts, *outDir) }},
		{"fig8", false, func() error { return runFig8(opts, *outDir) }},
		{"fig9", false, func() error { return runFig9(opts, *outDir) }},
		{"fig10", false, func() error { return runFig10(ctx, opts, *outDir) }},
		{"correctness", false, func() error { return runCorrectness(ctx, opts) }},
		{"distributed", false, func() error { return runDistributed(ctx, opts, *outDir) }},
		{"faults", true, func() error { return runFaults(ctx, opts, *outDir) }},
		{"families", true, func() error { return runFamilies(ctx, opts, *outDir) }},
		{"conformance", true, func() error { return runConformance(ctx, opts, *outDir) }},
		{"blockbench", true, func() error { return runBlockbench(ctx, opts, *outDir) }},
	}

	if want("list", true) {
		fmt.Println("experiments (-exp name, comma-separated; 'all' runs the paper figures):")
		for _, s := range steps {
			if s.explicit {
				fmt.Printf("  %s (explicit only)\n", s.name)
			} else {
				fmt.Printf("  %s\n", s.name)
			}
		}
		return nil
	}

	ran := 0
	for _, s := range steps {
		if !want(s.name, s.explicit) {
			continue
		}
		fmt.Printf("=== %s ===\n", s.name)
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		known := []string{"all", "list"}
		for _, s := range steps {
			known = append(known, s.name)
		}
		if hint := experiments.Suggest(*exp, known); hint != "" {
			return fmt.Errorf("unknown experiment %q (did you mean %q? -exp list shows all)", *exp, hint)
		}
		return fmt.Errorf("unknown experiment %q (-exp list shows all)", *exp)
	}
	if done := reg.Counter("harness/runs_completed").Value(); done > 0 {
		fmt.Printf("harness: %.0f runs completed, %.0f failed (workers=%d)\n",
			done, reg.Counter("harness/runs_failed").Value(), *parallel)
	}
	if *memprofile != "" {
		if err := perf.WriteHeapProfile(*memprofile); err != nil {
			return err
		}
	}
	return nil
}

// runFaults runs the chaos resilience experiment: every chain through the
// crash-and-heal and partition-and-heal scenarios, reporting the TPS dip,
// the recovery time, and how many transactions the driver's retries saved.
func runFaults(ctx context.Context, opts experiments.Options, outDir string) error {
	rows, err := experiments.Faults(ctx, opts)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	faultSec := opts.MeasureSeconds / 3
	healSec := 2 * opts.MeasureSeconds / 3
	fmt.Printf("fault injected at t=%ds, healed at t=%ds\n", faultSec, healSec)
	header, csvRows := experiments.FaultsCSV(rows)
	tlHeader, tlRows := experiments.FaultsTimelineCSV(rows)
	return viz.Export(os.Stdout, outDir,
		viz.Dataset{Name: "faults_resilience.csv", Header: header, Rows: csvRows},
		viz.Dataset{Name: "faults_timeline.csv", Header: tlHeader, Rows: tlRows})
}

// runFamilies sweeps the two consensus families along their scale axis —
// Meepo across shard counts, the BFT committee across committee sizes — with
// a healthy, a crash-and-heal, and an N-way-partition scenario per point.
func runFamilies(ctx context.Context, opts experiments.Options, outDir string) error {
	rows, err := experiments.Families(ctx, opts)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	faultSec := opts.MeasureSeconds / 3
	healSec := 2 * opts.MeasureSeconds / 3
	fmt.Printf("fault scenarios injected at t=%ds, healed at t=%ds\n", faultSec, healSec)
	header, csvRows := experiments.FamiliesCSV(rows)
	tlHeader, tlRows := experiments.FamiliesTimelineCSV(rows)
	return viz.Export(os.Stdout, outDir,
		viz.Dataset{Name: "families.csv", Header: header, Rows: csvRows},
		viz.Dataset{Name: "families_timeline.csv", Header: tlHeader, Rows: tlRows})
}

// runConformance sweeps every chain through the invariant and conformance
// suites (semantic invariants, bitwise determinism, serial replay, harness
// worker independence, and the scheduler differential oracle) and fails if
// any suite fails.
func runConformance(ctx context.Context, opts experiments.Options, outDir string) error {
	rows, err := experiments.Conformance(ctx, opts)
	if err != nil {
		return err
	}
	failed := 0
	for _, r := range rows {
		fmt.Println(r)
		if !r.Pass {
			failed++
		}
	}
	header, csvRows := experiments.ConformanceCSV(rows)
	if err := viz.Export(os.Stdout, outDir, viz.Dataset{Name: "conformance.csv", Header: header, Rows: csvRows}); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d conformance suites failed", failed, len(rows))
	}
	fmt.Printf("all %d conformance suites passed\n", len(rows))
	return nil
}

// progressPrinter emits one line per completed harness run and mirrors the
// totals into monitor counters so the final summary (and any scraper) sees
// the sweep's run counts.
func progressPrinter(reg *monitor.Registry) func(harness.Progress) {
	return func(p harness.Progress) {
		reg.Counter("harness/runs_completed").Inc()
		status := "ok"
		if p.Err != nil {
			reg.Counter("harness/runs_failed").Inc()
			status = "FAILED"
		}
		fmt.Printf("  [%d/%d] %-40s %s (%v)\n", p.Completed, p.Total, p.Name, status, p.Elapsed.Round(time.Millisecond))
	}
}

func runFig1(opts experiments.Options, outDir string) error {
	r, err := experiments.Fig1(opts)
	if err != nil {
		return err
	}
	for _, name := range []string{"defi", "sandbox", "nfts"} {
		fmt.Printf("%-8s %7d transactions over 300 h\n", name, r.Totals[name])
	}
	viz.LineChart(os.Stdout, "hourly transactions (normalised overlay)", fig1Overlay(r), 72, 14)
	header, rows := experiments.Fig1CSV(r)
	return viz.Export(os.Stdout, outDir, viz.Dataset{Name: "fig1_temporal_distribution.csv", Header: header, Rows: rows})
}

// fig1Overlay rescales each series to [0,1] so the three applications
// overlay on one chart despite their 100× volume differences.
func fig1Overlay(r *experiments.Fig1Result) []viz.Series {
	var out []viz.Series
	for _, name := range []string{"defi", "sandbox", "nfts"} {
		src := r.Series[name]
		var max float64
		for _, v := range src {
			if v > max {
				max = v
			}
		}
		scaled := make([]float64, len(src))
		for i, v := range src {
			if max > 0 {
				scaled[i] = v / max
			}
		}
		out = append(out, viz.Series{Name: name, Y: scaled})
	}
	return out
}

func runFig6(ctx context.Context, opts experiments.Options, outDir string) error {
	rows, err := experiments.Fig6(ctx, opts)
	if err != nil {
		return err
	}
	var groups []viz.BarGroup
	for _, r := range rows {
		fmt.Println(r)
		groups = append(groups, viz.BarGroup{Label: r.Chain, Values: []float64{r.Throughput}})
	}
	viz.BarChart(os.Stdout, "peak throughput (TPS)", []string{""}, groups, 48)
	header, csvRows := experiments.Fig6CSV(rows)
	return viz.Export(os.Stdout, outDir, viz.Dataset{Name: "fig6_chain_comparison.csv", Header: header, Rows: csvRows})
}

func runFig7(ctx context.Context, opts experiments.Options, outDir string) error {
	rows, err := experiments.Fig7(ctx, opts)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	header, csvRows := experiments.Fig7CSV(rows)
	return viz.Export(os.Stdout, outDir, viz.Dataset{Name: "fig7_framework_comparison.csv", Header: header, Rows: csvRows})
}

func runFig8(opts experiments.Options, outDir string) error {
	fmt.Println("measured on this machine:")
	rows, err := experiments.Fig8(opts)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(" ", r)
	}
	header, csvRows := experiments.Fig8CSV(rows)

	fmt.Println("simulated 8-worker testbed (per-signature cost calibrated on this machine):")
	simRows, err := experiments.Fig8Simulated(opts, 8, 0)
	if err != nil {
		return err
	}
	for _, r := range simRows {
		fmt.Println(" ", r)
	}
	simHeader, simCSV := experiments.Fig8SimCSV(simRows)
	return viz.Export(os.Stdout, outDir,
		viz.Dataset{Name: "fig8_signing_measured.csv", Header: header, Rows: csvRows},
		viz.Dataset{Name: "fig8_signing_simulated.csv", Header: simHeader, Rows: simCSV})
}

func runFig9(opts experiments.Options, outDir string) error {
	rows, err := experiments.Fig9(opts)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	header, csvRows := experiments.Fig9CSV(rows)
	return viz.Export(os.Stdout, outDir, viz.Dataset{Name: "fig9_task_processing.csv", Header: header, Rows: csvRows})
}

func runFig10(ctx context.Context, opts experiments.Options, outDir string) error {
	rows, err := experiments.Fig10(ctx, opts)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	header, csvRows := experiments.Fig10CSV(rows)
	return viz.Export(os.Stdout, outDir, viz.Dataset{Name: "fig10_concurrency.csv", Header: header, Rows: csvRows})
}

func runDistributed(ctx context.Context, opts experiments.Options, outDir string) error {
	rows, err := experiments.Distributed(ctx, opts, []int{1, 2, 4, 8}, 10000)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	header, csvRows := experiments.DistributedCSV(rows)
	return viz.Export(os.Stdout, outDir, viz.Dataset{Name: "distributed_matching.csv", Header: header, Rows: csvRows})
}

func runCorrectness(ctx context.Context, opts experiments.Options) error {
	res, err := experiments.Correctness(ctx, opts)
	if err != nil {
		return err
	}
	fmt.Println(res)
	if !res.Audit.Consistent() {
		return fmt.Errorf("framework statistics do not match the node audit log")
	}
	fmt.Println("framework statistics match the node-side commit log exactly")
	return nil
}

// runBlockbench runs the BLOCKBENCH micro-workloads (IOHeavy, Analytics,
// DoNothing) on both state backends; identical mem/paged rows per workload
// are the storage-identity check, and the paged rows carry the cache
// economics.
func runBlockbench(ctx context.Context, opts experiments.Options, outDir string) error {
	rows, err := experiments.Blockbench(ctx, opts)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	header, csvRows := experiments.BlockbenchCSV(rows)
	return viz.Export(os.Stdout, outDir,
		viz.Dataset{Name: "blockbench.csv", Header: header, Rows: csvRows})
}
