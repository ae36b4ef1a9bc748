// Command hammer-predict trains and evaluates the workload-prediction
// models of §IV: Table III (five methods × three datasets), Fig 11
// (real-vs-generated sequences) and the attention ablation. Sweeps run
// through the experiment harness: -parallel bounds how many model trainings
// execute concurrently (results are identical at any worker count).
//
// Usage:
//
//	hammer-predict -exp table3
//	hammer-predict -exp fig11 -out results/
//	hammer-predict -exp ablation -quick
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
	"hammer/internal/models"
	"hammer/internal/perf"
	"hammer/internal/timeseries"
	"hammer/internal/timeseries/datasets"
	"hammer/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hammer-predict:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp        = flag.String("exp", "table3", "experiment: table3|fig11|ablation|all; 'list' prints them all")
		quick      = flag.Bool("quick", false, "shrink training budgets for a fast smoke run")
		outDir     = flag.String("out", "results", "directory for CSV export")
		seed       = flag.Int64("seed", 7, "random seed")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for experiment sweeps (results are identical at any value)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *cpuprofile != "" {
		stopProf, err := perf.StartCPUProfile(*cpuprofile)
		if err != nil {
			return err
		}
		defer stopProf()
	}

	opts := experiments.Default()
	if *quick {
		opts = experiments.Quick()
	}
	opts.Seed = *seed
	opts.Workers = *parallel
	opts.OnProgress = func(p harness.Progress) {
		status := "ok"
		if p.Err != nil {
			status = "FAILED"
		}
		fmt.Printf("  [%d/%d] %-30s %s (%v)\n", p.Completed, p.Total, p.Name, status, p.Elapsed.Round(time.Millisecond))
	}

	selected := strings.Split(*exp, ",")
	want := func(name string) bool {
		for _, s := range selected {
			if s == "all" || s == name {
				return true
			}
		}
		return false
	}

	ran := 0
	steps := []struct {
		name  string
		title string
		fn    func() error
	}{
		{"table3", "=== Table III: model comparison ===", func() error { return runTable3(ctx, opts, *outDir) }},
		{"fig11", "=== Fig 11: real vs generated sequences ===", func() error { return runFig11(ctx, opts, *outDir) }},
		{"ablation", "=== Ablation: multi-head attention ===", func() error { return runAblation(opts) }},
	}

	if len(selected) == 1 && selected[0] == "list" {
		fmt.Println("experiments (-exp name, comma-separated; 'all' runs everything):")
		for _, s := range steps {
			fmt.Printf("  %s\n", s.name)
		}
		return nil
	}

	for _, s := range steps {
		if !want(s.name) {
			continue
		}
		fmt.Println(s.title)
		if err := s.fn(); err != nil {
			return err
		}
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
	if *memprofile != "" {
		if err := perf.WriteHeapProfile(*memprofile); err != nil {
			return err
		}
	}
	return nil
}

func runTable3(ctx context.Context, opts experiments.Options, outDir string) error {
	rows, err := experiments.Table3(ctx, opts)
	if err != nil {
		return err
	}
	header := []string{"Dataset", "Method", "MAE", "MSE", "RMSE", "R2"}
	var tbl [][]string
	for _, r := range rows {
		tbl = append(tbl, []string{
			r.Dataset, r.Method,
			fmt.Sprintf("%.3f", r.Metrics.MAE), fmt.Sprintf("%.3f", r.Metrics.MSE),
			fmt.Sprintf("%.3f", r.Metrics.RMSE), fmt.Sprintf("%.4f", r.Metrics.R2),
		})
	}
	viz.Table(os.Stdout, header, tbl)
	csvHeader, csvRows := experiments.Table3CSV(rows)
	return viz.Export(os.Stdout, outDir, viz.Dataset{Name: "table3_model_comparison.csv", Header: csvHeader, Rows: csvRows})
}

func runFig11(ctx context.Context, opts experiments.Options, outDir string) error {
	rows, err := experiments.Fig11(ctx, opts)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%s: one-step MAE %.2f over %d held-out hours\n", r.Dataset, r.OneStepMAE, len(r.Real))
		viz.LineChart(os.Stdout, fmt.Sprintf("%s: real vs generated", r.Dataset), []viz.Series{
			{Name: "real", Y: r.Real},
			{Name: "generated", Y: r.Generated},
			{Name: "one-step", Y: r.OneStep},
		}, 72, 12)
		header, csvRows := experiments.Fig11CSV(r)
		if err := viz.Export(os.Stdout, outDir, viz.Dataset{Name: fmt.Sprintf("fig11_%s.csv", r.Dataset), Header: header, Rows: csvRows}); err != nil {
			return err
		}
	}
	return nil
}

func runAblation(opts experiments.Options) error {
	cfg := models.DefaultConfig()
	cfg.Epochs = opts.ModelEpochs
	cfg.Lookback = opts.ModelLookback
	cfg.Hidden = opts.ModelHidden
	cfg.Seed = opts.Seed
	for _, log := range datasets.All(opts.Seed) {
		series := log.HourlySeries()
		train, _ := timeseries.Split(series, 0.8)
		for _, mb := range []struct {
			name  string
			build func(models.Config) models.Predictor
		}{
			{"with-attention", models.NewHammer},
			{"no-attention", models.NewHammerNoAttention},
		} {
			p := mb.build(cfg)
			if err := p.Fit(train); err != nil {
				return err
			}
			m, err := models.EvaluateNormalized(p, series, len(train))
			if err != nil {
				return err
			}
			fmt.Printf("%-8s %-15s %s\n", log.Name, mb.name, m)
		}
	}
	return nil
}
