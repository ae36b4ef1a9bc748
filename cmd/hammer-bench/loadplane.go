package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hammer/internal/experiments"
	"hammer/internal/loadplane"
	"hammer/internal/metrics"
	"hammer/internal/viz"
)

// lpFlags carries the load-plane experiment's CLI knobs.
type lpFlags struct {
	listen  string // serve the coordinator here for external workers; "" = in-process
	workers int    // partition count (and shard count when in-process)
	clients int    // population for the single-spec modes; 0 = run the scale sweep
	seconds int    // virtual duration of the single-spec modes
}

// runLoadPlane runs one of three shapes, selected by the -lp-* flags:
//
//   - default: the scale sweep (open- vs closed-loop at each population in
//     Options.LoadClients) plus the chain-driving demo;
//   - -lp-clients N: one in-process run of the canonical spec, writing
//     loadplane_merged.csv — the CI smoke's golden;
//   - -lp-clients N -lp-listen ADDR: serve the coordinator for -lp-workers
//     external hammer-worker processes and write the identically named CSV
//     from the distributed merge. Byte-comparing the two files is the
//     determinism check.
func runLoadPlane(ctx context.Context, opts experiments.Options, outDir string, lp lpFlags) error {
	if lp.clients > 0 {
		return runLoadPlaneMerged(ctx, opts, outDir, lp)
	}
	return runLoadPlaneSweep(ctx, opts, outDir)
}

// runLoadPlaneSweep prints and exports the scale comparison and the
// driver demo.
func runLoadPlaneSweep(ctx context.Context, opts experiments.Options, outDir string) error {
	rows, err := experiments.LoadPlane(ctx, opts)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(r)
	}
	fmt.Println("open-loop exposes the drop rate and latency climb that closed-loop feedback hides")

	driveRows, err := experiments.LoadPlaneDrive(ctx, opts)
	if err != nil {
		return err
	}
	for _, r := range driveRows {
		fmt.Println(r)
	}

	header, csvRows := experiments.LoadPlaneCSV(rows)
	driveHeader, driveCSV := experiments.LoadPlaneDriveCSV(driveRows)
	return viz.Export(os.Stdout, outDir,
		viz.Dataset{Name: "loadplane_scale.csv", Header: header, Rows: csvRows},
		viz.Dataset{Name: "loadplane_drive.csv", Header: driveHeader, Rows: driveCSV})
}

// runLoadPlaneMerged produces loadplane_merged.csv for the canonical spec —
// in-process when -lp-listen is empty, via the distributed control plane
// otherwise. Both paths must emit identical bytes.
func runLoadPlaneMerged(ctx context.Context, opts experiments.Options, outDir string, lp lpFlags) error {
	if lp.workers < 1 {
		lp.workers = 2
	}
	seconds := lp.seconds
	if seconds <= 0 {
		seconds = opts.MeasureSeconds
	}
	spec := experiments.LoadPlaneSpec(lp.clients, opts.Seed, seconds)

	start := time.Now()
	var (
		series []metrics.Window
		mode   string
	)
	if lp.listen == "" {
		mode = fmt.Sprintf("in-process (%d shards)", lp.workers)
		got, err := loadplane.InProcess(ctx, spec, lp.workers)
		if err != nil {
			return err
		}
		series = got
	} else {
		mode = fmt.Sprintf("distributed (%d workers at %s)", lp.workers, lp.listen)
		coord, err := loadplane.NewCoordinator(loadplane.CoordinatorConfig{
			Spec:        spec,
			Workers:     lp.workers,
			Liveness:    30 * time.Second,
			RecoverLost: true,
		})
		if err != nil {
			return err
		}
		addr, err := coord.Listen(lp.listen)
		if err != nil {
			return err
		}
		defer coord.Close()
		fmt.Printf("coordinator listening on %s for %d workers (%d clients, %d windows)\n",
			addr, lp.workers, spec.Clients, spec.Windows())
		got, err := coord.Wait(ctx)
		if err != nil {
			return err
		}
		if lost := coord.Lost(); len(lost) > 0 {
			fmt.Printf("recovered %d lost range(s) locally: %v\n", len(lost), lost)
		}
		series = got
	}
	csv, err := loadplane.MergedCSV(spec, series)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "loadplane_merged.csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		return err
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	fmt.Printf("%s: %d clients, %d windows merged in %v, heap %d MB; wrote %s\n",
		mode, spec.Clients, len(series), time.Since(start).Round(time.Millisecond),
		mem.HeapAlloc>>20, path)
	return nil
}
