package experiments

import (
	"context"
	"fmt"
	"time"

	"hammer/internal/chain"
	"hammer/internal/chains/fabric"
	"hammer/internal/core"
	"hammer/internal/eventsim"
	"hammer/internal/harness"
	"hammer/internal/loadplane"
	"hammer/internal/metrics"
)

// LoadPlaneRow is one scale point of the open- vs closed-loop comparison:
// the same client population, service model and duration, driven by the two
// injection disciplines.
type LoadPlaneRow struct {
	Mode         string // "open" | "closed"
	Clients      int
	Workers      int // generation shards (0 for the closed-loop model)
	OfferedPerS  int64
	AdmittedPerS int64
	ServedPerS   int64
	DroppedFrac  float64
	FinalQueue   int64
	AvgLatencyMs float64
	Checksum     uint64 // arrival-multiset checksum (open-loop only)
}

// String renders the row.
func (r LoadPlaneRow) String() string {
	return fmt.Sprintf("%-6s %9d clients  offered %8d/s admitted %8d/s served %8d/s  dropped %5.1f%%  queue %7d  latency %8.1f ms",
		r.Mode, r.Clients, r.OfferedPerS, r.AdmittedPerS, r.ServedPerS, 100*r.DroppedFrac, r.FinalQueue, r.AvgLatencyMs)
}

// LoadPlaneSpec is the canonical spec for a given population: the service
// model scales with the population (capacity at half the offered rate, so
// every scale point saturates identically) and everything is a pure function
// of (clients, seed, seconds) — the CLI's distributed mode and the in-process
// golden derive the same spec from the same flags, which is what makes their
// CSVs comparable byte-for-byte.
func LoadPlaneSpec(clients int, seed int64, seconds int) loadplane.Spec {
	spec := loadplane.DefaultSpec()
	spec.Clients = clients
	spec.Seed = seed
	spec.Duration = time.Duration(seconds) * time.Second
	offered := int64(float64(clients) * spec.RatePerClient)
	spec.Service.RatePerSec = offered/2 + 1
	spec.Service.QueueCap = offered + 1
	return spec
}

// summarize folds an evaluated series into one row.
func summarize(mode string, spec loadplane.Spec, workers int, rows []loadplane.Row) LoadPlaneRow {
	var offered, admitted, served, dropped, latNs int64
	var checksum uint64
	for _, r := range rows {
		offered += r.Offered
		admitted += r.Admitted
		served += r.Served
		dropped += r.Dropped
		latNs += r.AvgLatencyNs
		checksum += r.Checksum
	}
	secs := int64(spec.Duration / time.Second)
	if secs < 1 {
		secs = 1
	}
	out := LoadPlaneRow{
		Mode:     mode,
		Clients:  spec.Clients,
		Workers:  workers,
		Checksum: checksum,
	}
	out.OfferedPerS = offered / secs
	out.AdmittedPerS = admitted / secs
	out.ServedPerS = served / secs
	if offered > 0 {
		out.DroppedFrac = float64(dropped) / float64(offered)
	}
	if n := int64(len(rows)); n > 0 {
		out.AvgLatencyMs = float64(latNs/n) / 1e6
	}
	out.FinalQueue = rows[len(rows)-1].Queue
	return out
}

// LoadPlane sweeps the client population, generating each scale's open-loop
// arrivals in-process (4 shards — the merge is partition-invariant, so the
// shard count is a throughput knob, not a results knob) and evaluating the
// closed-loop model over the identical population for contrast: open-loop
// exposes the drop rate and latency climb that closed-loop feedback hides.
func LoadPlane(ctx context.Context, opts Options) ([]LoadPlaneRow, error) {
	opts.fillDefaults()
	const shards = 4
	rows := make([]LoadPlaneRow, 0, 2*len(opts.LoadClients))
	for _, clients := range opts.LoadClients {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spec := LoadPlaneSpec(clients, opts.Seed, opts.MeasureSeconds)
		merged, err := loadplane.InProcess(ctx, spec, shards)
		if err != nil {
			return nil, fmt.Errorf("experiments: loadplane %d clients: %w", clients, err)
		}
		rows = append(rows, summarize("open", spec, shards, loadplane.Evaluate(spec, merged)))
		rows = append(rows, summarize("closed", spec, 0, loadplane.ClosedLoop(spec)))
	}
	return rows, nil
}

// LoadPlaneCSV renders the scale sweep for the CSV exporter.
func LoadPlaneCSV(rows []LoadPlaneRow) (header []string, records [][]string) {
	header = []string{"mode", "clients", "workers", "offered_per_s", "admitted_per_s",
		"served_per_s", "dropped_frac", "final_queue", "avg_latency_ms", "checksum"}
	for _, r := range rows {
		records = append(records, []string{
			r.Mode, fmt.Sprint(r.Clients), fmt.Sprint(r.Workers),
			fmt.Sprint(r.OfferedPerS), fmt.Sprint(r.AdmittedPerS), fmt.Sprint(r.ServedPerS),
			fmtF(r.DroppedFrac), fmt.Sprint(r.FinalQueue), fmtF(r.AvgLatencyMs),
			fmt.Sprintf("%016x", r.Checksum),
		})
	}
	return header, records
}

// LoadPlaneDriveRow is one SUT run driven by the load plane's arrival
// schedule instead of a flat rate.
type LoadPlaneDriveRow struct {
	Driver string
	ChainResult
}

// String renders the row.
func (r LoadPlaneDriveRow) String() string {
	return fmt.Sprintf("%-12s %s", r.Driver, r.ChainResult)
}

// LoadPlaneDriveRuns describes the chain-driving demo: a Fabric deployment
// injected under the open-loop arrival schedule (via core.OpenLoopControl)
// with the Hammer driver and the Caliper-style interactive driver — the
// end-to-end path from distributed generation into the evaluation engine.
func LoadPlaneDriveRuns(opts Options) ([]harness.Run[LoadPlaneDriveRow], error) {
	opts.fillDefaults()
	// A small population whose offered load (~400 tx/s) sits at Fabric's
	// saturation point from Fig 6.
	spec := LoadPlaneSpec(800, opts.Seed, opts.MeasureSeconds)
	merged, err := loadplane.InProcess(context.Background(), spec, 2)
	if err != nil {
		return nil, err
	}
	drivers := []struct {
		name string
		mode core.DriverKind
	}{
		{"hammer", core.DriverHammer},
		{"interactive", core.DriverInteractive},
	}
	runs := make([]harness.Run[LoadPlaneDriveRow], 0, len(drivers))
	for _, d := range drivers {
		d := d
		runs = append(runs, harness.Run[LoadPlaneDriveRow]{
			Name: "loadplane/drive-" + d.name,
			Seed: opts.Seed,
			Build: func(seed int64) (eventsim.Sched, chain.Blockchain, core.Config, error) {
				sched := eventsim.New()
				fcfg := fabric.DefaultConfig()
				fcfg.PendingCap = 300
				bc := fabric.New(sched, fcfg)
				cfg := core.DefaultConfig()
				cfg.Seed = seed
				cfg.Workload.Accounts = opts.Accounts
				cfg.Workload.Seed = seed
				cfg.Clients = 4
				cfg.Control = core.OpenLoopControl(spec, merged, 0)
				cfg.Driver = d.mode
				cfg.SignMode = core.SignOff
				return sched, bc, cfg, nil
			},
			Digest: func(res *core.Result, bc chain.Blockchain) (LoadPlaneDriveRow, error) {
				cr, err := digestChainResult(res, bc)
				return LoadPlaneDriveRow{Driver: d.name, ChainResult: cr}, err
			},
		})
	}
	return runs, nil
}

// LoadPlaneDrive executes the chain-driving demo.
func LoadPlaneDrive(ctx context.Context, opts Options) ([]LoadPlaneDriveRow, error) {
	runs, err := LoadPlaneDriveRuns(opts)
	if err != nil {
		return nil, err
	}
	rows, err := harness.Collect(harness.Execute(ctx, runs, opts.harnessOptions()))
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return rows, nil
}

// LoadPlaneDriveCSV renders the drive demo for the CSV exporter.
func LoadPlaneDriveCSV(rows []LoadPlaneDriveRow) (header []string, records [][]string) {
	header = []string{"driver", "throughput_tps", "avg_latency_s", "p95_latency_s", "committed", "aborted", "rejected", "submitted"}
	for _, r := range rows {
		records = append(records, []string{
			r.Driver, fmtF(r.Throughput), fmtSeconds(r.AvgLatency), fmtSeconds(r.P95Latency),
			fmt.Sprint(r.Committed), fmt.Sprint(r.Aborted), fmt.Sprint(r.Rejected), fmt.Sprint(r.Submitted),
		})
	}
	return header, records
}

// LoadPlaneMergedSeries generates the canonical spec's merged series
// in-process — the golden the CI smoke compares a distributed run against.
func LoadPlaneMergedSeries(ctx context.Context, clients, shards int, seed int64, seconds int) (loadplane.Spec, []metrics.Window, error) {
	spec := LoadPlaneSpec(clients, seed, seconds)
	merged, err := loadplane.InProcess(ctx, spec, shards)
	return spec, merged, err
}
