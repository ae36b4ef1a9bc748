package experiments

import (
	"context"
	"fmt"
	"time"

	"hammer/internal/chain"
	"hammer/internal/chains/ethereum"
	"hammer/internal/chains/fabric"
	"hammer/internal/core"
	"hammer/internal/eventsim"
	"hammer/internal/harness"
	"hammer/internal/workload"
)

// FrameworkResult is one Fig 7 data point: the peak performance one
// evaluation framework reports for one SUT. The SUT is identical across
// frameworks — the differences are measurement artifacts of each
// framework's collection strategy.
type FrameworkResult struct {
	Chain      string
	Framework  string // "hammer", "blockbench", "caliper"
	Throughput float64
	AvgLatency time.Duration
	Committed  int
	Unmatched  int
	Dropped    int
}

// String renders the row.
func (r FrameworkResult) String() string {
	return fmt.Sprintf("%-9s via %-10s %8.1f TPS  latency %8v  (%d committed, %d unmatched, %d dropped)",
		r.Chain, r.Framework, r.Throughput, r.AvgLatency.Round(time.Millisecond),
		r.Committed, r.Unmatched, r.Dropped)
}

// frameworkDriver maps a published framework to the engine's driver model.
func frameworkDriver(framework string) (core.DriverKind, error) {
	switch framework {
	case "hammer":
		return core.DriverHammer, nil
	case "blockbench":
		return core.DriverBatch, nil
	case "caliper":
		return core.DriverInteractive, nil
	default:
		return 0, fmt.Errorf("experiments: unknown framework %q", framework)
	}
}

// Fig7 measures the peak performance of Ethereum and Fabric as reported by
// Hammer, Blockbench (batch testing) and Caliper (interactive testing).
// Expected shape (paper): the three frameworks agree on Ethereum (load far
// below any driver's limits), while on Fabric Hammer reports the highest
// throughput (≈239 TPS), Caliper under-reports (≈176) because its listener
// loses responses under load, and Blockbench under-reports because its
// O(n·m) queue matching falls behind.
func Fig7(ctx context.Context, opts Options) ([]FrameworkResult, error) {
	opts.fillDefaults()
	frameworks := []string{"hammer", "blockbench", "caliper"}

	var runs []harness.Run[FrameworkResult]
	for _, chainName := range []string{"ethereum", "fabric"} {
		for _, fw := range frameworks {
			runs = append(runs, frameworkRun(chainName, fw, opts))
		}
	}
	rows, err := harness.Collect(harness.Execute(ctx, runs, opts.harnessOptions()))
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return rows, nil
}

// frameworkRun describes one chain×framework evaluation for the harness.
func frameworkRun(chainName, framework string, opts Options) harness.Run[FrameworkResult] {
	return harness.Run[FrameworkResult]{
		Name: fmt.Sprintf("fig7/%s/%s", chainName, framework),
		Seed: opts.Seed,
		Build: func(seed int64) (eventsim.Sched, chain.Blockchain, core.Config, error) {
			driver, err := frameworkDriver(framework)
			if err != nil {
				return nil, nil, core.Config{}, err
			}
			sched := eventsim.New()
			var bc chain.Blockchain
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			cfg.Workload.Accounts = opts.Accounts
			cfg.Workload.Seed = seed
			cfg.Driver = driver
			cfg.SignMode = core.SignOff

			switch chainName {
			case "ethereum":
				ecfg := ethereum.DefaultConfig()
				ecfg.MempoolCap = 100
				ecfg.Seed = seed
				bc = ethereum.New(sched, ecfg)
				cfg.Control = workload.Constant(50, time.Duration(opts.MeasureSeconds)*time.Second, time.Second)
				cfg.DrainTimeout = 5 * time.Minute
			case "fabric":
				fcfg := fabric.DefaultConfig()
				fcfg.PendingCap = 300
				bc = fabric.New(sched, fcfg)
				cfg.Control = workload.Constant(400, time.Duration(opts.MeasureSeconds)*time.Second, time.Second)
				cfg.Clients = 4
				cfg.SubmitCost = 500 * time.Microsecond
			default:
				return nil, nil, core.Config{}, fmt.Errorf("experiments: unknown chain %q", chainName)
			}

			switch driver {
			case core.DriverBatch:
				// Blockbench polls coarsely and matches against a queue that also
				// holds fire-and-forget submissions the SUT shed.
				cfg.PollInterval = time.Second
				cfg.TrackRejected = true
			case core.DriverInteractive:
				// Caliper's per-response listener: each response costs listener
				// CPU; the paper attributes its losses to that resource drain.
				cfg.EventCost = 11 * time.Millisecond
				cfg.EventBacklogLimit = 400 * time.Millisecond
			}
			return sched, bc, cfg, nil
		},
		Digest: func(res *core.Result, bc chain.Blockchain) (FrameworkResult, error) {
			rep := res.Report
			return FrameworkResult{
				Chain:      chainName,
				Framework:  framework,
				Throughput: rep.Throughput,
				AvgLatency: rep.AvgLatency,
				Committed:  rep.Committed,
				Unmatched:  rep.Unmatched,
				Dropped:    res.DroppedResponses,
			}, nil
		},
	}
}

// Fig7CSV renders the rows for the CSV exporter.
func Fig7CSV(rows []FrameworkResult) (header []string, records [][]string) {
	header = []string{"chain", "framework", "throughput_tps", "avg_latency_s", "committed", "unmatched", "dropped"}
	for _, r := range rows {
		records = append(records, []string{
			r.Chain, r.Framework, fmtF(r.Throughput), fmtSeconds(r.AvgLatency),
			fmt.Sprint(r.Committed), fmt.Sprint(r.Unmatched), fmt.Sprint(r.Dropped),
		})
	}
	return header, records
}

// PollIntervalRun measures the batch driver's reported average latency at
// one polling interval against the default Fabric deployment — the ξ1
// sensitivity of §II-C1 (coarser polls stamp completions later).
func PollIntervalRun(ctx context.Context, poll time.Duration, opts Options) (time.Duration, error) {
	opts.fillDefaults()
	run := harness.Run[time.Duration]{
		Name: fmt.Sprintf("fig7/poll=%v", poll),
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
			cfg.Driver = core.DriverBatch
			cfg.PollInterval = poll
			cfg.SignMode = core.SignOff
			cfg.Control = workload.Constant(150, time.Duration(opts.MeasureSeconds)*time.Second, time.Second)
			return sched, bc, cfg, nil
		},
		Digest: func(res *core.Result, _ chain.Blockchain) (time.Duration, error) {
			return res.Report.AvgLatency, nil
		},
	}
	rows, err := harness.Collect(harness.Execute(ctx, []harness.Run[time.Duration]{run}, opts.harnessOptions()))
	if err != nil {
		return 0, fmt.Errorf("experiments: %w", err)
	}
	return rows[0], nil
}
