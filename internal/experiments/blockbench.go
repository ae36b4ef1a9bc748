package experiments

import (
	"context"
	"fmt"
	"time"

	"hammer/internal/blockbench"
	"hammer/internal/chain"
	"hammer/internal/chains/neuchain"
	"hammer/internal/core"
	"hammer/internal/eventsim"
	"hammer/internal/harness"
	"hammer/internal/workload"
)

// The blockbench experiment runs the BLOCKBENCH micro-workloads (IOHeavy,
// Analytics, DoNothing) against the deterministic neuchain SUT twice each:
// once on the in-RAM map state and once on the disk-backed paged store.
// Identical committed counts across the backend pair are the visible half
// of the storage-identity claim; the paged rows additionally report the
// cache and bloom economics only that backend has.

// BlockbenchResult is one workload×backend row.
type BlockbenchResult struct {
	Workload   string
	Backend    string
	Throughput float64
	AvgLatency time.Duration
	Committed  int
	Aborted    int
	// Paged-backend economics; zero on mem rows.
	CacheHitRate   float64
	BloomNegatives int64
	Evictions      int64
	ResidentMB     float64
	WALMB          float64
}

// String renders the row.
func (r BlockbenchResult) String() string {
	s := fmt.Sprintf("%-9s %-5s %9.1f TPS  latency avg %8v  (%d committed, %d aborted)",
		r.Workload, r.Backend, r.Throughput, r.AvgLatency.Round(time.Millisecond), r.Committed, r.Aborted)
	if r.Backend == "paged" {
		s += fmt.Sprintf("  cache hit %.1f%%, bloom-neg %d, resident %.1f MB",
			100*r.CacheHitRate, r.BloomNegatives, r.ResidentMB)
	}
	return s
}

// blockbenchOffered is the offered load per workload, tuned so neuchain
// saturates on transaction processing (ioheavy/donothing) or scan execution
// (analytics) rather than on admission.
func blockbenchOffered(workload string) float64 {
	switch workload {
	case blockbench.Analytics:
		return 600
	case blockbench.DoNothing:
		return 4000
	default:
		return 3000
	}
}

// BlockbenchRuns returns the workload×backend sweep as harness runs.
func BlockbenchRuns(opts Options) []harness.Run[BlockbenchResult] {
	opts.fillDefaults()
	var runs []harness.Run[BlockbenchResult]
	for _, wl := range blockbench.Workloads {
		for _, backend := range []string{"mem", "paged"} {
			wl, backend := wl, backend
			// Per-run runtime: the digest reads this run's store stats and
			// releases its files without waiting for the sweep to finish.
			rt := NewStateRuntime()
			runs = append(runs, harness.Run[BlockbenchResult]{
				Name: fmt.Sprintf("blockbench/%s/%s", wl, backend),
				Seed: opts.Seed,
				Build: func(seed int64) (eventsim.Sched, chain.Blockchain, core.Config, error) {
					sched := eventsim.New()
					ccfg := neuchain.DefaultConfig()
					if backend == "paged" {
						ccfg.State = rt.Factory(opts.StateDir, opts.StateCacheMB, 4*opts.Accounts)
					}
					bc := neuchain.New(sched, ccfg)

					profile := blockbench.DefaultProfile(wl)
					profile.Records = opts.Accounts
					profile.Seed = seed
					gen, err := blockbench.NewGenerator(profile)
					if err != nil {
						return nil, nil, core.Config{}, err
					}
					cfg := core.DefaultConfig()
					cfg.Seed = seed
					cfg.Source = gen
					cfg.Contract = blockbench.Contract{}
					cfg.Control = workload.Constant(blockbenchOffered(wl),
						time.Duration(opts.MeasureSeconds)*time.Second, time.Second)
					cfg.SignMode = core.SignOff
					cfg.Clients = 8
					cfg.SubmitCost = 100 * time.Microsecond
					return sched, bc, cfg, nil
				},
				Digest: func(res *core.Result, bc chain.Blockchain) (BlockbenchResult, error) {
					defer rt.Close()
					rep := res.Report
					row := BlockbenchResult{
						Workload:   wl,
						Backend:    backend,
						Throughput: rep.Throughput,
						AvgLatency: rep.AvgLatency,
						Committed:  rep.Committed,
						Aborted:    rep.Aborted,
					}
					if backend == "paged" {
						st := rt.Stats()
						row.CacheHitRate = st.HitRate()
						row.BloomNegatives = st.BloomNegatives
						row.Evictions = st.Evictions
						// StateRuntime stores use the default 8 KiB pages.
						row.ResidentMB = float64(st.ResidentPages) * 8192 / (1 << 20)
						row.WALMB = float64(st.WALBytes) / (1 << 20)
					}
					return row, nil
				},
			})
		}
	}
	return runs
}

// Blockbench runs the BLOCKBENCH micro-workloads on both state backends.
func Blockbench(ctx context.Context, opts Options) ([]BlockbenchResult, error) {
	opts.fillDefaults()
	rows, err := harness.Collect(harness.Execute(ctx, BlockbenchRuns(opts), opts.harnessOptions()))
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return rows, nil
}

// BlockbenchCSV renders the rows for the CSV exporter.
func BlockbenchCSV(rows []BlockbenchResult) (header []string, records [][]string) {
	header = []string{"workload", "backend", "throughput_tps", "avg_latency_s", "committed", "aborted",
		"cache_hit_rate", "bloom_negatives", "evictions", "resident_mb", "wal_mb"}
	for _, r := range rows {
		records = append(records, []string{
			r.Workload, r.Backend, fmtF(r.Throughput), fmtSeconds(r.AvgLatency),
			fmt.Sprint(r.Committed), fmt.Sprint(r.Aborted),
			fmtF(r.CacheHitRate), fmt.Sprint(r.BloomNegatives), fmt.Sprint(r.Evictions),
			fmtF(r.ResidentMB), fmtF(r.WALMB),
		})
	}
	return header, records
}
