package experiments

import (
	"context"
	"fmt"
	"time"

	"hammer/internal/chain"
	"hammer/internal/chains/ethereum"
	"hammer/internal/chains/fabric"
	"hammer/internal/chains/meepo"
	"hammer/internal/chains/neuchain"
	"hammer/internal/core"
	"hammer/internal/eventsim"
	"hammer/internal/harness"
	"hammer/internal/smallbank"
	"hammer/internal/workload"
)

// ChainResult is one Fig 6 data point: a chain's peak throughput and
// latency under the SmallBank workload.
type ChainResult struct {
	Chain      string
	Throughput float64
	AvgLatency time.Duration
	P95Latency time.Duration
	Committed  int
	Aborted    int
	Rejected   int
	Submitted  int
}

// String renders the row.
func (r ChainResult) String() string {
	return fmt.Sprintf("%-9s %9.1f TPS  latency avg %8v p95 %8v  (%d committed, %d aborted, %d rejected)",
		r.Chain, r.Throughput, r.AvgLatency.Round(time.Millisecond), r.P95Latency.Round(time.Millisecond),
		r.Committed, r.Aborted, r.Rejected)
}

// chainSetup binds a chain constructor to the offered load that pushes it
// to peak, mirroring how the paper loads each SUT until throughput
// saturates.
type chainSetup struct {
	name    string
	build   func(sched eventsim.Sched) chain.Blockchain
	offered float64 // tx/s
	cfg     func(*core.Config)
}

// fig6Setups returns the four SUT deployments of Fig 6. Admission caps are
// chosen so that queueing delay at saturation reproduces each system's
// latency regime (Ethereum ≈ 5 s, Fabric ≈ 1.5 s, Meepo ≈ 3 s, Neuchain
// tens of ms).
func fig6Setups(opts Options) []chainSetup {
	return []chainSetup{
		{
			name: "ethereum",
			build: func(sched eventsim.Sched) chain.Blockchain {
				cfg := ethereum.DefaultConfig()
				cfg.MempoolCap = 100
				cfg.Seed = opts.Seed
				cfg.State = opts.stateFactory()
				return ethereum.New(sched, cfg)
			},
			offered: 50,
			cfg: func(c *core.Config) {
				c.DrainTimeout = 5 * time.Minute
			},
		},
		{
			name: "fabric",
			build: func(sched eventsim.Sched) chain.Blockchain {
				cfg := fabric.DefaultConfig()
				cfg.PendingCap = 300
				cfg.State = opts.stateFactory()
				return fabric.New(sched, cfg)
			},
			offered: 400,
			cfg: func(c *core.Config) {
				c.Clients = 4
				c.SubmitCost = 500 * time.Microsecond
			},
		},
		{
			name: "meepo",
			build: func(sched eventsim.Sched) chain.Blockchain {
				cfg := meepo.DefaultConfig()
				cfg.PendingCapPerShard = 4000
				cfg.State = opts.stateFactory()
				return meepo.New(sched, cfg)
			},
			offered: 8000,
			cfg: func(c *core.Config) {
				c.Clients = 8
				c.SubmitCost = 100 * time.Microsecond
				// The paper's Meepo deployment drives random transfers
				// between the shards' accounts.
				c.Workload.OpMix = map[string]float64{smallbank.OpTransfer: 1}
			},
		},
		{
			name: "neuchain",
			build: func(sched eventsim.Sched) chain.Blockchain {
				cfg := neuchain.DefaultConfig()
				// A tight proxy admission window keeps queueing delay low
				// at saturation while still feeding the executor at its
				// ~8.7k TPS capacity.
				cfg.PendingCap = 1400
				cfg.State = opts.stateFactory()
				return neuchain.New(sched, cfg)
			},
			offered: 12000,
			cfg: func(c *core.Config) {
				c.Clients = 8
				c.SubmitCost = 100 * time.Microsecond
			},
		},
	}
}

// Fig6Runs returns the four Fig 6 evaluations as harness run descriptors;
// the harness determinism test executes them at several worker counts.
func Fig6Runs(opts Options) []harness.Run[ChainResult] {
	opts.fillDefaults()
	runs := make([]harness.Run[ChainResult], 0, 4)
	for _, setup := range fig6Setups(opts) {
		setup := setup
		runs = append(runs, harness.Run[ChainResult]{
			Name: "fig6/" + setup.name,
			Seed: opts.Seed,
			Build: func(seed int64) (eventsim.Sched, chain.Blockchain, core.Config, error) {
				sched := eventsim.New()
				bc := setup.build(sched)
				cfg := core.DefaultConfig()
				cfg.Seed = seed
				cfg.Workload.Accounts = opts.Accounts
				cfg.Workload.Seed = seed
				cfg.Control = workload.Constant(setup.offered, time.Duration(opts.MeasureSeconds)*time.Second, time.Second)
				cfg.SignMode = core.SignOff // signing cost is Fig 8's subject, not Fig 6's
				if setup.cfg != nil {
					setup.cfg(&cfg)
				}
				return sched, bc, cfg, nil
			},
			Digest: digestChainResult,
		})
	}
	return runs
}

func digestChainResult(res *core.Result, bc chain.Blockchain) (ChainResult, error) {
	rep := res.Report
	return ChainResult{
		Chain:      bc.Name(),
		Throughput: rep.Throughput,
		AvgLatency: rep.AvgLatency,
		P95Latency: rep.P95Latency,
		Committed:  rep.Committed,
		Aborted:    rep.Aborted,
		Rejected:   rep.Rejected,
		Submitted:  rep.Submitted,
	}, nil
}

// Fig6 measures peak throughput and latency of the four blockchain systems
// with the Hammer driver.
func Fig6(ctx context.Context, opts Options) ([]ChainResult, error) {
	opts.fillDefaults()
	rows, err := harness.Collect(harness.Execute(ctx, Fig6Runs(opts), opts.harnessOptions()))
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return rows, nil
}

// Fig6CSV renders the rows for the CSV exporter.
func Fig6CSV(rows []ChainResult) (header []string, records [][]string) {
	header = []string{"chain", "throughput_tps", "avg_latency_s", "p95_latency_s", "committed", "aborted", "rejected", "submitted"}
	for _, r := range rows {
		records = append(records, []string{
			r.Chain, fmtF(r.Throughput), fmtSeconds(r.AvgLatency), fmtSeconds(r.P95Latency),
			fmt.Sprint(r.Committed), fmt.Sprint(r.Aborted), fmt.Sprint(r.Rejected), fmt.Sprint(r.Submitted),
		})
	}
	return header, records
}
