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
	"hammer/internal/chaos"
	"hammer/internal/core"
	"hammer/internal/eventsim"
	"hammer/internal/harness"
	"hammer/internal/monitor"
	"hammer/internal/smallbank"
	"hammer/internal/workload"
)

// The faults experiment measures resilience rather than peak performance:
// each chain runs a steady load while a chaos scenario (internal/chaos)
// injects a fault a third of the way into the measurement window and heals
// it at two thirds. The per-second TPS timeline shows the dip and the
// recovery; the driver's timeout/retry path recovers transactions the fault
// stranded, so runs always drain. Everything — fault events included — rides
// the shared virtual clock, so results are deterministic for a fixed seed.

// FaultsResult is one chain×scenario row of the resilience experiment.
type FaultsResult struct {
	Chain    string
	Scenario string
	// BaselineTPS is mean committed TPS before the fault; DipTPS the
	// minimum during it.
	BaselineTPS float64
	DipTPS      float64
	// Recovered reports whether post-heal TPS regained 70% of baseline,
	// RecoverySeconds how long after the heal that took (-1 if never).
	Recovered       bool
	RecoverySeconds int
	Committed       int
	TimedOut        int
	Rejected        int
	// Retried counts driver resubmissions; Stranded the transactions the
	// chain lost to the fault (recovered only through those retries).
	Retried  int
	Stranded int
	// FaultEvents is how many scenario events fired.
	FaultEvents int
	// Series is the committed-TPS-per-second timeline for the CSV export.
	Series []float64
}

// String renders the row.
func (r FaultsResult) String() string {
	rec := "no recovery"
	if r.Recovered {
		rec = fmt.Sprintf("recovered in %ds", r.RecoverySeconds)
	}
	return fmt.Sprintf("%-9s %-10s baseline %8.1f TPS  dip %8.1f TPS  %-17s (%d committed, %d timed out, %d retried, %d stranded)",
		r.Chain, r.Scenario, r.BaselineTPS, r.DipTPS, rec, r.Committed, r.TimedOut, r.Retried, r.Stranded)
}

// faultsSetup binds one chain to its load, driver timeout and the two fault
// scenarios (crash-and-heal, partition-and-heal).
type faultsSetup struct {
	name      string
	offered   float64
	txTimeout time.Duration
	build     func(sched eventsim.Sched, opts Options) chain.Blockchain
	engCfg    func(*core.Config)
	crash     func(fault, heal time.Duration) chaos.Scenario
	partition func(fault, heal time.Duration) chaos.Scenario
}

// faultsSetups returns the four chains under ~60-80% of their Fig 6 peak
// load — enough headroom that the post-heal backlog drains and the timeline
// shows a recovery, not a permanently saturated queue.
func faultsSetups(opts Options) []faultsSetup {
	miners := func(idx ...int) []string {
		out := make([]string, len(idx))
		for i, m := range idx {
			out[i] = fmt.Sprintf("miner-%d", m)
		}
		return out
	}
	return []faultsSetup{
		{
			name:      "ethereum",
			offered:   16,
			txTimeout: 30 * time.Second,
			build: func(sched eventsim.Sched, opts Options) chain.Blockchain {
				cfg := ethereum.DefaultConfig()
				cfg.Seed = opts.Seed
				return ethereum.New(sched, cfg)
			},
			engCfg: func(c *core.Config) {
				c.DrainTimeout = 5 * time.Minute
			},
			// Crash 3 of 5 miners: surviving hash power mines at 2/5 rate.
			crash: func(fault, heal time.Duration) chaos.Scenario {
				return chaos.Scenario{Name: "ethereum/crash", Events: []chaos.Event{
					{At: fault, Kind: chaos.KindCrash, Nodes: miners(0, 1, 2)},
					{At: heal, Kind: chaos.KindRestart, Nodes: miners(0, 1, 2)},
				}}
			},
			// Ethereum folds its gossip network into the PoW interval, so
			// the injector emulates the partition by crashing the minority.
			partition: func(fault, heal time.Duration) chaos.Scenario {
				return chaos.Scenario{Name: "ethereum/partition", Events: []chaos.Event{
					{At: fault, Kind: chaos.KindPartition, GroupA: miners(0, 1), GroupB: miners(2, 3, 4)},
					{At: heal, Kind: chaos.KindHeal},
				}}
			},
		},
		{
			name:      "fabric",
			offered:   150,
			txTimeout: 5 * time.Second,
			build: func(sched eventsim.Sched, opts Options) chain.Blockchain {
				return fabric.New(sched, fabric.DefaultConfig())
			},
			engCfg: func(c *core.Config) {
				c.Clients = 4
				c.SubmitCost = 500 * time.Microsecond
			},
			// The single orderer is Fabric's availability bottleneck: its
			// crash stalls ordering and strands endorsed transactions.
			crash: func(fault, heal time.Duration) chaos.Scenario {
				return chaos.Scenario{Name: "fabric/crash", Events: []chaos.Event{
					{At: fault, Kind: chaos.KindCrash, Nodes: []string{"orderer"}},
					{At: heal, Kind: chaos.KindRestart, Nodes: []string{"orderer"}},
				}}
			},
			partition: func(fault, heal time.Duration) chaos.Scenario {
				return chaos.Scenario{Name: "fabric/partition", Events: []chaos.Event{
					{At: fault, Kind: chaos.KindPartition,
						GroupA: []string{"orderer"},
						GroupB: []string{"peer-0", "peer-1", "peer-2", "peer-3"}},
					{At: heal, Kind: chaos.KindHeal},
				}}
			},
		},
		{
			name:      "meepo",
			offered:   4000,
			txTimeout: 8 * time.Second,
			build: func(sched eventsim.Sched, opts Options) chain.Blockchain {
				cfg := meepo.DefaultConfig()
				cfg.PendingCapPerShard = 12000
				return meepo.New(sched, cfg)
			},
			engCfg: func(c *core.Config) {
				c.Clients = 8
				c.SubmitCost = 100 * time.Microsecond
				c.Workload.OpMix = map[string]float64{smallbank.OpTransfer: 1}
			},
			// Losing 2 of shard 0's 3 members breaks its quorum: half the
			// account space stalls while shard 1 keeps committing.
			crash: func(fault, heal time.Duration) chaos.Scenario {
				return chaos.Scenario{Name: "meepo/crash", Events: []chaos.Event{
					{At: fault, Kind: chaos.KindCrash, Nodes: []string{"shard0-member0", "shard0-member1"}},
					{At: heal, Kind: chaos.KindRestart, Nodes: []string{"shard0-member0", "shard0-member1"}},
				}}
			},
			// Splitting the shards severs the cross-epoch relay: intra-shard
			// traffic commits, cross-shard transfers lose their credits and
			// only the driver's retries complete them after the heal.
			partition: func(fault, heal time.Duration) chaos.Scenario {
				return chaos.Scenario{Name: "meepo/partition", Events: []chaos.Event{
					{At: fault, Kind: chaos.KindPartition,
						GroupA: []string{"shard0-member0", "shard0-member1", "shard0-member2"},
						GroupB: []string{"shard1-member0", "shard1-member1", "shard1-member2"}},
					{At: heal, Kind: chaos.KindHeal},
				}}
			},
		},
		{
			name:      "neuchain",
			offered:   6000,
			txTimeout: 3 * time.Second,
			build: func(sched eventsim.Sched, opts Options) chain.Blockchain {
				cfg := neuchain.DefaultConfig()
				// A deep proxy queue absorbs the stall so the post-heal
				// backlog drains instead of shedding at admission.
				cfg.PendingCap = 40000
				return neuchain.New(sched, cfg)
			},
			engCfg: func(c *core.Config) {
				c.Clients = 8
				c.SubmitCost = 100 * time.Microsecond
			},
			crash: func(fault, heal time.Duration) chaos.Scenario {
				return chaos.Scenario{Name: "neuchain/crash", Events: []chaos.Event{
					{At: fault, Kind: chaos.KindCrash, Nodes: []string{"epoch-server"}},
					{At: heal, Kind: chaos.KindRestart, Nodes: []string{"epoch-server"}},
				}}
			},
			partition: func(fault, heal time.Duration) chaos.Scenario {
				return chaos.Scenario{Name: "neuchain/partition", Events: []chaos.Event{
					{At: fault, Kind: chaos.KindPartition,
						GroupA: []string{"proxy"},
						GroupB: []string{"block-server-0", "block-server-1", "block-server-2"}},
					{At: heal, Kind: chaos.KindHeal},
				}}
			},
		},
	}
}

// faultTimes places the fault a third into the measurement window and the
// heal at two thirds.
func faultTimes(opts Options) (faultSec, healSec int) {
	return opts.MeasureSeconds / 3, 2 * opts.MeasureSeconds / 3
}

// FaultsRuns returns the eight chain×scenario evaluations as harness runs.
func FaultsRuns(opts Options) []harness.Run[FaultsResult] {
	opts.fillDefaults()
	faultSec, healSec := faultTimes(opts)
	fault := time.Duration(faultSec) * time.Second
	heal := time.Duration(healSec) * time.Second

	var runs []harness.Run[FaultsResult]
	for _, setup := range faultsSetups(opts) {
		for _, sc := range []struct {
			name string
			scen chaos.Scenario
		}{
			{"crash", setup.crash(fault, heal)},
			{"partition", setup.partition(fault, heal)},
		} {
			setup, sc := setup, sc
			// Build assigns these; Digest (always called after Build in the
			// same run slot) reads them.
			var inj *chaos.Injector
			var reg *monitor.Registry
			runs = append(runs, harness.Run[FaultsResult]{
				Name: "faults/" + setup.name + "/" + sc.name,
				Seed: opts.Seed,
				Build: func(seed int64) (eventsim.Sched, chain.Blockchain, core.Config, error) {
					sched := eventsim.New()
					bc := setup.build(sched, opts)
					reg = monitor.NewRegistry()
					cfg := core.DefaultConfig()
					cfg.Seed = seed
					cfg.Workload.Accounts = opts.Accounts
					cfg.Workload.Seed = seed
					cfg.Control = workload.Constant(setup.offered, time.Duration(opts.MeasureSeconds)*time.Second, time.Second)
					cfg.SignMode = core.SignOff
					cfg.Metrics = reg
					cfg.TxTimeout = setup.txTimeout
					cfg.MaxRetries = 2
					cfg.RetryBackoff = 500 * time.Millisecond
					if setup.engCfg != nil {
						setup.engCfg(&cfg)
					}
					nf, ok := bc.(chaos.NodeFaulter)
					if !ok {
						return nil, nil, core.Config{}, fmt.Errorf("faults: chain %s exposes no liveness hooks", setup.name)
					}
					var err error
					inj, err = chaos.NewInjector(sched, nf, sc.scen, reg)
					if err != nil {
						return nil, nil, core.Config{}, err
					}
					// Scenario offsets are relative to measurement start:
					// account setup consumes virtual time first.
					cfg.OnMeasureStart = func(start time.Duration) { inj.Arm(start) }
					return sched, bc, cfg, nil
				},
				Digest: func(res *core.Result, bc chain.Blockchain) (FaultsResult, error) {
					rep := res.Report
					rec := chaos.AnalyzeRecovery(rep.TPSSeries, faultSec, healSec, 0.7)
					reg.Gauge("chaos/recovery_seconds").Set(float64(rec.RecoverySeconds))
					row := FaultsResult{
						Chain:           bc.Name(),
						Scenario:        sc.name,
						BaselineTPS:     rec.BaselineTPS,
						DipTPS:          rec.DipTPS,
						Recovered:       rec.Recovered,
						RecoverySeconds: rec.RecoverySeconds,
						Committed:       rep.Committed,
						TimedOut:        rep.TimedOut,
						Rejected:        rep.Rejected,
						Retried:         res.Retried,
						FaultEvents:     len(inj.Applied()),
						Series:          rep.TPSSeries,
					}
					if s, ok := bc.(interface{ Stranded() int }); ok {
						row.Stranded = s.Stranded()
					}
					return row, nil
				},
			})
		}
	}
	return runs
}

// Faults runs the resilience experiment: all four chains through the
// crash-and-heal and partition-and-heal scenarios.
func Faults(ctx context.Context, opts Options) ([]FaultsResult, error) {
	opts.fillDefaults()
	rows, err := harness.Collect(harness.Execute(ctx, FaultsRuns(opts), opts.harnessOptions()))
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return rows, nil
}

// FaultsCSV renders the summary rows.
func FaultsCSV(rows []FaultsResult) (header []string, records [][]string) {
	header = []string{"chain", "scenario", "baseline_tps", "dip_tps", "recovered", "recovery_s",
		"committed", "timed_out", "rejected", "retried", "stranded", "fault_events"}
	for _, r := range rows {
		records = append(records, []string{
			r.Chain, r.Scenario, fmtF(r.BaselineTPS), fmtF(r.DipTPS),
			fmt.Sprint(r.Recovered), fmt.Sprint(r.RecoverySeconds),
			fmt.Sprint(r.Committed), fmt.Sprint(r.TimedOut), fmt.Sprint(r.Rejected),
			fmt.Sprint(r.Retried), fmt.Sprint(r.Stranded), fmt.Sprint(r.FaultEvents),
		})
	}
	return header, records
}

// FaultsTimelineCSV renders the per-second TPS timelines in long form
// (chain, scenario, second, tps) for plotting.
func FaultsTimelineCSV(rows []FaultsResult) (header []string, records [][]string) {
	header = []string{"chain", "scenario", "second", "tps"}
	for _, r := range rows {
		for sec, tps := range r.Series {
			records = append(records, []string{
				r.Chain, r.Scenario, fmt.Sprint(sec), fmtF(tps),
			})
		}
	}
	return header, records
}
