package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"hammer/internal/chain"
	"hammer/internal/chains/committee"
	"hammer/internal/chains/meepo"
	"hammer/internal/chaos"
	"hammer/internal/core"
	"hammer/internal/eventsim"
	"hammer/internal/harness"
	"hammer/internal/monitor"
	"hammer/internal/smallbank"
	"hammer/internal/workload"
)

// The families experiment sweeps the two consensus families along their
// scale axis — Meepo across shard counts, the BFT committee across committee
// sizes — and runs every point through three scenarios: a healthy baseline,
// a crash-and-heal, and an N-way partition-and-heal. Meepo's load draws a
// configurable fraction of transfers across shard boundaries so the
// cross-epoch relay is always part of what is measured. Each row reports
// throughput and latency alongside the chaos recovery analysis, and the
// whole sweep rides the virtual clock: for a fixed seed the CSVs are
// byte-identical at any worker count and on either scheduler engine.

// FamilyResult is one family×size×scenario row of the sweep.
type FamilyResult struct {
	Family   string
	Size     int // shard count (meepo) or committee size
	Scenario string
	// CrossRate is the cross-shard transfer fraction of the offered load
	// (meepo rows only; 0 for the single-ledger committee).
	CrossRate  float64
	Throughput float64
	AvgLatency time.Duration
	P95Latency time.Duration
	Committed  int
	TimedOut   int
	Rejected   int
	// Retried counts driver resubmissions; Stranded the transactions the
	// chain lost to a fault; ViewChanges the committee's proposer rotations
	// forced by timeouts (0 for meepo).
	Retried     int
	Stranded    int
	ViewChanges int
	// Recovery analysis over the per-second TPS timeline (for the healthy
	// scenario the "fault" window contains no fault, so DipTPS tracks
	// BaselineTPS and recovery is immediate).
	BaselineTPS     float64
	DipTPS          float64
	Recovered       bool
	RecoverySeconds int
	FaultEvents     int
	// Series is the committed-TPS-per-second timeline for the CSV export.
	Series []float64
}

// String renders the row.
func (r FamilyResult) String() string {
	rec := "no recovery"
	if r.Recovered {
		rec = fmt.Sprintf("recovered in %ds", r.RecoverySeconds)
	}
	return fmt.Sprintf("%-9s n=%-3d %-10s %9.1f TPS  latency avg %8v  dip %8.1f TPS  %-17s (%d committed, %d retried, %d stranded)",
		r.Family, r.Size, r.Scenario, r.Throughput, r.AvgLatency.Round(time.Millisecond),
		r.DipTPS, rec, r.Committed, r.Retried, r.Stranded)
}

// crossShardSource drives Meepo with transfers whose destination is drawn
// from a foreign shard at a configurable rate, using the chain's own account
// placement (meepo.ShardIndex) so the rate is exact rather than the ~1-1/N
// that uniform destinations would give. It implements core.TxSource.
type crossShardSource struct {
	rng       *rand.Rand
	accounts  []string
	byShard   [][]string
	shards    int
	crossRate float64
	nonce     uint64
}

func newCrossShardSource(seed int64, accounts, shards int, crossRate float64) *crossShardSource {
	s := &crossShardSource{
		rng:       rand.New(rand.NewSource(seed)),
		byShard:   make([][]string, shards),
		shards:    shards,
		crossRate: crossRate,
	}
	for i := 0; i < accounts; i++ {
		name := smallbank.AccountName(i)
		s.accounts = append(s.accounts, name)
		home := meepo.ShardIndex(name, shards)
		s.byShard[home] = append(s.byShard[home], name)
	}
	return s
}

func (s *crossShardSource) nextNonce() uint64 {
	s.nonce++
	return s.nonce
}

// SetupTxs creates the account population with 1000/1000 balances.
func (s *crossShardSource) SetupTxs() []*chain.Transaction {
	txs := make([]*chain.Transaction, len(s.accounts))
	for i, name := range s.accounts {
		txs[i] = &chain.Transaction{
			Contract: smallbank.ContractName,
			Op:       smallbank.OpCreate,
			Args:     []string{name, "1000", "1000"},
			From:     name,
			Nonce:    s.nextNonce(),
		}
	}
	return txs
}

// Next draws one transfer; the destination shard is foreign with probability
// crossRate. Retries are bounded in case hashing piles the population onto
// one shard; unique nonces keep transaction IDs distinct regardless.
func (s *crossShardSource) Next(clientID, serverID string) *chain.Transaction {
	from := s.accounts[s.rng.Intn(len(s.accounts))]
	home := meepo.ShardIndex(from, s.shards)
	to := from
	if s.shards > 1 && s.rng.Float64() < s.crossRate {
		for i := 0; i < 32; i++ {
			to = s.accounts[s.rng.Intn(len(s.accounts))]
			if meepo.ShardIndex(to, s.shards) != home {
				break
			}
		}
	} else {
		pool := s.byShard[home] // never empty: from lives there
		to = pool[s.rng.Intn(len(pool))]
		for i := 0; i < 32 && to == from; i++ {
			to = pool[s.rng.Intn(len(pool))]
		}
	}
	amount := 1 + s.rng.Intn(10)
	return &chain.Transaction{
		ClientID: clientID,
		ServerID: serverID,
		Contract: smallbank.ContractName,
		Op:       smallbank.OpTransfer,
		Args:     []string{from, to, fmt.Sprint(amount)},
		From:     from,
		Nonce:    s.nextNonce(),
	}
}

// familySetup binds one family×size point to its load and fault scenarios.
type familySetup struct {
	family    string
	size      int
	offered   float64
	txTimeout time.Duration
	crossRate float64
	build     func(sched eventsim.Sched, opts Options) chain.Blockchain
	// source, when set, replaces the default SmallBank generator (Meepo's
	// cross-shard-rate source); it is built per run from the run seed.
	source func(seed int64, opts Options) core.TxSource
	engCfg func(*core.Config)
	crash  func(fault, heal time.Duration) chaos.Scenario
	// partition is the family's N-way split: per-shard groups for Meepo
	// (severing every cross-shard relay while each shard keeps quorum),
	// a three-way validator split for the committee (no group reaches the
	// 2f+1 quorum, so consensus stalls entirely until the heal).
	partition func(fault, heal time.Duration) chaos.Scenario
}

func meepoFamilySetup(n int, opts Options) familySetup {
	members := meepo.DefaultConfig().MembersPerShard
	offered := 1500 * float64(n)
	if offered > 12000 {
		offered = 12000
	}
	return familySetup{
		family:    "meepo",
		size:      n,
		offered:   offered,
		txTimeout: 8 * time.Second,
		crossRate: opts.CrossShardRate,
		build: func(sched eventsim.Sched, opts Options) chain.Blockchain {
			cfg := meepo.DefaultConfig()
			cfg.Shards = n
			cfg.PendingCapPerShard = 12000
			cfg.State = opts.stateFactory()
			return meepo.New(sched, cfg)
		},
		source: func(seed int64, opts Options) core.TxSource {
			return newCrossShardSource(seed, opts.Accounts, n, opts.CrossShardRate)
		},
		engCfg: func(c *core.Config) {
			c.Clients = 8
			c.SubmitCost = 100 * time.Microsecond
		},
		// Losing 2 of shard 0's members breaks its quorum: that shard's
		// slice of the account space stalls while the others keep sealing.
		crash: func(fault, heal time.Duration) chaos.Scenario {
			down := []string{"shard0-member0", "shard0-member1"}
			return chaos.Scenario{Name: fmt.Sprintf("meepo-%d/crash", n), Events: []chaos.Event{
				{At: fault, Kind: chaos.KindCrash, Nodes: down},
				{At: heal, Kind: chaos.KindRestart, Nodes: down},
			}}
		},
		// One group per shard: every shard keeps its internal quorum and
		// commits intra-shard traffic, but all cross-epoch relays are
		// severed, so in-flight cross-shard credits are lost until the
		// driver's retries complete them after the heal.
		partition: func(fault, heal time.Duration) chaos.Scenario {
			groups := make([][]string, n)
			for sh := range groups {
				for j := 0; j < members; j++ {
					groups[sh] = append(groups[sh], fmt.Sprintf("shard%d-member%d", sh, j))
				}
			}
			return chaos.Scenario{Name: fmt.Sprintf("meepo-%d/partition", n), Events: []chaos.Event{
				{At: fault, Kind: chaos.KindPartition, Groups: groups},
				{At: heal, Kind: chaos.KindHeal},
			}}
		},
	}
}

func committeeFamilySetup(n int, opts Options) familySetup {
	// Crash the tolerated fault budget f = (n-1)/3; the committee keeps
	// committing but dips whenever rotation lands on a dead proposer. A
	// committee too small to tolerate any fault (f = 0) loses one validator
	// anyway — quorum breaks and the row measures a full stall-and-recover.
	crashCount := committee.MaxFaulty(n)
	if crashCount == 0 {
		crashCount = 1
	}
	crashed := make([]string, 0, crashCount)
	for i := n - crashCount; i < n; i++ {
		crashed = append(crashed, committee.Validator(i))
	}
	return familySetup{
		family:    "committee",
		size:      n,
		offered:   1200,
		txTimeout: 8 * time.Second,
		build: func(sched eventsim.Sched, opts Options) chain.Blockchain {
			cfg := committee.DefaultConfig()
			cfg.Validators = n
			cfg.State = opts.stateFactory()
			return committee.New(sched, cfg)
		},
		engCfg: func(c *core.Config) {
			c.Clients = 4
			c.SubmitCost = 200 * time.Microsecond
			c.Workload.OpMix = map[string]float64{smallbank.OpTransfer: 1}
		},
		crash: func(fault, heal time.Duration) chaos.Scenario {
			return chaos.Scenario{Name: fmt.Sprintf("committee-%d/crash", n), Events: []chaos.Event{
				{At: fault, Kind: chaos.KindCrash, Nodes: crashed},
				{At: heal, Kind: chaos.KindRestart, Nodes: crashed},
			}}
		},
		partition: func(fault, heal time.Duration) chaos.Scenario {
			k := 3
			if n < k {
				k = n
			}
			groups := make([][]string, k)
			for i := 0; i < n; i++ {
				groups[i%k] = append(groups[i%k], committee.Validator(i))
			}
			return chaos.Scenario{Name: fmt.Sprintf("committee-%d/partition", n), Events: []chaos.Event{
				{At: fault, Kind: chaos.KindPartition, Groups: groups},
				{At: heal, Kind: chaos.KindHeal},
			}}
		},
	}
}

// familySetups expands the two scale axes into per-point setups.
func familySetups(opts Options) []familySetup {
	var setups []familySetup
	for _, n := range opts.FamilyShards {
		setups = append(setups, meepoFamilySetup(n, opts))
	}
	for _, n := range opts.FamilyCommittees {
		setups = append(setups, committeeFamilySetup(n, opts))
	}
	return setups
}

// familyScenario is one of the three scenarios each point runs through;
// scen is nil for the healthy baseline.
type familyScenario struct {
	name string
	scen *chaos.Scenario
}

func familyScenarios(setup familySetup, fault, heal time.Duration) []familyScenario {
	crash := setup.crash(fault, heal)
	part := setup.partition(fault, heal)
	return []familyScenario{
		{"none", nil},
		{"crash", &crash},
		{"partition", &part},
	}
}

// FamiliesRuns returns the family×size×scenario sweep as harness runs.
func FamiliesRuns(opts Options) []harness.Run[FamilyResult] {
	opts.fillDefaults()
	faultSec, healSec := faultTimes(opts)
	fault := time.Duration(faultSec) * time.Second
	heal := time.Duration(healSec) * time.Second

	var runs []harness.Run[FamilyResult]
	for _, setup := range familySetups(opts) {
		for _, sc := range familyScenarios(setup, fault, heal) {
			setup, sc := setup, sc
			var inj *chaos.Injector
			runs = append(runs, harness.Run[FamilyResult]{
				Name: fmt.Sprintf("families/%s-%d/%s", setup.family, setup.size, sc.name),
				Seed: opts.Seed,
				Build: func(seed int64) (eventsim.Sched, chain.Blockchain, core.Config, error) {
					sched := eventsim.New()
					bc := setup.build(sched, opts)
					cfg := core.DefaultConfig()
					cfg.Seed = seed
					cfg.Workload.Accounts = opts.Accounts
					cfg.Workload.Seed = seed
					cfg.Control = workload.Constant(setup.offered, time.Duration(opts.MeasureSeconds)*time.Second, time.Second)
					cfg.SignMode = core.SignOff
					cfg.Metrics = monitor.NewRegistry()
					cfg.TxTimeout = setup.txTimeout
					cfg.MaxRetries = 2
					cfg.RetryBackoff = 500 * time.Millisecond
					if setup.source != nil {
						cfg.Source = setup.source(seed, opts)
						cfg.Contract = smallbank.Contract{}
					}
					if setup.engCfg != nil {
						setup.engCfg(&cfg)
					}
					inj = nil
					if sc.scen != nil {
						nf, ok := bc.(chaos.NodeFaulter)
						if !ok {
							return nil, nil, core.Config{}, fmt.Errorf("families: chain %s exposes no liveness hooks", setup.family)
						}
						var err error
						inj, err = chaos.NewInjector(sched, nf, *sc.scen, cfg.Metrics)
						if err != nil {
							return nil, nil, core.Config{}, err
						}
						cfg.OnMeasureStart = func(start time.Duration) { inj.Arm(start) }
					}
					return sched, bc, cfg, nil
				},
				Digest: func(res *core.Result, bc chain.Blockchain) (FamilyResult, error) {
					rep := res.Report
					rec := chaos.AnalyzeRecovery(rep.TPSSeries, faultSec, healSec, 0.7)
					row := FamilyResult{
						Family:          setup.family,
						Size:            setup.size,
						Scenario:        sc.name,
						CrossRate:       setup.crossRate,
						Throughput:      rep.Throughput,
						AvgLatency:      rep.AvgLatency,
						P95Latency:      rep.P95Latency,
						Committed:       rep.Committed,
						TimedOut:        rep.TimedOut,
						Rejected:        rep.Rejected,
						Retried:         res.Retried,
						BaselineTPS:     rec.BaselineTPS,
						DipTPS:          rec.DipTPS,
						Recovered:       rec.Recovered,
						RecoverySeconds: rec.RecoverySeconds,
						Series:          rep.TPSSeries,
					}
					if inj != nil {
						row.FaultEvents = len(inj.Applied())
					}
					if s, ok := bc.(interface{ Stranded() int }); ok {
						row.Stranded = s.Stranded()
					}
					if v, ok := bc.(interface{ ViewChanges() int }); ok {
						row.ViewChanges = v.ViewChanges()
					}
					return row, nil
				},
			})
		}
	}
	return runs
}

// Families runs the consensus-family sweep: Meepo at each shard count and
// the BFT committee at each committee size, each through the healthy, crash
// and N-way-partition scenarios.
func Families(ctx context.Context, opts Options) ([]FamilyResult, error) {
	opts.fillDefaults()
	rows, err := harness.Collect(harness.Execute(ctx, FamiliesRuns(opts), opts.harnessOptions()))
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return rows, nil
}

// FamiliesCSV renders the summary rows.
func FamiliesCSV(rows []FamilyResult) (header []string, records [][]string) {
	header = []string{"family", "size", "scenario", "cross_rate", "throughput_tps",
		"avg_latency_s", "p95_latency_s", "committed", "timed_out", "rejected",
		"retried", "stranded", "view_changes", "baseline_tps", "dip_tps",
		"recovered", "recovery_s", "fault_events"}
	for _, r := range rows {
		records = append(records, []string{
			r.Family, fmt.Sprint(r.Size), r.Scenario, fmtF(r.CrossRate), fmtF(r.Throughput),
			fmtSeconds(r.AvgLatency), fmtSeconds(r.P95Latency), fmt.Sprint(r.Committed),
			fmt.Sprint(r.TimedOut), fmt.Sprint(r.Rejected), fmt.Sprint(r.Retried),
			fmt.Sprint(r.Stranded), fmt.Sprint(r.ViewChanges), fmtF(r.BaselineTPS),
			fmtF(r.DipTPS), fmt.Sprint(r.Recovered), fmt.Sprint(r.RecoverySeconds),
			fmt.Sprint(r.FaultEvents),
		})
	}
	return header, records
}

// FamiliesTimelineCSV renders the per-second TPS timelines in long form for
// plotting the dip-and-recovery curves.
func FamiliesTimelineCSV(rows []FamilyResult) (header []string, records [][]string) {
	header = []string{"family", "size", "scenario", "second", "tps"}
	for _, r := range rows {
		for sec, tps := range r.Series {
			records = append(records, []string{
				r.Family, fmt.Sprint(r.Size), r.Scenario, fmt.Sprint(sec), fmtF(tps),
			})
		}
	}
	return header, records
}
