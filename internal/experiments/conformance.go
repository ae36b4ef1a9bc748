package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"hammer/internal/chain"
	"hammer/internal/chains/committee"
	"hammer/internal/chains/ethereum"
	"hammer/internal/chains/fabric"
	"hammer/internal/chains/meepo"
	"hammer/internal/chains/neuchain"
	"hammer/internal/core"
	"hammer/internal/eventsim"
	"hammer/internal/harness"
	"hammer/internal/invariant"
	"hammer/internal/smallbank"
	"hammer/internal/workload"
)

// The conformance experiment is not a performance study: it sweeps every
// simulated chain through the invariant catalogue (internal/invariant) and
// reports pass/fail per suite. Suites:
//
//   - invariants: one instrumented run per chain; every streaming invariant
//     (height contiguity, hash chain, seal, receipt alignment,
//     no-double-commit, gas cap) plus end-of-run conservation must hold.
//   - determinism: two runs from the same seed must produce bitwise-identical
//     commit sequences and world state (neuchain's deterministic-execution
//     claim, applied to all four chains).
//   - replay: the committed schedule re-executed serially must reproduce the
//     live state — order-execute chains must match trivially; for Fabric this
//     is the serializability oracle for its MVCC validator. (Meepo is skipped:
//     a cross-shard transfer's debit and credit live in different shards'
//     blocks, so per-shard serial re-execution does not apply.)
//   - workers: the same run set executed at harness worker counts {1, 4,
//     NumCPU} must produce identical digests — parallelism must not leak into
//     results.
//   - scheduler: a chain-shaped event program interpreted on the timer-wheel
//     scheduler and the preserved binary-heap reference must produce
//     identical event logs (the differential replay oracle).

// ConformanceResult is one chain×suite verdict.
type ConformanceResult struct {
	Chain string
	Suite string
	Pass  bool
	// Detail says what was checked on pass, or what broke on failure.
	Detail string
}

// String renders the row.
func (r ConformanceResult) String() string {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%-9s %-12s %s  %s", r.Chain, r.Suite, verdict, r.Detail)
}

// conformanceRun is the instrumented outcome of one engine run.
type conformanceRun struct {
	Chain        string
	Violations   []invariant.Violation
	CommitDigest string
	StateDigest  string
	Commits      int
	ReplayErr    error
	Replayed     bool
}

// conformanceSetup binds one chain to its load and oracle parameters.
type conformanceSetup struct {
	name    string
	offered float64
	build   func(sched eventsim.Sched, opts Options) chain.Blockchain
	engCfg  func(*core.Config)
	// replayable marks chains whose committed schedule re-executes serially
	// per shard (everything except meepo's cross-shard split transactions).
	replayable bool
	// program shapes the scheduler-oracle workload like this chain's block
	// production.
	program func(seed int64) invariant.Program
}

// conformanceSetups returns every chain family under moderate load — the
// goal is coverage of the commit paths, not peak throughput. Meepo appears
// at N ∈ {2, 4, 8} shards (the N=4 entry reshards to 8 mid-run, so the
// dynamic join path is under the same digests-at-any-worker-count proof),
// and the committee chain runs all five suites including serial replay.
func conformanceSetups(opts Options) []conformanceSetup {
	return []conformanceSetup{
		{
			name:    "ethereum",
			offered: 12,
			build: func(sched eventsim.Sched, opts Options) chain.Blockchain {
				cfg := ethereum.DefaultConfig()
				cfg.Seed = opts.Seed
				cfg.State = opts.stateFactory()
				return ethereum.New(sched, cfg)
			},
			engCfg:     func(c *core.Config) { c.DrainTimeout = 5 * time.Minute },
			replayable: true,
			// PoW: slow stochastic block cadence, gas-capped (count-cut) blocks.
			program: func(seed int64) invariant.Program {
				return invariant.Program{
					Seed: seed, Duration: 2 * time.Second,
					InjectEvery: 5 * time.Millisecond, JitterFrac: 0.8,
					CutSize: 60, BatchTimeout: 300 * time.Millisecond,
					ExecCost: 20 * time.Millisecond, PollEvery: 100 * time.Millisecond,
				}
			},
		},
		{
			name:    "fabric",
			offered: 120,
			build: func(sched eventsim.Sched, opts Options) chain.Blockchain {
				cfg := fabric.DefaultConfig()
				cfg.State = opts.stateFactory()
				return fabric.New(sched, cfg)
			},
			engCfg: func(c *core.Config) {
				c.Clients = 4
				c.SubmitCost = 500 * time.Microsecond
			},
			replayable: true,
			// Orderer: count-cut blocks with a batch timeout backstop.
			program: func(seed int64) invariant.Program {
				return invariant.Program{
					Seed: seed, Duration: 2 * time.Second,
					InjectEvery: 2 * time.Millisecond, JitterFrac: 0.5,
					CutSize: 100, BatchTimeout: 250 * time.Millisecond,
					ExecCost: 15 * time.Millisecond, PollEvery: 100 * time.Millisecond,
				}
			},
		},
		{
			name:    "meepo",
			offered: 2500,
			build: func(sched eventsim.Sched, opts Options) chain.Blockchain {
				cfg := meepo.DefaultConfig()
				cfg.State = opts.stateFactory()
				return meepo.New(sched, cfg)
			},
			engCfg: func(c *core.Config) {
				c.Clients = 8
				c.SubmitCost = 100 * time.Microsecond
			},
			replayable: false,
			// Epoch-driven: pure timeout cutting, count cut never fires.
			program: func(seed int64) invariant.Program {
				return invariant.Program{
					Seed: seed, Duration: 2 * time.Second,
					InjectEvery: 400 * time.Microsecond, JitterFrac: 0.5,
					CutSize: 1 << 20, BatchTimeout: 50 * time.Millisecond,
					ExecCost: 8 * time.Millisecond, PollEvery: 100 * time.Millisecond,
				}
			},
		},
		{
			name:    "meepo-n4",
			offered: 2500,
			build: func(sched eventsim.Sched, opts Options) chain.Blockchain {
				cfg := meepo.DefaultConfig()
				cfg.Shards = 4
				cfg.State = opts.stateFactory()
				// Join four more shards mid-run: the dynamic reshard path
				// must hold every digest identity the static layout does.
				cfg.Reshard = []meepo.ReshardEvent{
					{At: time.Duration(opts.MeasureSeconds) * time.Second / 2, Shards: 8},
				}
				return meepo.New(sched, cfg)
			},
			engCfg: func(c *core.Config) {
				c.Clients = 8
				c.SubmitCost = 100 * time.Microsecond
			},
			replayable: false,
			program: func(seed int64) invariant.Program {
				return invariant.Program{
					Seed: seed, Duration: 2 * time.Second,
					InjectEvery: 400 * time.Microsecond, JitterFrac: 0.5,
					CutSize: 1 << 20, BatchTimeout: 40 * time.Millisecond,
					ExecCost: 6 * time.Millisecond, PollEvery: 100 * time.Millisecond,
				}
			},
		},
		{
			name:    "meepo-n8",
			offered: 3000,
			build: func(sched eventsim.Sched, opts Options) chain.Blockchain {
				cfg := meepo.DefaultConfig()
				cfg.Shards = 8
				cfg.State = opts.stateFactory()
				return meepo.New(sched, cfg)
			},
			engCfg: func(c *core.Config) {
				c.Clients = 8
				c.SubmitCost = 100 * time.Microsecond
			},
			replayable: false,
			program: func(seed int64) invariant.Program {
				return invariant.Program{
					Seed: seed, Duration: 2 * time.Second,
					InjectEvery: 300 * time.Microsecond, JitterFrac: 0.5,
					CutSize: 1 << 20, BatchTimeout: 30 * time.Millisecond,
					ExecCost: 4 * time.Millisecond, PollEvery: 100 * time.Millisecond,
				}
			},
		},
		{
			name:    "committee",
			offered: 2000,
			build: func(sched eventsim.Sched, opts Options) chain.Blockchain {
				cfg := committee.DefaultConfig()
				cfg.State = opts.stateFactory()
				return committee.New(sched, cfg)
			},
			engCfg: func(c *core.Config) {
				c.Clients = 8
				c.SubmitCost = 100 * time.Microsecond
			},
			replayable: true,
			// BFT rounds: paced proposals with two vote round trips folded
			// into the per-block cost.
			program: func(seed int64) invariant.Program {
				return invariant.Program{
					Seed: seed, Duration: 2 * time.Second,
					InjectEvery: 500 * time.Microsecond, JitterFrac: 0.5,
					CutSize: 2000, BatchTimeout: 250 * time.Millisecond,
					ExecCost: 10 * time.Millisecond, PollEvery: 100 * time.Millisecond,
				}
			},
		},
		{
			name:    "neuchain",
			offered: 4000,
			build: func(sched eventsim.Sched, opts Options) chain.Blockchain {
				cfg := neuchain.DefaultConfig()
				cfg.State = opts.stateFactory()
				return neuchain.New(sched, cfg)
			},
			engCfg: func(c *core.Config) {
				c.Clients = 8
				c.SubmitCost = 100 * time.Microsecond
			},
			replayable: true,
			// Fast epochs: high injection rate, small exec cost.
			program: func(seed int64) invariant.Program {
				return invariant.Program{
					Seed: seed, Duration: 2 * time.Second,
					InjectEvery: 250 * time.Microsecond, JitterFrac: 0.5,
					CutSize: 500, BatchTimeout: 50 * time.Millisecond,
					ExecCost: 5 * time.Millisecond, PollEvery: 100 * time.Millisecond,
				}
			},
		},
	}
}

// conformanceStateDigest fingerprints whatever world state the chain
// exposes (single state or per-shard states).
func conformanceStateDigest(bc chain.Blockchain) string {
	switch c := bc.(type) {
	case interface{ State() *chain.State }:
		return invariant.StateDigest(c.State())
	case interface {
		ShardState(int) (*chain.State, error)
	}:
		var states []*chain.State
		for sh := 0; sh < bc.Shards(); sh++ {
			st, err := c.ShardState(sh)
			if err != nil {
				return "unavailable"
			}
			states = append(states, st)
		}
		return invariant.StateDigest(states...)
	default:
		return "unavailable"
	}
}

// conformanceRuns builds two identical instrumented runs per chain: the
// pair feeds the determinism suite, and each run feeds the invariant,
// replay and worker suites.
func conformanceRuns(opts Options) []harness.Run[conformanceRun] {
	var runs []harness.Run[conformanceRun]
	for _, setup := range conformanceSetups(opts) {
		for rep := 0; rep < 2; rep++ {
			setup, rep := setup, rep
			runs = append(runs, harness.Run[conformanceRun]{
				Name: fmt.Sprintf("conformance/%s/run%d", setup.name, rep),
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
					cfg.Invariants = true
					if setup.engCfg != nil {
						setup.engCfg(&cfg)
					}
					return sched, bc, cfg, nil
				},
				Digest: func(res *core.Result, bc chain.Blockchain) (conformanceRun, error) {
					row := conformanceRun{
						Chain:        setup.name,
						Violations:   res.Violations,
						CommitDigest: res.CommitDigest,
						StateDigest:  conformanceStateDigest(bc),
						Commits:      res.Report.Committed,
					}
					// Replaying once per chain is enough; it is the most
					// expensive check.
					if setup.replayable && rep == 0 {
						row.Replayed = true
						row.ReplayErr = conformanceReplay(bc)
					}
					return row, nil
				},
			})
		}
	}
	return runs
}

// conformanceReplay re-executes every shard's committed schedule serially
// and diffs the result against the live state.
func conformanceReplay(bc chain.Blockchain) error {
	single, ok := bc.(interface{ State() *chain.State })
	if !ok {
		return fmt.Errorf("chain exposes no state for replay")
	}
	replayed, err := invariant.ReplaySerial(bc, 0, smallbank.Contract{})
	if err != nil {
		return err
	}
	return invariant.DiffStates(replayed, single.State())
}

// conformanceWorkerCounts is the sweep of harness worker counts the workers
// suite compares: serial, a fixed small pool, and one worker per core.
func conformanceWorkerCounts() []int {
	counts := []int{1, 4, runtime.NumCPU()}
	var out []int
	for _, c := range counts {
		dup := false
		for _, seen := range out {
			dup = dup || seen == c
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// Conformance sweeps every chain through the conformance suites and returns
// one verdict row per chain×suite.
func Conformance(ctx context.Context, opts Options) ([]ConformanceResult, error) {
	opts.fillDefaults()
	runs := conformanceRuns(opts)

	// Baseline execution, serial: the reference digests every other worker
	// count must reproduce.
	workerCounts := conformanceWorkerCounts()
	byWorkers := make(map[int][]conformanceRun, len(workerCounts))
	for _, wc := range workerCounts {
		hopts := harness.Options{Workers: wc, OnProgress: opts.OnProgress}
		rows, err := harness.Collect(harness.Execute(ctx, runs, hopts))
		if err != nil {
			return nil, fmt.Errorf("experiments: conformance (workers=%d): %w", wc, err)
		}
		byWorkers[wc] = rows
	}
	base := byWorkers[workerCounts[0]]

	var out []ConformanceResult
	for i, setup := range conformanceSetups(opts) {
		run0, run1 := base[2*i], base[2*i+1]

		// invariants: streaming catalogue + conservation, and the run must
		// actually have exercised the chain.
		inv := ConformanceResult{Chain: setup.name, Suite: "invariants", Pass: true,
			Detail: fmt.Sprintf("%d commits, 0 violations", run0.Commits)}
		if len(run0.Violations) > 0 {
			inv.Pass = false
			inv.Detail = fmt.Sprintf("%d violations, first: %s", len(run0.Violations), run0.Violations[0])
		} else if run0.Commits == 0 {
			inv.Pass = false
			inv.Detail = "run committed nothing"
		}
		out = append(out, inv)

		// determinism: same seed, same commit sequence and world state.
		det := ConformanceResult{Chain: setup.name, Suite: "determinism", Pass: true,
			Detail: "commit and state digests identical across same-seed runs"}
		if run0.CommitDigest != run1.CommitDigest {
			det.Pass = false
			det.Detail = "commit digests differ between same-seed runs"
		} else if run0.StateDigest != run1.StateDigest {
			det.Pass = false
			det.Detail = "state digests differ between same-seed runs"
		}
		out = append(out, det)

		// replay: serial re-execution of the committed schedule.
		if setup.replayable {
			rep := ConformanceResult{Chain: setup.name, Suite: "replay", Pass: true,
				Detail: "serial replay reproduces the live state"}
			if !run0.Replayed {
				rep.Pass = false
				rep.Detail = "replay did not run"
			} else if run0.ReplayErr != nil {
				rep.Pass = false
				rep.Detail = run0.ReplayErr.Error()
			}
			out = append(out, rep)
		}

		// workers: digests identical at every worker count.
		wrk := ConformanceResult{Chain: setup.name, Suite: "workers", Pass: true,
			Detail: fmt.Sprintf("digests identical at workers=%v", workerCounts)}
		for _, wc := range workerCounts[1:] {
			rows := byWorkers[wc]
			for _, j := range []int{2 * i, 2*i + 1} {
				if rows[j].CommitDigest != base[j].CommitDigest || rows[j].StateDigest != base[j].StateDigest {
					wrk.Pass = false
					wrk.Detail = fmt.Sprintf("digest changed between workers=%d and workers=%d", workerCounts[0], wc)
				}
			}
		}
		out = append(out, wrk)

		// scheduler: the differential replay oracle on a chain-shaped
		// program — timer wheel vs binary-heap reference.
		sch := ConformanceResult{Chain: setup.name, Suite: "scheduler", Pass: true,
			Detail: "wheel and heap schedulers match event-for-event"}
		if err := invariant.DiffSchedulers(setup.program(opts.Seed)); err != nil {
			sch.Pass = false
			sch.Detail = err.Error()
		}
		out = append(out, sch)
	}
	return out, nil
}

// ConformanceCSV renders the verdict rows.
func ConformanceCSV(rows []ConformanceResult) (header []string, records [][]string) {
	header = []string{"chain", "suite", "pass", "detail"}
	for _, r := range rows {
		records = append(records, []string{r.Chain, r.Suite, fmt.Sprint(r.Pass), r.Detail})
	}
	return header, records
}
