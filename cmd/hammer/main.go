// Command hammer runs one blockchain evaluation end to end: deploy a
// (simulated) system under test, generate and sign a SmallBank workload,
// execute it under a control sequence, and report throughput and latency —
// the paper's Fig 3 execution flow in one invocation.
//
// Usage:
//
//	hammer -chain fabric -rate 300 -duration 30s
//	hammer -playbook deploy.json -rate 2000 -clients 4 -driver hammer
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"hammer"
	"hammer/internal/chain"
	"hammer/internal/store/pagedstate"
	"hammer/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hammer:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		chainKind    = flag.String("chain", "fabric", "SUT to deploy: ethereum|fabric|neuchain|meepo|committee")
		workloadKind = flag.String("workload", "smallbank", "workload: smallbank | ycsb-a..ycsb-f")
		playbook     = flag.String("playbook", "", "JSON deployment playbook (overrides -chain)")
		rate         = flag.Float64("rate", 200, "offered load in tx/s")
		duration     = flag.Duration("duration", 30*time.Second, "measurement window (virtual time)")
		accounts     = flag.Int("accounts", 5000, "SmallBank account population")
		clients      = flag.Int("clients", 2, "client machines")
		threads      = flag.Int("threads", 2, "worker threads per client")
		driver       = flag.String("driver", "hammer", "measurement driver: hammer|batch|interactive")
		signMode     = flag.String("sign", "async", "signing strategy: serial|async|pipelined|off")
		seed         = flag.Int64("seed", 7, "random seed")
		outDir       = flag.String("out", "", "directory for CSV export (optional)")
		showViz      = flag.Bool("viz", true, "run the SQL visualization phase")
		stateKind    = flag.String("state", "mem", "world-state backend: mem (in-RAM map) | paged (disk-backed paged store)")
		stateCacheMB = flag.Int("state-cache-mb", 64, "page-cache budget per state instance for -state=paged, in MiB")
		stateDir     = flag.String("state-dir", "", "directory for paged-state files (default: OS temp); run files are removed at exit")
		stateSnap    = flag.String("state-snapshot", "", "paged-state snapshot path: load it and skip account setup when it exists, save the final state there otherwise (-state=paged, single-state chains)")
	)
	flag.Parse()

	states := &pagedStates{cacheMB: *stateCacheMB, baseDir: *stateDir, accounts: *accounts}
	defer states.close()

	sched := hammer.NewScheduler()
	bc, err := buildChain(sched, *playbook, *chainKind, *stateKind, states)
	if err != nil {
		return err
	}

	cfg := hammer.DefaultEvalConfig()
	cfg.Workload.Accounts = *accounts
	cfg.Workload.Seed = *seed
	cfg.Seed = *seed
	if strings.HasPrefix(*workloadKind, "ycsb-") {
		p := hammer.DefaultYCSBProfile()
		p.Records = *accounts
		p.Workload = strings.TrimPrefix(*workloadKind, "ycsb-")
		p.Seed = *seed
		gen, err := hammer.NewYCSBGenerator(p)
		if err != nil {
			return err
		}
		cfg.Source = gen
		cfg.Contract = hammer.YCSB()
	} else if *workloadKind != "smallbank" {
		return fmt.Errorf("unknown workload %q", *workloadKind)
	}
	cfg.Clients = *clients
	cfg.Threads = *threads
	cfg.Control = hammer.ConstantLoad(*rate, *duration, time.Second)
	switch *driver {
	case "hammer":
		cfg.Driver = hammer.DriverHammer
	case "batch":
		cfg.Driver = hammer.DriverBatch
	case "interactive":
		cfg.Driver = hammer.DriverInteractive
	default:
		return fmt.Errorf("unknown driver %q", *driver)
	}
	switch *signMode {
	case "serial":
		cfg.SignMode = hammer.SignSerial
	case "async":
		cfg.SignMode = hammer.SignAsync
	case "pipelined":
		cfg.SignMode = hammer.SignPipelined
	case "off":
		cfg.SignMode = hammer.SignOff
	default:
		return fmt.Errorf("unknown sign mode %q", *signMode)
	}

	// Snapshot warm-start: an existing capture is mounted in place of the
	// account-setup phase; a missing one is written from the final state so
	// the next invocation warm-starts.
	warmStarted := false
	if *stateSnap != "" {
		if *stateKind != "paged" {
			return fmt.Errorf("-state-snapshot requires -state=paged")
		}
		loaded, err := states.loadSnapshot(*stateSnap)
		if err != nil {
			return err
		}
		if loaded {
			cfg.SkipSetup = true
			warmStarted = true
			fmt.Printf("warm start: mounted %d keys from %s, skipping account setup\n",
				states.stores[0].Len(), *stateSnap)
		}
	}

	fmt.Printf("evaluating %s under %s: %d tx at %.0f tx/s over %v (%d clients × %d threads, %s driver)\n",
		bc.Name(), *workloadKind, cfg.Control.Total(), *rate, *duration, *clients, *threads, *driver)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := hammer.Evaluate(ctx, sched, bc, cfg)
	if err != nil {
		return err
	}
	rep := res.Report
	fmt.Println()
	fmt.Println(rep)
	if *stateKind == "paged" {
		states.printStats()
		if *stateSnap != "" && !warmStarted {
			if err := states.saveSnapshot(*stateSnap); err != nil {
				return err
			}
			fmt.Printf("saved state snapshot to %s (next run warm-starts)\n", *stateSnap)
		}
	}
	fmt.Printf("preparation (real): %v; run covered %v of virtual time\n",
		res.PrepDuration.Round(time.Millisecond), res.VirtualDuration.Round(time.Millisecond))

	viz.LineChart(os.Stdout, fmt.Sprintf("committed TPS per second (%s)", bc.Name()),
		[]viz.Series{{Name: "tps", Y: rep.TPSSeries}}, 72, 12)

	if bc.Shards() > 1 {
		fmt.Println("per-shard breakdown:")
		for shard := 0; shard < bc.Shards(); shard++ {
			if ss, ok := rep.PerShard[shard]; ok {
				fmt.Printf("  shard %d: %d committed (%.1f TPS), %d aborted, avg latency %v\n",
					shard, ss.Committed, ss.Throughput, ss.Aborted, ss.AvgLatency.Round(time.Millisecond))
			}
		}
	}

	if *showViz {
		vr, err := hammer.Visualize(res.Records)
		if err != nil {
			return err
		}
		fmt.Printf("visualization: %d rows staged; Table II TPS query → %d sub-second commits; avg latency %.1f ms over %d rows\n",
			vr.RowsStaged, vr.SubSecondCommits, vr.AvgLatencyMs, vr.LatencyRows)
	}

	rows := make([][]string, len(rep.TPSSeries))
	for i, v := range rep.TPSSeries {
		rows[i] = []string{fmt.Sprint(i), fmt.Sprintf("%.0f", v)}
	}
	return viz.Export(os.Stdout, *outDir, viz.Dataset{Name: "run_tps.csv", Header: []string{"second", "tps"}, Rows: rows})
}

func buildChain(sched *hammer.Scheduler, playbookPath, kind, stateKind string, states *pagedStates) (hammer.Blockchain, error) {
	var factory chain.StateFactory
	switch stateKind {
	case "", "mem":
	case "paged":
		factory = states.factory()
	default:
		return nil, fmt.Errorf("unknown state backend %q (want mem|paged)", stateKind)
	}
	if playbookPath != "" {
		if factory != nil {
			return nil, fmt.Errorf("-state=paged is not supported with -playbook deployments")
		}
		pb, err := hammer.LoadPlaybook(playbookPath)
		if err != nil {
			return nil, err
		}
		return hammer.DeployPlaybook(pb, sched)
	}
	switch kind {
	case "ethereum":
		cfg := hammer.DefaultEthereumConfig()
		cfg.State = factory
		return hammer.NewEthereum(sched, cfg), nil
	case "fabric":
		cfg := hammer.DefaultFabricConfig()
		cfg.State = factory
		return hammer.NewFabric(sched, cfg), nil
	case "neuchain":
		cfg := hammer.DefaultNeuchainConfig()
		cfg.State = factory
		return hammer.NewNeuchain(sched, cfg), nil
	case "meepo":
		cfg := hammer.DefaultMeepoConfig()
		cfg.State = factory
		return hammer.NewMeepo(sched, cfg), nil
	case "committee":
		cfg := hammer.DefaultCommitteeConfig()
		cfg.State = factory
		return hammer.NewCommittee(sched, cfg), nil
	default:
		return nil, fmt.Errorf("unknown chain %q (want one of %v)", kind, hammer.ChainKinds())
	}
}

// pagedStates tracks the paged stores a run mounts behind the chain.State
// seam: the factory hands one store per state instance (sharded chains call
// it once per shard), and close releases files at exit.
type pagedStates struct {
	cacheMB  int
	baseDir  string
	accounts int
	stores   []*pagedstate.Store
	dirs     []string
}

func (p *pagedStates) factory() chain.StateFactory {
	return func() *chain.State {
		base := p.baseDir
		if base == "" {
			base = os.TempDir()
		}
		dir, err := os.MkdirTemp(base, "hammer-state-")
		if err != nil {
			panic(fmt.Sprintf("paged state dir: %v", err))
		}
		st, err := pagedstate.Open(pagedstate.Config{
			Dir:          dir,
			CacheBytes:   p.cacheMB << 20,
			ExpectedKeys: 4 * p.accounts,
		})
		if err != nil {
			os.RemoveAll(dir)
			panic(fmt.Sprintf("paged state open: %v", err))
		}
		p.stores = append(p.stores, st)
		p.dirs = append(p.dirs, dir)
		return chain.NewStateOn(st)
	}
}

// loadSnapshot mounts a capture when the file exists; ok reports whether it
// did. Snapshots cover single-state chains only — a sharded deployment has
// no single store to restore into.
func (p *pagedStates) loadSnapshot(path string) (ok bool, err error) {
	if _, err := os.Stat(path); err != nil {
		return false, nil
	}
	if len(p.stores) != 1 {
		return false, fmt.Errorf("-state-snapshot needs exactly one state instance, chain has %d (sharded chains are not supported)", len(p.stores))
	}
	if err := p.stores[0].LoadSnapshot(path); err != nil {
		return false, fmt.Errorf("loading snapshot %s: %w", path, err)
	}
	return true, nil
}

func (p *pagedStates) saveSnapshot(path string) error {
	if len(p.stores) != 1 {
		return fmt.Errorf("-state-snapshot needs exactly one state instance, chain has %d (sharded chains are not supported)", len(p.stores))
	}
	if err := p.stores[0].SaveSnapshot(path); err != nil {
		return fmt.Errorf("saving snapshot %s: %w", path, err)
	}
	return nil
}

func (p *pagedStates) printStats() {
	for i, st := range p.stores {
		s := st.Stats()
		fmt.Printf("paged state %d: %d keys, cache hit %.1f%% (%d MiB budget, %d pages resident), bloom-negatives %d, WAL %.1f MiB over %d flushes\n",
			i, s.LiveKeys, 100*s.HitRate(), s.CacheBudgetBytes>>20, s.ResidentPages, s.BloomNegatives,
			float64(s.WALBytes)/(1<<20), s.WALFlushes)
	}
}

func (p *pagedStates) close() {
	for i, st := range p.stores {
		st.Close()
		os.RemoveAll(p.dirs[i])
	}
	p.stores, p.dirs = nil, nil
}
