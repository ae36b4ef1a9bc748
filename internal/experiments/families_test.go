package experiments

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hammer/internal/chain"
	"hammer/internal/chaos"
	"hammer/internal/core"
	"hammer/internal/eventsim"
	"hammer/internal/harness"
	"hammer/internal/invariant"
	"hammer/internal/monitor"
	"hammer/internal/smallbank"
	"hammer/internal/workload"
)

// TestFamiliesShape checks the qualitative results of the consensus-family
// sweep in quick mode: every point commits under every scenario, the chaos
// scenarios actually engage, and the family-specific fault signatures show
// up (committee view changes under quorum loss, meepo cross-shard work).
func TestFamiliesShape(t *testing.T) {
	rows, err := Families(context.Background(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	opts := Quick()
	opts.fillDefaults()
	wantRows := 3 * (len(opts.FamilyShards) + len(opts.FamilyCommittees))
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(rows), wantRows)
	}
	for _, r := range rows {
		t.Log(r)
		if r.Committed == 0 {
			t.Errorf("%s n=%d %s: nothing committed", r.Family, r.Size, r.Scenario)
		}
		if r.Scenario == "none" && r.FaultEvents != 0 {
			t.Errorf("%s n=%d: healthy run reports %d fault events", r.Family, r.Size, r.FaultEvents)
		}
		if r.Scenario != "none" && r.FaultEvents == 0 {
			t.Errorf("%s n=%d %s: scenario never engaged", r.Family, r.Size, r.Scenario)
		}
		switch r.Family {
		case "meepo":
			if r.CrossRate != 0.2 {
				t.Errorf("meepo n=%d: cross rate %v, want 0.2", r.Size, r.CrossRate)
			}
		case "committee":
			if r.Scenario == "partition" && r.ViewChanges == 0 {
				t.Errorf("committee n=%d: a quorum-breaking partition must force view changes", r.Size)
			}
			if r.Scenario == "none" && r.Throughput <= 0 {
				t.Errorf("committee n=%d: no healthy throughput", r.Size)
			}
		}
	}
}

func TestFamiliesQuickSerialGolden(t *testing.T) {
	rows, err := Families(context.Background(), goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	header, csvRows := FamiliesCSV(rows)
	checkGolden(t, "families_quick_serial.golden.csv", renderCSV(t, header, csvRows))
}

// TestFamiliesParallelIdentityGolden pins the sweep's determinism across
// worker counts: four concurrent runners must produce the serial golden
// byte for byte.
func TestFamiliesParallelIdentityGolden(t *testing.T) {
	opts := goldenOpts()
	opts.Workers = 4
	rows, err := Families(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	header, csvRows := FamiliesCSV(rows)
	checkGolden(t, "families_quick_serial.golden.csv", renderCSV(t, header, csvRows))
}

// TestFamilyFaultsPreserveInvariants reruns the family sweep's crash and
// N-way-partition scenarios with the invariant recorder attached: a leader
// crash mid-round or a relay-severing partition must never produce a hash
// break, a duplicate commit or a conservation violation once the driver's
// retries drain the run.
func TestFamilyFaultsPreserveInvariants(t *testing.T) {
	opts := Quick()
	opts.MeasureSeconds = 9
	opts.fillDefaults()
	faultSec, healSec := faultTimes(opts)
	fault := time.Duration(faultSec) * time.Second
	heal := time.Duration(healSec) * time.Second

	type verdict struct {
		Violations  []invariant.Violation
		Commits     int
		FaultEvents int
	}
	var runs []harness.Run[verdict]
	for _, setup := range familySetups(opts) {
		for _, sc := range familyScenarios(setup, fault, heal)[1:] { // skip "none"
			setup, sc := setup, sc
			var inj *chaos.Injector
			runs = append(runs, harness.Run[verdict]{
				Name: fmt.Sprintf("families-invariants/%s-%d/%s", setup.family, setup.size, sc.name),
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
					cfg.Invariants = true
					if setup.source != nil {
						cfg.Source = setup.source(seed, opts)
						cfg.Contract = smallbank.Contract{}
					}
					if setup.engCfg != nil {
						setup.engCfg(&cfg)
					}
					nf, ok := bc.(chaos.NodeFaulter)
					if !ok {
						return nil, nil, core.Config{}, fmt.Errorf("chain %s exposes no liveness hooks", setup.family)
					}
					var err error
					inj, err = chaos.NewInjector(sched, nf, *sc.scen, cfg.Metrics)
					if err != nil {
						return nil, nil, core.Config{}, err
					}
					cfg.OnMeasureStart = func(start time.Duration) { inj.Arm(start) }
					return sched, bc, cfg, nil
				},
				Digest: func(res *core.Result, bc chain.Blockchain) (verdict, error) {
					return verdict{
						Violations:  res.Violations,
						Commits:     res.Report.Committed,
						FaultEvents: len(inj.Applied()),
					}, nil
				},
			})
		}
	}

	rows, err := harness.Collect(harness.Execute(context.Background(), runs, harness.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		name := runs[i].Name
		if row.FaultEvents == 0 {
			t.Errorf("%s: no chaos events fired", name)
		}
		if row.Commits == 0 {
			t.Errorf("%s: nothing committed", name)
		}
		for _, v := range row.Violations {
			t.Errorf("%s: invariant violated under fault: %s", name, v)
		}
	}
}
