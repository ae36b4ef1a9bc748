// Package experiments contains one runner per table and figure in the
// paper's evaluation (§V). Each runner describes its independent simulations
// as harness runs and executes them through harness.Execute — concurrently
// across cores, with per-run panic isolation and context cancellation — then
// returns structured rows that the CLIs and the repository benchmarks render
// as charts and CSV. Results are always in sweep order, so parallel output
// is identical to serial. DESIGN.md §3 maps each experiment to the modules
// it exercises.
package experiments

import (
	"fmt"
	"time"

	"hammer/internal/harness"
)

// Options tunes how heavy the runners are. The defaults reproduce the
// paper-scale configuration; Quick() shrinks everything so the full suite
// runs in seconds (used by tests).
type Options struct {
	// Seed drives every stochastic component.
	Seed int64
	// Accounts is the SmallBank population per run.
	Accounts int
	// MeasureSeconds is the injection window for SUT experiments.
	MeasureSeconds int
	// SignCount is the workload size for the Fig 8 signing comparison.
	SignCount int
	// QueueLens and BlockSizes parameterise Fig 9.
	QueueLens  []int
	BlockSizes []int
	// ModelEpochs bounds predictor training; ModelLookback the window.
	ModelEpochs   int
	ModelLookback int
	// ModelHidden is the neural width for Table III.
	ModelHidden int
	// LoadClients is the client-population sweep for the load-plane
	// experiment (open- vs closed-loop injection at each scale).
	LoadClients []int
	// FamilyShards and FamilyCommittees are the scale axes of the
	// consensus-family sweep: Meepo shard counts and BFT committee sizes.
	FamilyShards     []int
	FamilyCommittees []int
	// CrossShardRate is the fraction of the family sweep's Meepo transfers
	// whose destination lives on a foreign shard (0 means the 0.2 default).
	CrossShardRate float64
	// Workers bounds how many runs a sweep executes concurrently;
	// 0 means one worker per core (runtime.GOMAXPROCS(0)).
	Workers int
	// StateBackend selects the world-state engine every SUT run mounts:
	// "" or "mem" is the in-RAM map, "paged" the disk-backed paged store
	// (internal/store/pagedstate). Results are byte-identical either way —
	// the paged-identity tests pin it.
	StateBackend string
	// StateCacheMB budgets the paged store's page cache per state instance
	// (0 = the store default, 64 MiB).
	StateCacheMB int
	// StateDir is where paged stores place their files; each state instance
	// gets a fresh subdirectory. Empty means the OS temp directory.
	StateDir string
	// States tracks every paged store the runs open, so the owner (CLI or
	// test) can read stats and release the files afterwards. Left nil with
	// StateBackend "paged", stores land in a process-wide runtime that is
	// only released at exit.
	States *StateRuntime
	// OnProgress, when set, observes every harness run completion — the
	// CLIs wire it to live progress lines and monitor counters.
	OnProgress func(harness.Progress)
}

// harnessOptions translates the sweep knobs into harness options.
func (o *Options) harnessOptions() harness.Options {
	return harness.Options{Workers: o.Workers, OnProgress: o.OnProgress}
}

// Default returns paper-scale options.
func Default() Options {
	return Options{
		Seed:           7,
		Accounts:       5000,
		MeasureSeconds: 60,
		SignCount:      20000,
		QueueLens:      []int{10000, 25000, 50000, 100000},
		BlockSizes:     []int{1000, 5000, 10000},
		ModelEpochs:    150,
		ModelLookback:  24,
		ModelHidden:    16,
		LoadClients:    []int{100_000, 500_000, 1_000_000},
		// The paper-scale family sweep spans 2 to 64 shards or validators.
		FamilyShards:     []int{2, 8, 32, 64},
		FamilyCommittees: []int{2, 8, 32, 64},
		CrossShardRate:   0.2,
	}
}

// Quick returns options small enough for unit tests.
func Quick() Options {
	return Options{
		Seed:           7,
		Accounts:       500,
		MeasureSeconds: 15,
		SignCount:      600,
		QueueLens:      []int{500, 1000},
		BlockSizes:     []int{100, 200},
		ModelEpochs:    8,
		ModelLookback:  12,
		ModelHidden:    8,
		LoadClients:    []int{2_000, 10_000},
		// Small points with distinct quorum shapes: 4 tolerates one fault,
		// 7 tolerates two.
		FamilyShards:     []int{2, 4},
		FamilyCommittees: []int{4, 7},
		CrossShardRate:   0.2,
	}
}

func (o *Options) fillDefaults() {
	def := Default()
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	if o.Accounts <= 0 {
		o.Accounts = def.Accounts
	}
	if o.MeasureSeconds <= 0 {
		o.MeasureSeconds = def.MeasureSeconds
	}
	if o.SignCount <= 0 {
		o.SignCount = def.SignCount
	}
	if len(o.QueueLens) == 0 {
		o.QueueLens = def.QueueLens
	}
	if len(o.BlockSizes) == 0 {
		o.BlockSizes = def.BlockSizes
	}
	if o.ModelEpochs <= 0 {
		o.ModelEpochs = def.ModelEpochs
	}
	if o.ModelLookback <= 0 {
		o.ModelLookback = def.ModelLookback
	}
	if o.ModelHidden <= 0 {
		o.ModelHidden = def.ModelHidden
	}
	if len(o.LoadClients) == 0 {
		o.LoadClients = def.LoadClients
	}
	if len(o.FamilyShards) == 0 {
		o.FamilyShards = def.FamilyShards
	}
	if len(o.FamilyCommittees) == 0 {
		o.FamilyCommittees = def.FamilyCommittees
	}
	if o.CrossShardRate <= 0 {
		o.CrossShardRate = def.CrossShardRate
	}
}

// fmtSeconds renders a duration in seconds with 3 decimals for CSV rows.
func fmtSeconds(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// fmtF renders a float for CSV rows.
func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }
