package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"hammer"
	"hammer/internal/chain"
	"hammer/internal/chains/committee"
	"hammer/internal/chains/meepo"
	"hammer/internal/chaos"
	"hammer/internal/core"
	"hammer/internal/monitor"
	"hammer/internal/smallbank"
)

// signWorkers is fixed so the signing pool does not follow the host's core
// count: the same two goroutines sign on every machine.
const signWorkers = 2

// workload is one named set of inputs. Sizes are virtual time and fixed —
// they are never scaled to the host; scale > 1 divides rates, admission caps
// and populations for the warm-up (10) and the self-tests.
type workload struct {
	name  string
	why   string
	specs func(scale int) []spec
}

// faultsFunc builds a chaos scenario around the fault and heal offsets.
type faultsFunc func(fault, heal time.Duration) chaos.Scenario

// spec is one engine run inside an iteration: a chain, its offered load and,
// for the fault workload, a chaos scenario.
type spec struct {
	name     string
	newChain func(s hammer.Sched, state chain.StateFactory, seed int64) hammer.Blockchain
	rate     float64
	window   time.Duration
	accounts int
	// tune adjusts the engine configuration after the common fields are set.
	tune func(c *core.Config)
	// source replaces the SmallBank generator built from the profile.
	source func(seed int64) core.TxSource
	// faults builds the chaos scenario; recovery makes the run subject to
	// the recovery analysis (the healthy baseline is, with no faults).
	faults   faultsFunc
	recovery bool
	// paged mounts the world state on the disk-backed paged store.
	paged bool
	// report runs the visualization phase and the audit-log cross-check.
	report bool
}

var workloads = []workload{
	{
		name:  "fig6-peak",
		why:   "Paper Fig 6: four chains driven over capacity, so ~40% of submissions take the admission-reject path; work is in workload/chain encode+hash, core dispatch, chains execute/seal and taskproc.",
		specs: fig6Peak,
	},
	{
		name:  "signed-e2e",
		why:   "What cmd/hammer does, under capacity with zero rejects: the only workload where real ECDSA signing (~75% of wall) and the KV-to-SQL report phase run.",
		specs: signedE2E,
	},
	{
		name:  "paged-state",
		why:   "Neuchain on the paged store with a 1 MiB cache under a 240k-key working set: cache, WAL and real file I/O dominate; bypasses the in-RAM map the other three use.",
		specs: pagedState,
	},
	{
		name:  "families-faults",
		why:   "8-shard meepo with 20% cross-shard transfers and an 8-validator committee, each healthy, crashed and partitioned: the only workload with retries, expiry, relays, view changes and chaos.",
		specs: familiesFaults,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// div scales a population or cap, keeping it usable at any scale.
func div(n, scale int) int { return max(n/scale, 2) }

func fig6Peak(scale int) []spec {
	const window = 36 * time.Second
	accounts := div(5000, scale)
	return []spec{
		{
			name: "ethereum", rate: 50 / float64(scale), window: window, accounts: accounts,
			newChain: func(s hammer.Sched, state chain.StateFactory, seed int64) hammer.Blockchain {
				cfg := hammer.DefaultEthereumConfig()
				cfg.MempoolCap = div(100, scale)
				cfg.Seed = seed
				cfg.State = state
				return hammer.NewEthereum(s, cfg)
			},
			tune: func(c *core.Config) { c.DrainTimeout = 5 * time.Minute },
		},
		{
			name: "fabric", rate: 400 / float64(scale), window: window, accounts: accounts,
			newChain: func(s hammer.Sched, state chain.StateFactory, seed int64) hammer.Blockchain {
				cfg := hammer.DefaultFabricConfig()
				cfg.PendingCap = div(300, scale)
				cfg.Net.Seed = seed
				cfg.State = state
				return hammer.NewFabric(s, cfg)
			},
			tune: func(c *core.Config) {
				c.Clients = 4
				c.SubmitCost = 500 * time.Microsecond
			},
		},
		{
			name: "meepo", rate: 8000 / float64(scale), window: window, accounts: accounts,
			newChain: func(s hammer.Sched, state chain.StateFactory, seed int64) hammer.Blockchain {
				cfg := hammer.DefaultMeepoConfig()
				cfg.PendingCapPerShard = div(4000, scale)
				cfg.Net.Seed = seed
				cfg.State = state
				return hammer.NewMeepo(s, cfg)
			},
			tune: func(c *core.Config) {
				c.Clients = 8
				c.SubmitCost = 100 * time.Microsecond
				c.Workload.OpMix = map[string]float64{smallbank.OpTransfer: 1}
			},
		},
		{
			name: "neuchain", rate: 12000 / float64(scale), window: window, accounts: accounts,
			newChain: func(s hammer.Sched, state chain.StateFactory, seed int64) hammer.Blockchain {
				cfg := hammer.DefaultNeuchainConfig()
				cfg.PendingCap = div(1400, scale)
				cfg.Net.Seed = seed
				cfg.State = state
				return hammer.NewNeuchain(s, cfg)
			},
			tune: func(c *core.Config) {
				c.Clients = 8
				c.SubmitCost = 100 * time.Microsecond
			},
		},
	}
}

func defaultNeuchain(s hammer.Sched, state chain.StateFactory, seed int64) hammer.Blockchain {
	cfg := hammer.DefaultNeuchainConfig()
	cfg.Net.Seed = seed
	cfg.State = state
	return hammer.NewNeuchain(s, cfg)
}

func signedE2E(scale int) []spec {
	return []spec{{
		name: "neuchain", rate: 8000 / float64(scale), window: 9 * time.Second, accounts: div(20000, scale),
		newChain: defaultNeuchain,
		tune: func(c *core.Config) {
			c.Clients = 8
			c.SignMode = core.SignAsync
		},
		report: true,
	}}
}

// pagedCacheBytes keeps the page cache far below the working set (240k
// keys ≈ 14 MB of pages), so about half of the page lookups miss.
const pagedCacheBytes = 1 << 20

func pagedState(scale int) []spec {
	return []spec{{
		name: "neuchain", rate: 8000 / float64(scale), window: 12 * time.Second, accounts: div(120000, scale),
		newChain: defaultNeuchain,
		tune:     func(c *core.Config) { c.Clients = 8 },
		paged:    true,
	}}
}

func familiesFaults(scale int) []spec {
	const (
		window     = 15 * time.Second
		shards     = 8
		validators = 8
		crossRate  = 0.2
	)
	accounts := div(5000, scale)
	faulty := func(c *core.Config) {
		c.TxTimeout = 8 * time.Second
		c.MaxRetries = 2
		c.RetryBackoff = 500 * time.Millisecond
		c.Metrics = monitor.NewRegistry()
	}

	meepoSpec := spec{
		rate: 12000 / float64(scale), window: window, accounts: accounts,
		newChain: func(s hammer.Sched, state chain.StateFactory, seed int64) hammer.Blockchain {
			cfg := hammer.DefaultMeepoConfig()
			cfg.Shards = shards
			cfg.PendingCapPerShard = div(12000, scale)
			cfg.Net.Seed = seed
			cfg.State = state
			return hammer.NewMeepo(s, cfg)
		},
		source: func(seed int64) core.TxSource {
			return newCrossShardSource(seed, accounts, shards, crossRate)
		},
		tune: func(c *core.Config) {
			faulty(c)
			c.Clients = 8
			c.SubmitCost = 100 * time.Microsecond
		},
	}
	// Two of shard 0's three members down breaks its quorum: that slice of
	// the account space stalls while the other shards keep sealing.
	meepoCrash := crashAndRestart("meepo/crash", []string{"shard0-member0", "shard0-member1"})
	// One group per shard: every shard keeps its quorum, every cross-shard
	// relay is severed until the heal.
	shardGroups := make([][]string, shards)
	for sh := range shardGroups {
		for m := 0; m < hammer.DefaultMeepoConfig().MembersPerShard; m++ {
			shardGroups[sh] = append(shardGroups[sh], fmt.Sprintf("shard%d-member%d", sh, m))
		}
	}
	meepoPartition := partitionAndHeal("meepo/partition", shardGroups)

	committeeSpec := spec{
		rate: 1200 / float64(scale), window: window, accounts: accounts,
		newChain: func(s hammer.Sched, state chain.StateFactory, seed int64) hammer.Blockchain {
			cfg := hammer.DefaultCommitteeConfig()
			cfg.Validators = validators
			cfg.Net.Seed = seed
			cfg.State = state
			return hammer.NewCommittee(s, cfg)
		},
		tune: func(c *core.Config) {
			faulty(c)
			c.Clients = 4
			c.SubmitCost = 200 * time.Microsecond
			c.Workload.OpMix = map[string]float64{smallbank.OpTransfer: 1}
		},
	}
	// The tolerated fault budget f = (n-1)/3 goes down: the committee keeps
	// committing but dips whenever rotation lands on a dead proposer.
	var down []string
	for i := validators - committee.MaxFaulty(validators); i < validators; i++ {
		down = append(down, committee.Validator(i))
	}
	committeeCrash := crashAndRestart("committee/crash", down)
	// A three-way split leaves no group with a 2f+1 quorum: consensus
	// stalls entirely until the heal.
	thirds := make([][]string, 3)
	for i := 0; i < validators; i++ {
		thirds[i%3] = append(thirds[i%3], committee.Validator(i))
	}
	committeePartition := partitionAndHeal("committee/partition", thirds)

	return append(
		scenarios("meepo", meepoSpec, meepoCrash, meepoPartition),
		scenarios("committee", committeeSpec, committeeCrash, committeePartition)...)
}

func crashAndRestart(name string, nodes []string) faultsFunc {
	return func(fault, heal time.Duration) chaos.Scenario {
		return chaos.Scenario{Name: name, Events: []chaos.Event{
			{At: fault, Kind: chaos.KindCrash, Nodes: nodes},
			{At: heal, Kind: chaos.KindRestart, Nodes: nodes},
		}}
	}
}

func partitionAndHeal(name string, groups [][]string) faultsFunc {
	return func(fault, heal time.Duration) chaos.Scenario {
		return chaos.Scenario{Name: name, Events: []chaos.Event{
			{At: fault, Kind: chaos.KindPartition, Groups: groups},
			{At: heal, Kind: chaos.KindHeal},
		}}
	}
}

// scenarios runs one family healthy, crashed and partitioned; all three are
// held to the recovery analysis.
func scenarios(family string, base spec, crash, partition faultsFunc) []spec {
	base.recovery = true
	healthy, crashed, split := base, base, base
	healthy.name = family + "/none"
	crashed.name, crashed.faults = family+"/crash", crash
	split.name, split.faults = family+"/partition", partition
	return []spec{healthy, crashed, split}
}

// crossShardSource drives meepo with transfers whose destination lives on a
// foreign shard at an exact rate, using the chain's own account placement
// (meepo.ShardIndex); uniform destinations would give ~1-1/N instead.
type crossShardSource struct {
	rng       *rand.Rand
	accounts  []string
	byShard   [][]string
	crossRate float64
	nonce     uint64
}

var _ core.TxSource = (*crossShardSource)(nil)

func newCrossShardSource(seed int64, accounts, shards int, crossRate float64) *crossShardSource {
	s := &crossShardSource{
		rng:       rand.New(rand.NewSource(seed)),
		accounts:  make([]string, accounts),
		byShard:   make([][]string, shards),
		crossRate: crossRate,
	}
	for i := range s.accounts {
		name := smallbank.AccountName(i)
		s.accounts[i] = name
		home := meepo.ShardIndex(name, shards)
		s.byShard[home] = append(s.byShard[home], name)
	}
	return s
}

func (s *crossShardSource) SetupTxs() []*chain.Transaction {
	txs := make([]*chain.Transaction, len(s.accounts))
	for i, name := range s.accounts {
		s.nonce++
		txs[i] = &chain.Transaction{
			Contract: smallbank.ContractName,
			Op:       smallbank.OpCreate,
			Args:     []string{name, "1000", "1000"},
			From:     name,
			Nonce:    s.nonce,
		}
	}
	return txs
}

// pick draws from pool until ok accepts the draw; the bound only matters if
// hashing piled the whole population onto one shard.
func (s *crossShardSource) pick(pool []string, ok func(string) bool) string {
	name := pool[s.rng.Intn(len(pool))]
	for i := 0; i < 32 && !ok(name); i++ {
		name = pool[s.rng.Intn(len(pool))]
	}
	return name
}

func (s *crossShardSource) Next(clientID, serverID string) *chain.Transaction {
	shards := len(s.byShard)
	from := s.accounts[s.rng.Intn(len(s.accounts))]
	home := meepo.ShardIndex(from, shards)
	var to string
	if s.rng.Float64() < s.crossRate {
		to = s.pick(s.accounts, func(a string) bool { return meepo.ShardIndex(a, shards) != home })
	} else {
		to = s.pick(s.byShard[home], func(a string) bool { return a != from })
	}
	s.nonce++
	return &chain.Transaction{
		ClientID: clientID,
		ServerID: serverID,
		Contract: smallbank.ContractName,
		Op:       smallbank.OpTransfer,
		Args:     []string{from, to, strconv.Itoa(1 + s.rng.Intn(10))},
		From:     from,
		Nonce:    s.nonce,
	}
}
