// Package ethereum simulates a private proof-of-work Ethereum network as the
// paper deploys it: all nodes mine, blocks arrive as a Poisson process with a
// fixed expected interval, and each block packs pending transactions up to a
// gas cap. The PoW interval plus the gas cap bound throughput at ~19 TPS and
// push confirmation latency to seconds under load, reproducing Ethereum's
// position in Fig 6.
package ethereum

import (
	"fmt"
	"time"

	"hammer/internal/chain"
	"hammer/internal/chains/basechain"
	"hammer/internal/eventsim"
	"hammer/internal/randx"
)

// Config parameterises the simulated network.
type Config struct {
	// Nodes is the number of mining workers (paper: 5).
	Nodes int
	// BlockInterval is the expected PoW inter-block time. The paper's
	// private testnet mines far faster than mainnet's 15 s; the default is
	// tuned so peak throughput lands near the ~18.6 TPS of Fig 6.
	BlockInterval time.Duration
	// GasLimit caps the gas packed into one block.
	GasLimit uint64
	// MempoolCap bounds admitted-but-unmined transactions; submissions
	// beyond it are rejected (node overload).
	MempoolCap int
	// Seed drives the PoW interval randomness.
	Seed int64
	// State constructs the world state; nil means the in-RAM map. Runs at
	// large account populations mount the disk-backed paged store here.
	State chain.StateFactory `json:"-"`
}

// DefaultConfig matches the paper's 5-node deployment.
func DefaultConfig() Config {
	return Config{
		Nodes:         5,
		BlockInterval: 3 * time.Second,
		GasLimit:      1_720_000,
		MempoolCap:    100_000,
		Seed:          42,
	}
}

// Chain is the simulated Ethereum network.
type Chain struct {
	basechain.Base
	cfg   Config
	rng   *randx.Rand
	state *chain.State

	mempool []*chain.Transaction
	mining  eventsim.Timer
	version uint64
}

var (
	_ chain.Blockchain  = (*Chain)(nil)
	_ chain.AuditLogger = (*Chain)(nil)
)

// New builds the simulated network on the shared scheduler.
func New(sched eventsim.Sched, cfg Config) *Chain {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.BlockInterval <= 0 {
		cfg.BlockInterval = DefaultConfig().BlockInterval
	}
	if cfg.GasLimit == 0 {
		cfg.GasLimit = DefaultConfig().GasLimit
	}
	if cfg.MempoolCap <= 0 {
		cfg.MempoolCap = DefaultConfig().MempoolCap
	}
	c := &Chain{
		cfg:   cfg,
		rng:   randx.New(cfg.Seed),
		state: chain.NewStateFrom(cfg.State),
	}
	c.Init("ethereum", sched, 1)
	for i := 0; i < cfg.Nodes; i++ {
		c.RegisterNodes(fmt.Sprintf("miner-%d", i))
	}
	// Crashing the last live miner halts the PoW process entirely; the
	// first restart resumes it. Partial crashes just stretch the expected
	// block interval (less hash power), handled in scheduleNextBlock.
	c.SetCrashHook(func(string) {
		if c.DownCount() == c.cfg.Nodes {
			c.mining.Stop()
		}
	})
	c.SetRestartHook(func(string) {
		if c.Running() && !c.mining.Pending() {
			c.scheduleNextBlock()
		}
	})
	return c
}

// Submit implements chain.Blockchain. Transactions enter the mempool and
// wait for a mined block.
func (c *Chain) Submit(tx *chain.Transaction) (chain.TxID, error) {
	if c.Stopped() {
		return chain.TxID{}, chain.ErrStopped
	}
	if !c.Running() {
		return chain.TxID{}, fmt.Errorf("ethereum: %w", chain.ErrStopped)
	}
	if c.DownCount() >= c.cfg.Nodes {
		return chain.TxID{}, fmt.Errorf("ethereum: all miners down: %w", chain.ErrUnavailable)
	}
	if len(c.mempool) >= c.cfg.MempoolCap {
		return chain.TxID{}, fmt.Errorf("ethereum: mempool full (%d): %w", len(c.mempool), chain.ErrOverloaded)
	}
	if tx.ID == (chain.TxID{}) {
		tx.ComputeID()
	}
	if tx.Gas == 0 {
		if ct, err := c.Contract(tx.Contract); err == nil {
			tx.Gas = ct.Gas(tx.Op)
		} else {
			tx.Gas = 21000
		}
	}
	c.mempool = append(c.mempool, tx)
	return tx.ID, nil
}

// PendingTxs implements chain.Blockchain.
func (c *Chain) PendingTxs() int { return len(c.mempool) }

// Start implements chain.Blockchain: it begins the PoW block process.
func (c *Chain) Start() {
	if !c.MarkStarted() {
		return
	}
	c.scheduleNextBlock()
}

// Stop implements chain.Blockchain.
func (c *Chain) Stop() {
	c.MarkStopped()
	c.mining.Stop()
}

func (c *Chain) scheduleNextBlock() {
	alive := c.cfg.Nodes - c.DownCount()
	if alive <= 0 {
		// No hash power left; the restart hook reschedules.
		return
	}
	// The expected inter-block time is inversely proportional to surviving
	// hash power: losing miners stretches the Poisson interval.
	mean := time.Duration(float64(c.cfg.BlockInterval) * float64(c.cfg.Nodes) / float64(alive))
	interval := c.rng.Exponential(mean)
	c.mining = c.Sched.After(interval, c.mineBlock)
}

func (c *Chain) mineBlock() {
	if c.Stopped() {
		return
	}
	if c.cfg.Nodes-c.DownCount() <= 0 {
		return
	}
	var (
		gasUsed uint64
		take    int
	)
	for take < len(c.mempool) {
		g := c.mempool[take].Gas
		if gasUsed+g > c.cfg.GasLimit {
			break
		}
		gasUsed += g
		take++
	}
	txs := c.mempool[:take]
	rest := make([]*chain.Transaction, len(c.mempool)-take)
	copy(rest, c.mempool[take:])
	c.mempool = rest

	c.version++
	blk := &chain.Block{
		Txs:      txs,
		Proposer: fmt.Sprintf("miner-%d", c.pickMiner()),
	}
	blk.Receipts = c.ExecuteOrdered(c.state, txs, c.version)
	c.AppendBlock(0, blk)
	c.scheduleNextBlock()
}

// pickMiner draws the proposing miner. The healthy path keeps the original
// single Intn draw so fault-free runs stay byte-identical; with crashed
// miners the draw ranges over the survivors only.
func (c *Chain) pickMiner() int {
	if c.DownCount() == 0 {
		return c.rng.Intn(c.cfg.Nodes)
	}
	alive := make([]int, 0, c.cfg.Nodes)
	for i := 0; i < c.cfg.Nodes; i++ {
		if !c.NodeDown(fmt.Sprintf("miner-%d", i)) {
			alive = append(alive, i)
		}
	}
	return alive[c.rng.Intn(len(alive))]
}

// GasCap reports the per-block gas limit; no sealed block's transactions may
// sum past it (the gas-cap invariant).
func (c *Chain) GasCap() uint64 { return c.cfg.GasLimit }

// State exposes the world state for audits and invariant checks.
func (c *Chain) State() *chain.State { return c.state }
