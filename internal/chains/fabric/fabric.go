// Package fabric simulates a Hyperledger Fabric network with the
// execute-order-validate pipeline: transactions are endorsed (executed
// speculatively against current state to produce a read-write set), batched
// into blocks by an ordering service that cuts on message count or timeout,
// then validated with MVCC version checks and committed by the peers. MVCC
// conflicts between endorsement and commit abort transactions — the
// mechanism behind the client-count latency cliff of Fig 10 — and the serial
// validate-commit path bounds throughput near the ~239 TPS of Fig 7.
package fabric

import (
	"fmt"
	"time"

	"hammer/internal/chain"
	"hammer/internal/chains/basechain"
	"hammer/internal/eventsim"
	"hammer/internal/netsim"
)

// Config parameterises the simulated Fabric network.
type Config struct {
	// Peers is the number of endorsing/committing peers; the paper's
	// cluster uses 1 orderer + 4 peers.
	Peers int
	// CoresPerNode models the testbed's 2-vCPU instances.
	CoresPerNode int
	// EndorseCost is the CPU time one endorsement consumes on a peer.
	EndorseCost time.Duration
	// OrderCostPerTx is the orderer CPU time per transaction.
	OrderCostPerTx time.Duration
	// ValidateCostPerTx is the serial VSCC+MVCC validation time per
	// transaction on the committing peer; it is Fabric's throughput
	// ceiling.
	ValidateCostPerTx time.Duration
	// CommitCostPerBlock is the ledger-write time per block.
	CommitCostPerBlock time.Duration
	// MaxMessages cuts a block when this many transactions are queued.
	MaxMessages int
	// BatchTimeout cuts a partially-filled block after this long.
	BatchTimeout time.Duration
	// PendingCap bounds in-flight (admitted, uncommitted) transactions;
	// beyond it the peers shed load, as the paper observes in §V-D.
	PendingCap int
	// TxBytes approximates the wire size of an endorsed transaction.
	TxBytes int
	// Net configures the cluster network.
	Net netsim.Config
	// State constructs the world state; nil means the in-RAM map. Runs at
	// large account populations mount the disk-backed paged store here.
	State chain.StateFactory `json:"-"`
}

// DefaultConfig matches the paper's 5-node deployment.
func DefaultConfig() Config {
	return Config{
		Peers:              4,
		CoresPerNode:       2,
		EndorseCost:        2 * time.Millisecond,
		OrderCostPerTx:     300 * time.Microsecond,
		ValidateCostPerTx:  3800 * time.Microsecond,
		CommitCostPerBlock: 5 * time.Millisecond,
		MaxMessages:        100,
		BatchTimeout:       500 * time.Millisecond,
		PendingCap:         3000,
		TxBytes:            1100,
		Net:                netsim.DefaultConfig(),
	}
}

// Chain is the simulated Fabric network.
type Chain struct {
	basechain.Base
	cfg   Config
	net   *netsim.Network
	state *chain.State

	peers   []*basechain.Compute
	orderer *basechain.Compute
	// validator models the committing peer's single-threaded
	// validate-and-commit path — Fabric's throughput ceiling.
	validator *basechain.Compute

	nextPeer int
	pending  int
	stranded int

	batch      []*endorsed
	batchTimer eventsim.Timer

	version uint64
}

type endorsed struct {
	tx    *chain.Transaction
	rwset *chain.RWSet
	// err records an endorsement-time failure (e.g. insufficient funds);
	// the tx still flows through ordering and is aborted at validation,
	// matching Fabric's behaviour.
	err error
}

var (
	_ chain.Blockchain  = (*Chain)(nil)
	_ chain.AuditLogger = (*Chain)(nil)
)

// New builds the simulated network on the shared scheduler.
func New(sched eventsim.Sched, cfg Config) *Chain {
	def := DefaultConfig()
	if cfg.Peers <= 0 {
		cfg.Peers = def.Peers
	}
	if cfg.CoresPerNode <= 0 {
		cfg.CoresPerNode = def.CoresPerNode
	}
	if cfg.EndorseCost <= 0 {
		cfg.EndorseCost = def.EndorseCost
	}
	if cfg.OrderCostPerTx <= 0 {
		cfg.OrderCostPerTx = def.OrderCostPerTx
	}
	if cfg.ValidateCostPerTx <= 0 {
		cfg.ValidateCostPerTx = def.ValidateCostPerTx
	}
	if cfg.CommitCostPerBlock <= 0 {
		cfg.CommitCostPerBlock = def.CommitCostPerBlock
	}
	if cfg.MaxMessages <= 0 {
		cfg.MaxMessages = def.MaxMessages
	}
	if cfg.BatchTimeout <= 0 {
		cfg.BatchTimeout = def.BatchTimeout
	}
	if cfg.PendingCap <= 0 {
		cfg.PendingCap = def.PendingCap
	}
	if cfg.TxBytes <= 0 {
		cfg.TxBytes = def.TxBytes
	}
	c := &Chain{
		cfg:       cfg,
		state:     chain.NewStateFrom(cfg.State),
		orderer:   basechain.NewCompute(sched, cfg.CoresPerNode),
		validator: basechain.NewCompute(sched, 1),
	}
	c.Init("fabric", sched, 1)
	c.net = netsim.New(sched, cfg.Net)
	c.RegisterNodes("orderer")
	for i := 0; i < cfg.Peers; i++ {
		c.peers = append(c.peers, basechain.NewCompute(sched, cfg.CoresPerNode))
		c.RegisterNodes(peerName(i))
	}
	// An orderer restart cuts whatever the batch timer was sitting on so
	// recovery does not wait for new traffic to trip the cut thresholds.
	c.SetRestartHook(func(node string) {
		if node == "orderer" && len(c.batch) > 0 {
			c.cutBlock()
		}
	})
	return c
}

func peerName(i int) string { return fmt.Sprintf("peer-%d", i) }

// Network exposes the cluster network as a fault-injection target for the
// chaos subsystem.
func (c *Chain) Network() *netsim.Network { return c.net }

// Stranded reports transactions that were admitted and then lost to a crash
// or partition (endorsement or ordering work abandoned). Drivers recover
// them through timeout/retry.
func (c *Chain) Stranded() int { return c.stranded }

// strand abandons admitted-but-uncommitted transactions: their submitters
// will never see a receipt, so the evaluation driver's timeout/retry path is
// what surfaces them.
func (c *Chain) strand(n int) {
	c.pending -= n
	c.stranded += n
}

// Submit implements chain.Blockchain: the transaction is endorsed by the
// next peer round-robin, then forwarded to the orderer.
func (c *Chain) Submit(tx *chain.Transaction) (chain.TxID, error) {
	if c.Stopped() {
		return chain.TxID{}, chain.ErrStopped
	}
	if !c.Running() {
		return chain.TxID{}, fmt.Errorf("fabric: %w", chain.ErrStopped)
	}
	if c.pending >= c.cfg.PendingCap {
		return chain.TxID{}, fmt.Errorf("fabric: %d transactions in flight: %w", c.pending, chain.ErrOverloaded)
	}
	// Round-robin over endorsing peers, skipping ones that are crashed or
	// unreachable from the client — the SDK's connection attempt fails fast,
	// so the submission is refused rather than silently lost.
	peerIdx := -1
	for probe := 0; probe < len(c.peers); probe++ {
		idx := (c.nextPeer + probe) % len(c.peers)
		if c.NodeDown(peerName(idx)) || c.net.Partitioned("client", peerName(idx)) {
			continue
		}
		peerIdx = idx
		break
	}
	if peerIdx < 0 {
		return chain.TxID{}, fmt.Errorf("fabric: no reachable endorsing peer: %w", chain.ErrUnavailable)
	}
	if tx.ID == (chain.TxID{}) {
		tx.ComputeID()
	}
	c.pending++
	c.nextPeer = (peerIdx + 1) % len(c.peers)
	peer := c.peers[peerIdx]
	pname := peerName(peerIdx)

	// Client -> peer proposal, endorsement execution, peer -> orderer. A
	// peer that crashes while the proposal is in flight loses it; the
	// transaction is stranded and only the driver's retry resurrects it.
	c.net.Send("client", pname, c.cfg.TxBytes, func() {
		if c.NodeDown(pname) {
			c.strand(1)
			return
		}
		peer.Run(c.cfg.EndorseCost, func() {
			if c.NodeDown(pname) {
				c.strand(1)
				return
			}
			e := c.endorse(tx)
			if c.NodeDown("orderer") || c.net.Partitioned(pname, "orderer") {
				c.strand(1)
				return
			}
			c.net.Send(pname, "orderer", c.cfg.TxBytes, func() {
				c.enqueue(e)
			})
		})
	})
	return tx.ID, nil
}

// endorse executes the transaction against current state, capturing its
// read-write set without applying it.
func (c *Chain) endorse(tx *chain.Transaction) *endorsed {
	e := &endorsed{tx: tx}
	ct, err := c.Contract(tx.Contract)
	if err != nil {
		e.err = err
		return e
	}
	ex := chain.NewExecutor(c.state)
	if err := ct.Invoke(ex, tx.Op, tx.Args); err != nil {
		e.err = err
		return e
	}
	e.rwset = ex.RWSet()
	return e
}

// enqueue adds an endorsed transaction to the orderer's batch, cutting a
// block on count or arming the batch timeout.
func (c *Chain) enqueue(e *endorsed) {
	if c.Stopped() {
		return
	}
	if c.NodeDown("orderer") {
		c.strand(1)
		return
	}
	c.batch = append(c.batch, e)
	if len(c.batch) >= c.cfg.MaxMessages {
		c.cutBlock()
		return
	}
	if !c.batchTimer.Pending() {
		c.batchTimer = c.Sched.After(c.cfg.BatchTimeout, func() {
			if len(c.batch) > 0 {
				c.cutBlock()
			}
		})
	}
}

func (c *Chain) cutBlock() {
	c.batchTimer.Stop()
	batch := c.batch
	c.batch = nil
	if c.NodeDown("orderer") {
		// The orderer crashed with the batch in memory: the block is lost.
		c.strand(len(batch))
		return
	}

	orderCost := time.Duration(len(batch)) * c.cfg.OrderCostPerTx
	c.orderer.Run(orderCost, func() {
		if c.NodeDown("orderer") {
			c.strand(len(batch))
			return
		}
		if c.NodeDown("peer-0") || c.net.Partitioned("orderer", "peer-0") {
			// Delivery to the committing peer fails; the ordered block
			// never commits and its transactions are stranded.
			c.strand(len(batch))
			return
		}
		blockBytes := len(batch) * c.cfg.TxBytes
		// The orderer delivers the block to the leading committing peer;
		// the other peers commit in parallel and do not bound latency.
		c.net.Send("orderer", "peer-0", blockBytes, func() {
			c.validateAndCommit(batch)
		})
	})
}

// validateAndCommit runs MVCC validation serially on the committing peer,
// then applies surviving write sets.
func (c *Chain) validateAndCommit(batch []*endorsed) {
	if c.Stopped() {
		return
	}
	if c.NodeDown("peer-0") {
		c.strand(len(batch))
		return
	}
	cost := time.Duration(len(batch))*c.cfg.ValidateCostPerTx + c.cfg.CommitCostPerBlock
	c.validator.Run(cost, func() {
		c.version++
		blk := &chain.Block{Proposer: "peer-0"}
		// Replay protection: MVCC catches most duplicate resubmissions (the
		// second copy's read versions are stale after the first commits), but
		// blind-write transactions validate against nothing, so the committed
		// set is checked explicitly — within this block and across blocks.
		var inBlock map[chain.TxID]struct{}
		for _, e := range batch {
			r := &chain.Receipt{TxID: e.tx.ID}
			_, dupInBlock := inBlock[e.tx.ID]
			switch {
			case e.err != nil:
				r.Status = chain.StatusAborted
				r.Err = e.err.Error()
			case dupInBlock || c.AlreadyCommitted(e.tx.ID):
				r.Status = chain.StatusAborted
				r.Err = chain.ErrDuplicateTx.Error()
			default:
				if err := e.rwset.Validate(c.state); err != nil {
					r.Status = chain.StatusAborted
					r.Err = err.Error()
				} else {
					e.rwset.Apply(c.state, c.version)
					r.Status = chain.StatusCommitted
					if inBlock == nil {
						inBlock = make(map[chain.TxID]struct{})
					}
					inBlock[e.tx.ID] = struct{}{}
				}
			}
			blk.Txs = append(blk.Txs, e.tx)
			blk.Receipts = append(blk.Receipts, r)
		}
		c.pending -= len(batch)
		c.AppendBlock(0, blk)
	})
}

// PendingTxs implements chain.Blockchain.
func (c *Chain) PendingTxs() int { return c.pending }

// Start implements chain.Blockchain.
func (c *Chain) Start() { c.MarkStarted() }

// Stop implements chain.Blockchain.
func (c *Chain) Stop() {
	c.MarkStopped()
	c.batchTimer.Stop()
}

// State exposes the world state for audits and invariant checks.
func (c *Chain) State() *chain.State { return c.state }
