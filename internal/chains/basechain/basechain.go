// Package basechain provides the plumbing shared by every simulated
// blockchain: contract registry, per-shard block stores, node-side audit
// logs, and a compute-resource model that serialises work onto a node's
// virtual CPU cores so that execution cost — not just network delay — shapes
// throughput, as it does on the paper's 2-vCPU testbed nodes.
package basechain

import (
	"fmt"
	"sync"
	"time"

	"hammer/internal/chain"
	"hammer/internal/eventsim"
)

// Compute models one node's CPU: cores parallel execution lanes onto which
// costed work items are packed. Run schedules fn at the earliest instant a
// lane can finish the work.
type Compute struct {
	sched eventsim.Sched
	busy  []time.Duration
}

// NewCompute builds a compute resource with the given core count.
func NewCompute(sched eventsim.Sched, cores int) *Compute {
	if cores <= 0 {
		cores = 1
	}
	return &Compute{sched: sched, busy: make([]time.Duration, cores)}
}

// Run enqueues work costing cost onto the least-loaded core and schedules fn
// at its completion time. It returns that completion time.
func (c *Compute) Run(cost time.Duration, fn func()) time.Duration {
	now := c.sched.Now()
	best := 0
	for i := range c.busy {
		if c.busy[i] < c.busy[best] {
			best = i
		}
	}
	start := c.busy[best]
	if start < now {
		start = now
	}
	done := start + cost
	c.busy[best] = done
	if fn != nil {
		c.sched.At(done, fn)
	}
	return done
}

// Backlog reports how far ahead of now the busiest core is committed —
// the node's current compute queue depth in time units.
func (c *Compute) Backlog() time.Duration {
	now := c.sched.Now()
	var max time.Duration
	for _, b := range c.busy {
		if d := b - now; d > max {
			max = d
		}
	}
	return max
}

// Base carries the state common to all chain simulators. It is safe for
// concurrent use: external callers (RPC bridge, realtime driver) serialise
// through the owning scheduler, but read-only accessors lock independently.
type Base struct {
	ChainName string
	Sched     eventsim.Sched

	mu        sync.RWMutex
	contracts map[string]chain.Contract
	blocks    [][]*chain.Block // per shard
	audit     []chain.AuditEntry
	started   bool
	stopped   bool

	// committed indexes every transaction ID that has a committed receipt;
	// it backs the validation-time replay protection (AlreadyCommitted).
	committed map[chain.TxID]struct{}
	// observers are notified of every sealed block, outside the lock, in
	// registration order — the hook point for invariant recorders.
	observers []func(shard int, blk *chain.Block)

	// liveness state (see liveness.go): registered node names, the crashed
	// subset, and the chain's transition hooks.
	nodes       map[string]bool
	down        map[string]bool
	crashHook   func(node string)
	restartHook func(node string)
}

// Init prepares the base for the given shard count.
func (b *Base) Init(name string, sched eventsim.Sched, shards int) {
	b.ChainName = name
	b.Sched = sched
	b.contracts = make(map[string]chain.Contract)
	b.blocks = make([][]*chain.Block, shards)
	b.committed = make(map[chain.TxID]struct{})
}

// Name implements part of chain.Blockchain.
func (b *Base) Name() string { return b.ChainName }

// Deploy registers a contract.
func (b *Base) Deploy(c chain.Contract) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.started {
		return fmt.Errorf("basechain: deploy %q after start", c.Name())
	}
	if _, dup := b.contracts[c.Name()]; dup {
		return fmt.Errorf("basechain: contract %q: %w", c.Name(), chain.ErrAlreadyDeployed)
	}
	b.contracts[c.Name()] = c
	return nil
}

// Contract looks up a deployed contract.
func (b *Base) Contract(name string) (chain.Contract, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	c, ok := b.contracts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", chain.ErrUnknownContract, name)
	}
	return c, nil
}

// Shards reports the shard count.
func (b *Base) Shards() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.blocks)
}

// AddShard registers a new, empty shard (dynamic shard formation) and
// returns its index.
func (b *Base) AddShard() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.blocks = append(b.blocks, nil)
	return len(b.blocks) - 1
}

// Height implements part of chain.Blockchain.
func (b *Base) Height(shard int) uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if shard < 0 || shard >= len(b.blocks) {
		return 0
	}
	return uint64(len(b.blocks[shard]))
}

// BlockAt implements part of chain.Blockchain. Heights are 1-based: the
// first sealed block has height 1.
func (b *Base) BlockAt(shard int, height uint64) (*chain.Block, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if shard < 0 || shard >= len(b.blocks) {
		return nil, false
	}
	if height == 0 || height > uint64(len(b.blocks[shard])) {
		return nil, false
	}
	return b.blocks[shard][height-1], true
}

// AppendBlock seals blk onto shard, chaining its PrevHash, stamping the
// current virtual time, and writing per-transaction audit entries. Observers
// registered through ObserveBlocks see the sealed block after the chain state
// is updated, outside the lock.
func (b *Base) AppendBlock(shard int, blk *chain.Block) {
	b.mu.Lock()
	blk.Shard = shard
	blk.Height = uint64(len(b.blocks[shard]) + 1)
	blk.Timestamp = b.Sched.Now()
	if n := len(b.blocks[shard]); n > 0 {
		blk.PrevHash = b.blocks[shard][n-1].BlockHash
	}
	blk.Seal()
	b.blocks[shard] = append(b.blocks[shard], blk)
	for _, r := range blk.Receipts {
		r.Shard = shard
		r.Height = blk.Height
		r.BlockTime = blk.Timestamp
		if r.Status == chain.StatusCommitted {
			b.committed[r.TxID] = struct{}{}
		}
		b.audit = append(b.audit, chain.AuditEntry{
			TxID:   r.TxID,
			Status: r.Status,
			Shard:  shard,
			Height: blk.Height,
			Time:   blk.Timestamp,
		})
	}
	observers := b.observers
	b.mu.Unlock()
	for _, fn := range observers {
		fn(shard, blk)
	}
}

// ObserveBlocks registers fn to be called with every block AppendBlock seals.
// Observers must not mutate the block; they run on the scheduler goroutine in
// block-commit order, which is what makes invariant recorders deterministic.
func (b *Base) ObserveBlocks(fn func(shard int, blk *chain.Block)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.observers = append(b.observers, fn)
}

// AlreadyCommitted reports whether a committed receipt exists for id. Chains
// consult it at validation time to abort duplicate resubmissions instead of
// committing (and applying) the same transaction twice.
func (b *Base) AlreadyCommitted(id chain.TxID) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	_, ok := b.committed[id]
	return ok
}

// AuditLog implements chain.AuditLogger.
func (b *Base) AuditLog() []chain.AuditEntry {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]chain.AuditEntry, len(b.audit))
	copy(out, b.audit)
	return out
}

// MarkStarted transitions to the started state; it reports whether the call
// won the transition (false when already started or stopped).
func (b *Base) MarkStarted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.started || b.stopped {
		return false
	}
	b.started = true
	return true
}

// MarkStopped transitions to stopped.
func (b *Base) MarkStopped() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stopped = true
}

// Running reports whether the chain accepts work.
func (b *Base) Running() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.started && !b.stopped
}

// Stopped reports whether Stop has been called.
func (b *Base) Stopped() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.stopped
}

// ExecuteOrdered executes txs sequentially against state (order-execute
// model), producing one receipt per transaction. Failed invocations abort
// the transaction but not the block. version is the commit version assigned
// to the block's writes.
//
// Replay protection happens here rather than at admission: a transaction ID
// that already has a committed receipt — in an earlier block or earlier in
// this batch — is aborted instead of re-executed, so driver resubmissions of
// stalled transactions cannot double-apply state. Deduplicating at execution
// keeps batch sizes, and therefore the virtual cost model, identical whether
// or not duplicates are present.
func (b *Base) ExecuteOrdered(state *chain.State, txs []*chain.Transaction, version uint64) []*chain.Receipt {
	receipts := make([]*chain.Receipt, len(txs))
	var inBatch map[chain.TxID]struct{}
	for i, tx := range txs {
		if _, dup := inBatch[tx.ID]; dup || b.AlreadyCommitted(tx.ID) {
			receipts[i] = &chain.Receipt{TxID: tx.ID, Status: chain.StatusAborted, Err: chain.ErrDuplicateTx.Error()}
			continue
		}
		r := b.executeOne(state, tx, version)
		if r.Status == chain.StatusCommitted {
			if inBatch == nil {
				inBatch = make(map[chain.TxID]struct{})
			}
			inBatch[tx.ID] = struct{}{}
		}
		receipts[i] = r
	}
	return receipts
}

func (b *Base) executeOne(state *chain.State, tx *chain.Transaction, version uint64) *chain.Receipt {
	r := &chain.Receipt{TxID: tx.ID}
	c, err := b.Contract(tx.Contract)
	if err != nil {
		r.Status = chain.StatusAborted
		r.Err = err.Error()
		return r
	}
	ex := chain.NewExecutor(state)
	if err := c.Invoke(ex, tx.Op, tx.Args); err != nil {
		r.Status = chain.StatusAborted
		r.Err = err.Error()
		return r
	}
	ex.RWSet().Apply(state, version)
	r.Status = chain.StatusCommitted
	return r
}
