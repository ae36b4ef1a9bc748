package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hammer/internal/chain"
	"hammer/internal/chains/basechain"
	"hammer/internal/eventsim"
	"hammer/internal/invariant"
	"hammer/internal/metrics"
	"hammer/internal/monitor"
	"hammer/internal/sign"
	"hammer/internal/smallbank"
	"hammer/internal/taskproc"
	"hammer/internal/workload"
)

// Engine drives one evaluation of one system under test.
type Engine struct {
	cfg   Config
	sched eventsim.Sched
	bc    chain.Blockchain

	gen     TxSource
	signer  *sign.Signer
	matcher taskproc.Matcher

	clients []*basechain.Compute
	driver  *basechain.Compute

	lastHeights []uint64
	pollTicker  *eventsim.Ticker

	submitted      int
	rejected       int
	dropped        int // interactive responses lost to listener backlog
	retried        int // resubmissions performed by the retry path
	// retryQueue is the deterministic FIFO of transactions the retry path is
	// watching; it is scanned on poll ticks in dispatch order, so retry
	// behaviour is independent of map iteration or wall-clock effects.
	retryQueue   []retryEntry
	retrySupport taskproc.RetrySupport
	// scratch and single are reused block headers for the batch and
	// interactive driver cost models, so re-stamping a block per poll tick
	// (or per receipt) does not allocate. Safe because matchers copy fields
	// out of the block and never retain it.
	scratch       chain.Block
	single        chain.Block
	singleReceipt [1]*chain.Receipt
	// recorder observes the SUT's block stream when Config.Invariants is
	// set; nil otherwise (the hot path pays nothing).
	recorder *invariant.Recorder

	mon            *engineMetrics
	injectionEnd   time.Duration
	perOpCost      time.Duration
	prepDuration   time.Duration
	setupCommitted int
}

// New validates the configuration and builds an engine over the chain,
// which must share the scheduler.
func New(sched eventsim.Sched, bc chain.Blockchain, cfg Config) (*Engine, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var gen TxSource
	if cfg.Source != nil {
		if cfg.Contract == nil {
			return nil, fmt.Errorf("core: custom Source requires Contract")
		}
		gen = cfg.Source
	} else {
		g, err := workload.NewGenerator(cfg.Workload)
		if err != nil {
			return nil, err
		}
		gen = g
	}
	signer, err := sign.NewSigner(cfg.Seed)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:         cfg,
		sched:       sched,
		bc:          bc,
		gen:         gen,
		signer:      signer,
		lastHeights: make([]uint64, bc.Shards()),
		driver:      basechain.NewCompute(sched, cfg.DriverCores),
	}
	lanes := cfg.Threads
	if lanes > cfg.ClientCores {
		lanes = cfg.ClientCores
	}
	for i := 0; i < cfg.Clients; i++ {
		e.clients = append(e.clients, basechain.NewCompute(sched, lanes))
	}
	// Context-switch penalty beyond the core count (Fig 10).
	over := 0
	if cfg.Threads > cfg.ClientCores {
		over = cfg.Threads - cfg.ClientCores
	}
	e.perOpCost = time.Duration(float64(cfg.SubmitCost) * (1 + cfg.ThreadOverhead*float64(over)))
	if cfg.Threads == 1 && cfg.ClientCores > 1 {
		// A single thread cannot overlap submissions at all.
		e.perOpCost = cfg.SubmitCost
	}

	e.mon = newEngineMetrics(cfg.Metrics, bc)
	if cfg.Invariants {
		if rec, ok := invariant.Attach(bc); ok {
			e.recorder = rec
		}
	}

	capacity := cfg.Control.Total()
	switch cfg.Driver {
	case DriverBatch:
		e.matcher = taskproc.NewBatchQueue(capacity)
	default:
		e.matcher = taskproc.NewProcessor(capacity)
	}
	if cfg.MaxRetries > 0 {
		rs, ok := e.matcher.(taskproc.RetrySupport)
		if !ok {
			return nil, fmt.Errorf("core: MaxRetries requires a matcher with per-ID record access; the %v driver has none", cfg.Driver)
		}
		e.retrySupport = rs
	}
	return e, nil
}

// Result is the outcome of one evaluation run.
type Result struct {
	// Report is the digested performance measurement.
	Report *metrics.Report
	// Records are the driver's raw per-transaction records.
	Records []taskproc.TxRecord
	// Submitted counts injected transactions; Rejected counts SUT
	// admission refusals; DroppedResponses counts interactive-listener
	// losses.
	Submitted        int
	Rejected         int
	DroppedResponses int
	// Retried counts resubmissions performed by the retry path.
	Retried int
	// SetupCommitted is the number of account-creation transactions that
	// committed during preparation.
	SetupCommitted int
	// PrepDuration is the real (wall-clock) time spent generating and
	// signing the workload.
	PrepDuration time.Duration
	// VirtualDuration is how much simulated time the run covered.
	VirtualDuration time.Duration
	// Violations holds every semantic-invariant breach the recorder
	// observed (Config.Invariants); empty on a clean run or when the
	// recorder is off.
	Violations []invariant.Violation
	// CommitDigest fingerprints the SUT's commit sequence when
	// Config.Invariants is set: two runs with equal digests produced
	// bitwise-identical schedules.
	CommitDigest string
}

// Run executes the three phases and returns the measurement. The context is
// honored at every virtual-time step: canceling it (Ctrl-C, per-run timeout)
// aborts the run promptly instead of spinning the scheduler to its drain
// deadline.
func (e *Engine) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.deploy(); err != nil {
		return nil, err
	}
	e.bc.Start()
	if !e.cfg.SkipSetup {
		if err := e.setupAccounts(ctx); err != nil {
			return nil, err
		}
	}
	txs, err := e.prepare()
	if err != nil {
		return nil, err
	}
	if err := e.execute(ctx, txs); err != nil {
		return nil, err
	}
	e.bc.Stop()

	records := e.matcher.Results()
	// With TrackRejected the shed submissions are already in the records
	// (as never-matched entries), so they must not be double-counted.
	rejectedForReport := e.rejected
	if e.cfg.TrackRejected {
		rejectedForReport = 0
	}
	report := metrics.Analyze(e.bc.Name(), records, rejectedForReport)
	e.mon.observeRun(records)
	var violations []invariant.Violation
	var commitDigest string
	if e.recorder != nil {
		violations = append(e.recorder.Violations(), invariant.FinalChecks(e.bc, e.recorder)...)
		commitDigest = e.recorder.CommitDigest()
	}
	return &Result{
		Report:           report,
		Records:          records,
		Submitted:        e.submitted,
		Rejected:         e.rejected,
		DroppedResponses: e.dropped,
		Retried:          e.retried,
		SetupCommitted:   e.setupCommitted,
		PrepDuration:     e.prepDuration,
		VirtualDuration:  e.sched.Now(),
		Violations:       violations,
		CommitDigest:     commitDigest,
	}, nil
}

func (e *Engine) deploy() error {
	var ct chain.Contract = smallbank.Contract{}
	if e.cfg.Contract != nil {
		ct = e.cfg.Contract
	}
	err := e.bc.Deploy(ct)
	if err != nil && !errors.Is(err, chain.ErrAlreadyDeployed) {
		return fmt.Errorf("core: deploy contract: %w", err)
	}
	return nil
}

// setupAccounts creates the account population through ordinary
// transactions, throttled to the SUT's admission capacity, and waits (in
// virtual time) until every creation commits.
func (e *Engine) setupAccounts(ctx context.Context) error {
	setup := e.gen.SetupTxs()
	for _, tx := range setup {
		tx.ComputeID()
	}
	tracker := taskproc.NewProcessor(len(setup))
	rate := e.cfg.SetupRate
	if rate <= 0 {
		rate = 2000
	}
	const tick = 50 * time.Millisecond
	perTick := int(rate * tick.Seconds())
	if perTick < 1 {
		perTick = 1
	}

	next := 0
	pump := e.sched.Every(tick, func() {
		for sent := 0; sent < perTick && next < len(setup); sent++ {
			tx := setup[next]
			if _, err := e.bc.Submit(tx); err != nil {
				return // back off until the next tick
			}
			tracker.Track(taskproc.TxRecord{ID: tx.ID, StartTime: e.sched.Now(), Status: chain.StatusPending})
			next++
		}
		e.collectBlocks(func(blk *chain.Block) { tracker.OnBlock(blk) })
	})
	defer pump.Stop()

	// A generous virtual ceiling: even Ethereum at ~19 TPS creates 10k
	// accounts within a couple of virtual hours.
	deadline := e.sched.Now() + 4*time.Hour
	for e.sched.Now() < deadline {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.sched.RunUntil(e.sched.Now() + time.Second)
		if next == len(setup) && tracker.Pending() == 0 {
			e.setupCommitted = len(setup)
			// Consume any remaining setup blocks so measurement starts
			// with a clean height cursor.
			e.collectBlocks(func(blk *chain.Block) { tracker.OnBlock(blk) })
			return nil
		}
	}
	return fmt.Errorf("core: account setup incomplete after %v: %d/%d submitted, %d pending",
		e.sched.Now(), next, len(setup), tracker.Pending())
}

// prepare generates and signs the measurement workload (phase ① of Fig 3),
// timing the real CPU cost of preparation (Fig 8's subject).
func (e *Engine) prepare() ([]*chain.Transaction, error) {
	total := e.cfg.Control.Total()
	txs := make([]*chain.Transaction, 0, total)
	for i := 0; i < total; i++ {
		client := fmt.Sprintf("client-%d", i%e.cfg.Clients)
		txs = append(txs, e.gen.Next(client, "server-0"))
	}
	start := time.Now()
	switch e.cfg.SignMode {
	case SignSerial:
		if err := sign.SignSerial(txs, e.signer); err != nil {
			return nil, fmt.Errorf("core: serial signing: %w", err)
		}
	case SignAsync:
		if err := sign.SignAsync(txs, e.signer, e.cfg.SignWorkers); err != nil {
			return nil, fmt.Errorf("core: async signing: %w", err)
		}
	case SignPipelined:
		p := sign.NewPipeline(e.signer, e.cfg.SignWorkers)
		go func() {
			for _, tx := range txs {
				p.Submit(tx)
			}
			p.Close()
		}()
		n := 0
		for range p.Out() {
			n++
		}
		if err := p.Err(); err != nil {
			return nil, fmt.Errorf("core: pipelined signing: %w", err)
		}
		if n != len(txs) {
			return nil, fmt.Errorf("core: pipelined signing lost transactions: %d/%d", n, len(txs))
		}
	case SignOff:
		for _, tx := range txs {
			tx.ComputeID()
		}
	}
	e.prepDuration = time.Since(start)
	return txs, nil
}

// execute runs the measurement phase on the virtual clock: injections
// follow the control sequence, the block monitor polls on PollInterval, and
// the run drains for up to DrainTimeout after the last injection.
func (e *Engine) execute(ctx context.Context, txs []*chain.Transaction) error {
	startAt := e.sched.Now()
	if e.cfg.OnMeasureStart != nil {
		e.cfg.OnMeasureStart(startAt)
	}
	e.scheduleInjections(txs, startAt)
	e.startPolling()

	deadline := e.injectionEnd + e.cfg.DrainTimeout
	for e.sched.Now() < deadline {
		if err := ctx.Err(); err != nil {
			e.stopPolling()
			return err
		}
		step := e.sched.Now() + time.Second
		if step > deadline {
			step = deadline
		}
		e.sched.RunUntil(step)
		if e.sched.Now() >= e.injectionEnd && e.matcher.Pending() == 0 {
			break
		}
	}
	e.stopPolling()
	e.finalSweep()
	return nil
}

func (e *Engine) stopPolling() {
	if e.pollTicker != nil {
		e.pollTicker.Stop()
	}
}

// finalSweep collects once more after the drain loop exits: a block sealed
// between the last poll tick and the drain deadline would otherwise be
// silently missed and its transactions reported unmatched. The sweep then
// fires the driver's in-flight matching events, bounded to one extra
// PollInterval of virtual time so a genuinely stuck run still terminates.
func (e *Engine) finalSweep() {
	e.collectBlocks(e.processBlock)
	grace := e.sched.Now() + e.cfg.PollInterval
	for e.matcher.Pending() > 0 {
		at, ok := e.sched.NextAt()
		if !ok || at > grace {
			break
		}
		e.sched.RunUntil(at)
		e.collectBlocks(e.processBlock)
	}
}

// scheduleInjections spreads each control-sequence slice's transactions
// uniformly within the slice, round-robin across clients. Each slice gets a
// single pacing event (sliceInjector) that streams its transactions in
// order; the tie-break sequence numbers the eager one-event-per-transaction
// scheme would have consumed are reserved here, in the same loop order, so
// the event stream — and therefore every result — is byte-identical.
func (e *Engine) scheduleInjections(txs []*chain.Transaction, startAt time.Duration) {
	cs := e.cfg.Control
	idx := 0
	for slice, count := range cs.Counts {
		if count <= 0 || idx >= len(txs) {
			continue
		}
		m := count
		if rem := len(txs) - idx; m > rem {
			m = rem
		}
		sliceStart := startAt + time.Duration(slice)*cs.Interval
		gap := cs.Interval / time.Duration(count)
		si := &sliceInjector{
			e:     e,
			txs:   txs[idx : idx+m],
			base:  idx,
			start: sliceStart,
			gap:   gap,
			seq:   e.sched.ReserveSeq(m),
		}
		si.fire = si.step
		e.sched.AtSeq(sliceStart, si.seq, si.fire)
		idx += m
	}
	e.injectionEnd = startAt + cs.Duration()
}

// dispatch models one client thread sending a transaction: the record is
// stamped at dispatch (Algorithm 1 line 4), the client CPU is charged, and
// the SUT admits or rejects on completion.
func (e *Engine) dispatch(tx *chain.Transaction, clientIdx int) {
	rec := taskproc.TxRecord{
		ID:        tx.ID,
		ClientID:  tx.ClientID,
		ServerID:  tx.ServerID,
		Chain:     e.bc.Name(),
		Contract:  tx.Contract,
		StartTime: e.sched.Now(),
		Status:    chain.StatusPending,
	}
	e.submitted++
	e.mon.submitted.Inc()
	e.clients[clientIdx].Run(e.perOpCost, func() {
		tx.SubmittedAt = e.sched.Now()
		if _, err := e.bc.Submit(tx); err != nil {
			if e.retrySupport != nil {
				// With retries enabled a refused submission stays tracked
				// and re-enters through the backoff queue instead of being
				// dropped on the floor.
				e.matcher.Track(rec)
				e.retryQueue = append(e.retryQueue, retryEntry{
					tx: tx, attempts: 1, waiting: true,
					due: e.sched.Now() + e.cfg.RetryBackoff,
				})
				return
			}
			e.rejected++
			e.mon.rejected.Inc()
			if e.cfg.TrackRejected {
				// Fire-and-forget drivers never learn the submission was
				// shed; the record lingers in their matching queue.
				e.matcher.Track(rec)
			}
			return
		}
		e.matcher.Track(rec)
		if e.retrySupport != nil {
			e.retryQueue = append(e.retryQueue, retryEntry{
				tx: tx, due: e.sched.Now() + e.cfg.TxTimeout,
			})
		}
	})
}

// retryEntry is the retry path's view of one in-flight transaction. An entry
// is either watching a submitted transaction for its confirmation timeout
// (waiting=false, due=submit+TxTimeout) or backing off before a resubmission
// (waiting=true, due=detection+RetryBackoff).
type retryEntry struct {
	tx       *chain.Transaction
	attempts int // resubmissions consumed
	waiting  bool
	due      time.Duration
}

// processRetries advances the retry state machine on the virtual clock. It
// runs on poll ticks, scanning the FIFO in dispatch order: entries whose
// transaction completed are discarded; watch entries past their timeout move
// into backoff (or expire once attempts are exhausted); backoff entries past
// their delay resubmit. Exhausted transactions are stamped timed out, so a
// faulted run's drain loop always terminates.
func (e *Engine) processRetries() {
	now := e.sched.Now()
	keep := e.retryQueue[:0]
	for _, ent := range e.retryQueue {
		if ent.due > now {
			keep = append(keep, ent)
			continue
		}
		st, ok := e.retrySupport.StatusOf(ent.tx.ID)
		if !ok || st != chain.StatusPending {
			continue // confirmed (or already expired) — nothing to do
		}
		if !ent.waiting {
			// Confirmation timeout hit: the transaction was admitted but
			// never reached a block — lost to a crash, partition or drop.
			if ent.attempts >= e.cfg.MaxRetries {
				e.retrySupport.ExpireByID(ent.tx.ID, now)
				continue
			}
			ent.attempts++
			ent.waiting = true
			ent.due = now + e.cfg.RetryBackoff
			keep = append(keep, ent)
			continue
		}
		// Backoff elapsed: resubmit.
		ent.tx.SubmittedAt = now
		if _, err := e.bc.Submit(ent.tx); err != nil {
			if ent.attempts >= e.cfg.MaxRetries {
				e.retrySupport.ExpireByID(ent.tx.ID, now)
				continue
			}
			ent.attempts++
			ent.due = now + e.cfg.RetryBackoff
			keep = append(keep, ent)
			continue
		}
		e.retried++
		ent.waiting = false
		ent.due = now + e.cfg.TxTimeout
		keep = append(keep, ent)
	}
	e.retryQueue = keep
}

func (e *Engine) startPolling() {
	e.pollTicker = e.sched.Every(e.cfg.PollInterval, func() {
		e.collectBlocks(e.processBlock)
		if e.retrySupport != nil {
			// Per-ID expiry supersedes the blanket scan: a record past its
			// timeout may be about to get another attempt.
			e.processRetries()
			return
		}
		if e.cfg.TxTimeout > 0 {
			if exp, ok := e.matcher.(taskproc.Expirer); ok {
				now := e.sched.Now()
				exp.ExpireStartedBefore(now-e.cfg.TxTimeout, now)
			}
		}
	})
}

// collectBlocks advances the per-shard height cursors, handing every newly
// sealed block to fn. Dynamically formed shards grow the cursor set.
func (e *Engine) collectBlocks(fn func(*chain.Block)) {
	for len(e.lastHeights) < e.bc.Shards() {
		e.lastHeights = append(e.lastHeights, 0)
	}
	for shard := 0; shard < e.bc.Shards(); shard++ {
		for e.lastHeights[shard] < e.bc.Height(shard) {
			blk, ok := e.bc.BlockAt(shard, e.lastHeights[shard]+1)
			if !ok {
				break
			}
			e.lastHeights[shard]++
			fn(blk)
		}
	}
}

// processBlock charges the measurement cost model for the configured driver
// and completes matching records.
func (e *Engine) processBlock(blk *chain.Block) {
	m := len(blk.Txs)
	if m == 0 {
		return
	}
	switch e.cfg.Driver {
	case DriverHammer:
		// Algorithm 1: O(m) — bloom screen plus hash-index lookup per
		// block transaction; completion time is the block timestamp.
		cost := time.Duration(m) * e.cfg.MatchCostPerOp
		e.driver.Run(cost, func() {
			e.mon.completed.Add(float64(e.matcher.OnBlock(blk)))
		})

	case DriverBatch:
		// Blockbench: O(n·m) queue scan, and the completion time is when
		// the poll finishes processing — inflating latency by polling and
		// matching delay (ξ1, ξ2).
		n := e.matcher.Pending()
		if n < 1 {
			n = 1
		}
		cost := time.Duration(n) * time.Duration(m) * e.cfg.MatchCostPerOp
		e.driver.Run(cost, func() {
			e.scratch = *blk
			e.scratch.Timestamp = e.sched.Now()
			e.matcher.OnBlock(&e.scratch)
		})

	case DriverInteractive:
		// Caliper: one listener event per transaction response; events
		// beyond the listener's backlog capacity are lost, so their
		// transactions never complete.
		for _, r := range blk.Receipts {
			if e.driver.Backlog() > e.cfg.EventBacklogLimit {
				e.dropped++
				continue
			}
			receipt := r
			shard, height := blk.Shard, blk.Height
			e.driver.Run(e.cfg.EventCost, func() {
				e.single = chain.Block{
					Shard:     shard,
					Height:    height,
					Timestamp: e.sched.Now(),
				}
				e.singleReceipt[0] = receipt
				e.single.Receipts = e.singleReceipt[:]
				e.matcher.OnBlock(&e.single)
			})
		}
	}
}

// engineMetrics binds the engine's live state to a monitor.Registry; a nil
// registry turns every update into a no-op so the hot path stays clean.
type engineMetrics struct {
	enabled   bool
	submitted *monitor.Counter
	completed *monitor.Counter
	rejected  *monitor.Counter
	latency   *monitor.Histogram
}

// noop metric sinks used when monitoring is off.
var (
	noopCounter   = &monitor.Counter{}
	noopHistogram = monitor.NewHistogram([]float64{1})
)

func newEngineMetrics(reg *monitor.Registry, bc chain.Blockchain) *engineMetrics {
	if reg == nil {
		return &engineMetrics{
			submitted: noopCounter,
			completed: noopCounter,
			rejected:  noopCounter,
			latency:   noopHistogram,
		}
	}
	reg.Gauge("sut/pending").Bind(func() float64 { return float64(bc.PendingTxs()) })
	return &engineMetrics{
		enabled:   true,
		submitted: reg.Counter("driver/submitted"),
		completed: reg.Counter("driver/completed"),
		rejected:  reg.Counter("driver/rejected"),
		latency: reg.Histogram("driver/confirm_latency_ms",
			[]float64{10, 50, 100, 250, 500, 1000, 2500, 5000, 10000}),
	}
}

// observeRun feeds the finished run's per-transaction confirmation
// latencies into the histogram.
func (m *engineMetrics) observeRun(records []taskproc.TxRecord) {
	if !m.enabled {
		return
	}
	for i := range records {
		if records[i].Status == chain.StatusCommitted {
			m.latency.Observe(records[i].Latency().Seconds() * 1000)
		}
	}
}
