// Package hammer is the public API of the Hammer blockchain evaluation
// framework (Wang et al., ICDCS 2024): a general benchmarking system that
// drives sharded and non-sharded blockchains with temporally realistic,
// learning-generated workloads, matches committed transactions in O(1)
// through its asynchronous task-processing algorithm, and reports
// throughput and latency through an SQL-backed visualization pipeline.
//
// A minimal evaluation:
//
//	sched := hammer.NewScheduler()
//	bc := hammer.NewFabric(sched, hammer.DefaultFabricConfig())
//	cfg := hammer.DefaultEvalConfig()
//	cfg.Control = hammer.ConstantLoad(200, 30*time.Second, time.Second)
//	res, err := hammer.Evaluate(context.Background(), sched, bc, cfg)
//	fmt.Println(res.Report)
//
// Everything runs on a deterministic virtual clock: seconds of simulated
// blockchain time cost microseconds of wall time, and identical seeds give
// identical results.
package hammer

import (
	"context"

	"hammer/internal/chain"
	"hammer/internal/core"
	"hammer/internal/eventsim"
	"hammer/internal/metrics"
	"hammer/internal/taskproc"
	"hammer/internal/workload"
)

// Core ledger vocabulary, shared by every chain implementation.
type (
	// Blockchain is the generic system-under-test interface; any
	// implementation — in-process simulator or a remote SUT behind the
	// JSON-RPC bridge — can be evaluated.
	Blockchain = chain.Blockchain
	// Transaction is a signed contract invocation.
	Transaction = chain.Transaction
	// Block is a committed batch of transactions on one shard.
	Block = chain.Block
	// Receipt records one transaction's outcome.
	Receipt = chain.Receipt
	// TxID is a transaction's content hash.
	TxID = chain.TxID
	// TxStatus is the lifecycle state the framework observed.
	TxStatus = chain.TxStatus
	// Contract is a deterministic smart contract.
	Contract = chain.Contract
	// TxContext is the state view a contract executes against.
	TxContext = chain.TxContext
	// AuditEntry is a node-side commit record used by correctness checks.
	AuditEntry = chain.AuditEntry
)

// Transaction lifecycle states.
const (
	StatusPending   = chain.StatusPending
	StatusCommitted = chain.StatusCommitted
	StatusAborted   = chain.StatusAborted
	StatusRejected  = chain.StatusRejected
	StatusTimedOut  = chain.StatusTimedOut
)

// Scheduler is the deterministic discrete-event scheduler every simulated
// component shares: a single hierarchical timer wheel.
type Scheduler = eventsim.Scheduler

// Sched is the scheduling interface chains and the evaluation engine accept;
// *Scheduler implements it.
type Sched = eventsim.Sched

// NewScheduler returns a fresh virtual timeline.
func NewScheduler() *Scheduler { return eventsim.New() }

// Realtime plays a scheduler forward in wall-clock time so simulated chains
// can serve live traffic (e.g. behind the RPC bridge).
type Realtime = eventsim.Realtime

// NewRealtime wraps a scheduler; speed is virtual seconds per real second.
func NewRealtime(s Sched, speed float64) *Realtime {
	return eventsim.NewRealtime(s, speed)
}

// Evaluation configuration and results.
type (
	// EvalConfig parameterises one evaluation run.
	EvalConfig = core.Config
	// EvalResult is the outcome of one run.
	EvalResult = core.Result
	// Report is the digested performance measurement.
	Report = metrics.Report
	// TxRecord is one per-transaction driver record.
	TxRecord = taskproc.TxRecord
	// Profile describes a workload population.
	Profile = workload.Profile
	// ControlSequence dictates per-slice injection counts.
	ControlSequence = workload.ControlSequence
	// DriverKind selects the measurement strategy.
	DriverKind = core.DriverKind
	// SignMode selects the preparation signing strategy.
	SignMode = core.SignMode
	// VizReport is the visualization phase's output.
	VizReport = core.VizReport
	// CorrectnessReport cross-checks measurements against node logs.
	CorrectnessReport = core.CorrectnessReport
)

// Measurement drivers (Fig 7's comparison).
const (
	DriverHammer      = core.DriverHammer
	DriverBatch       = core.DriverBatch
	DriverInteractive = core.DriverInteractive
)

// Preparation-phase signing strategies (Fig 8's comparison).
const (
	SignSerial    = core.SignSerial
	SignAsync     = core.SignAsync
	SignPipelined = core.SignPipelined
	SignOff       = core.SignOff
)

// DefaultEvalConfig returns the engine defaults.
func DefaultEvalConfig() EvalConfig { return core.DefaultConfig() }

// DefaultProfile is the paper's SmallBank workload setup.
func DefaultProfile() Profile { return workload.DefaultProfile() }

// ConstantLoad builds a flat control sequence of rate tx/s.
func ConstantLoad(ratePerSecond float64, duration, interval Duration) ControlSequence {
	return workload.Constant(ratePerSecond, duration, interval)
}

// LoadFromSeries shapes a control sequence after a (predicted) series,
// scaled to total transactions.
func LoadFromSeries(series []float64, interval Duration, total int) ControlSequence {
	return workload.FromSeries(series, interval, total)
}

// NewEngine builds an evaluation engine over a chain sharing the scheduler.
func NewEngine(sched Sched, bc Blockchain, cfg EvalConfig) (*core.Engine, error) {
	return core.New(sched, bc, cfg)
}

// Evaluate is the one-call evaluation: build the engine and run all three
// phases. Cancelling ctx stops the run at the next virtual-time step.
func Evaluate(ctx context.Context, sched Sched, bc Blockchain, cfg EvalConfig) (*EvalResult, error) {
	eng, err := core.New(sched, bc, cfg)
	if err != nil {
		return nil, err
	}
	return eng.Run(ctx)
}

// Visualize replays the visualization phase (KV staging → SQL table →
// Table II queries) over a run's records.
func Visualize(records []TxRecord) (*VizReport, error) {
	return core.Visualize(records)
}

// VerifyAgainstAuditLog cross-checks a run's records against the SUT's
// node-side commit log (the §V-C correctness validation).
func VerifyAgainstAuditLog(records []TxRecord, bc Blockchain) (*CorrectnessReport, error) {
	return core.VerifyAgainstAuditLog(records, bc)
}
