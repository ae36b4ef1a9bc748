package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hammer/internal/chain"
	"hammer/internal/eventsim"
)

// op names one (layer, operation) pair a span can belong to. Spans are
// recorded only from this package, around calls into each layer's public
// surface; the product carries no tracing code.
type op uint8

const (
	// In-iteration spans: together with their children they tile the
	// iteration's wall time, so their self times sum to it.
	opIteration op = iota
	opChainsNew
	opCoreNew
	opCoreRun
	opRunLoop
	opChainsEvent
	opCoreEvent
	opSubmit
	opHeight
	opBlockAt
	opStateOpen
	opStateGet
	opStateSet
	opStateOther
	opStateClose
	opVisualize
	opVerify
	// Outside spans: replays of layers sealed inside Engine.Run and the
	// benchmark's own bookkeeping. They run between engine runs and are
	// excluded from the traced iteration's wall time.
	opGenerate
	opComputeID
	opSign
	opTrack
	opOnBlock
	opAnalyze
	opBookkeeping
	numOps
)

var opNames = [numOps]string{
	opIteration:   "trace.iteration",
	opChainsNew:   "chains.new",
	opCoreNew:     "core.new",
	opCoreRun:     "core.run",
	opRunLoop:     "eventsim.run",
	opChainsEvent: "chains.event",
	opCoreEvent:   "core.event",
	opSubmit:      "chains.submit",
	opHeight:      "chains.height",
	opBlockAt:     "chains.block_at",
	opStateOpen:   "state.open",
	opStateGet:    "state.get",
	opStateSet:    "state.set",
	opStateOther:  "state.other",
	opStateClose:  "state.close",
	opVisualize:   "report.visualize",
	opVerify:      "report.verify",
	opGenerate:    "workload.generate",
	opComputeID:   "chain.compute_id",
	opSign:        "sign.async",
	opTrack:       "taskproc.track",
	opOnBlock:     "taskproc.on_block",
	opAnalyze:     "metrics.analyze",
	opBookkeeping: "trace.bookkeeping",
}

func (o op) outside() bool { return o >= opGenerate }

// sampleEvery is the share of scheduler-callback spans (the trace's root
// requests) written out with their children; every span is aggregated.
const sampleEvery = 1024

// opStat aggregates every span of one op: how many, their total duration,
// and the part of it not covered by child spans.
type opStat struct {
	count int
	busy  time.Duration
	self  time.Duration
}

type frame struct {
	op     op
	id     int
	start  time.Duration
	child  time.Duration
	sample bool
}

// spanRecord is one line of trace-<workload>.jsonl.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     int    `json:"run"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records nested spans on the single simulation goroutine. A nil
// tracer records nothing, so untraced iterations share every code path but
// the decorators.
type tracer struct {
	epoch  time.Time
	stat   [numOps]opStat
	stack  []frame
	spans  int
	events int
	// run is the id shared by the spans of one engine run.
	run     int
	sampled []spanRecord
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(o op) {
	if t == nil {
		return
	}
	t.spans++
	// Coarse spans are always written out; a callback span decides for
	// itself and everything beneath it.
	sample := true
	if o == opChainsEvent || o == opCoreEvent {
		sample = t.events%sampleEvery == 0
		t.events++
	} else if n := len(t.stack); n > 0 {
		sample = t.stack[n-1].sample
	}
	t.stack = append(t.stack, frame{op: o, id: t.spans, start: time.Since(t.epoch), sample: sample})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := now - f.start
	st := &t.stat[f.op]
	st.count++
	st.busy += dur
	st.self += dur - f.child
	parent := 0
	if n > 0 {
		t.stack[n-1].child += dur
		parent = t.stack[n-1].id
	}
	if f.sample {
		t.sampled = append(t.sampled, spanRecord{
			ID: f.id, Parent: parent, Run: t.run, Name: opNames[f.op],
			StartNs: int64(f.start), EndNs: int64(now),
		})
	}
}

// reset clears the aggregates between traced iterations; sampled spans are
// kept only from the last one.
func (t *tracer) reset() {
	t.stat = [numOps]opStat{}
	t.spans, t.events, t.run = 0, 0, 0
	t.sampled = t.sampled[:0]
}

// wall is the traced iteration's duration without the outside spans.
func (t *tracer) wall() time.Duration {
	d := t.stat[opIteration].busy
	for o := opGenerate; o < numOps; o++ {
		d -= t.stat[o].busy
	}
	return d
}

func (t *tracer) writeSampled(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("writing trace: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.sampled {
		if err := enc.Encode(&t.sampled[i]); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// tracedSched wraps every callback scheduled through it in a span of its
// owner's op, and the run loop in an eventsim span. Two of them share one
// scheduler — one handed to the chain, one to the engine — so callback time
// splits by owner and the scheduler's self time is the run loop minus its
// callbacks. Scheduling order is untouched: each call maps to the same call
// on the inner wheel.
type tracedSched struct {
	*eventsim.Scheduler
	tr *tracer
	ev op
}

var _ eventsim.Sched = (*tracedSched)(nil)

func (s *tracedSched) wrap(fn func()) func() {
	return func() {
		s.tr.begin(s.ev)
		fn()
		s.tr.end()
	}
}

func (s *tracedSched) At(t time.Duration, fn func()) eventsim.Timer {
	return s.Scheduler.At(t, s.wrap(fn))
}

func (s *tracedSched) AtKey(key uint64, t time.Duration, fn func()) eventsim.Timer {
	return s.Scheduler.AtKey(key, t, s.wrap(fn))
}

func (s *tracedSched) After(d time.Duration, fn func()) eventsim.Timer {
	return s.Scheduler.After(d, s.wrap(fn))
}

func (s *tracedSched) AfterKey(key uint64, d time.Duration, fn func()) eventsim.Timer {
	return s.Scheduler.AfterKey(key, d, s.wrap(fn))
}

func (s *tracedSched) AtSeq(t time.Duration, seq uint64, fn func()) eventsim.Timer {
	return s.Scheduler.AtSeq(t, seq, s.wrap(fn))
}

func (s *tracedSched) AtKeySeq(key uint64, t time.Duration, seq uint64, fn func()) eventsim.Timer {
	return s.Scheduler.AtKeySeq(key, t, seq, s.wrap(fn))
}

func (s *tracedSched) Every(interval time.Duration, fn func()) *eventsim.Ticker {
	return s.Scheduler.Every(interval, s.wrap(fn))
}

func (s *tracedSched) EveryKey(key uint64, interval time.Duration, fn func()) *eventsim.Ticker {
	return s.Scheduler.EveryKey(key, interval, s.wrap(fn))
}

func (s *tracedSched) Step() bool {
	s.tr.begin(opRunLoop)
	defer s.tr.end()
	return s.Scheduler.Step()
}

func (s *tracedSched) Run() {
	s.tr.begin(opRunLoop)
	defer s.tr.end()
	s.Scheduler.Run()
}

func (s *tracedSched) RunUntil(deadline time.Duration) {
	s.tr.begin(opRunLoop)
	defer s.tr.end()
	s.Scheduler.RunUntil(deadline)
}

// tracedChain times the calls the engine makes into the system under test.
type tracedChain struct {
	chain.Blockchain
	tr      *tracer
	rejects int
}

func (c *tracedChain) Submit(tx *chain.Transaction) (chain.TxID, error) {
	c.tr.begin(opSubmit)
	id, err := c.Blockchain.Submit(tx)
	c.tr.end()
	if err != nil {
		c.rejects++
	}
	return id, err
}

func (c *tracedChain) Height(shard int) uint64 {
	c.tr.begin(opHeight)
	defer c.tr.end()
	return c.Blockchain.Height(shard)
}

func (c *tracedChain) BlockAt(shard int, height uint64) (*chain.Block, bool) {
	c.tr.begin(opBlockAt)
	defer c.tr.end()
	return c.Blockchain.BlockAt(shard, height)
}

// tracedState times the world-state calls a chain makes while executing.
type tracedState struct {
	inner chain.StateBackend
	tr    *tracer
}

func (s *tracedState) Get(key string) ([]byte, uint64, bool) {
	s.tr.begin(opStateGet)
	defer s.tr.end()
	return s.inner.Get(key)
}

func (s *tracedState) Set(key string, val []byte, version uint64) {
	s.tr.begin(opStateSet)
	defer s.tr.end()
	s.inner.Set(key, val, version)
}

func (s *tracedState) Delete(key string) {
	s.tr.begin(opStateOther)
	defer s.tr.end()
	s.inner.Delete(key)
}

func (s *tracedState) Len() int {
	s.tr.begin(opStateOther)
	defer s.tr.end()
	return s.inner.Len()
}

func (s *tracedState) Keys() []string {
	s.tr.begin(opStateOther)
	defer s.tr.end()
	return s.inner.Keys()
}
