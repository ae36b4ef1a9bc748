// Package parallel is a persistent shared worker pool for data-parallel
// kernels. Unlike internal/harness — which fans out whole experiment runs —
// this pool splits one kernel invocation (a GEMM, a batch transform, a sweep
// body) into fixed-size index blocks and lets idle workers help the caller
// execute them.
//
// Two properties make it safe for the deterministic numeric paths:
//
//   - Fixed block partition. For(n, grain, fn) always cuts [0, n) into the
//     same ⌈n/grain⌉ blocks regardless of how many workers exist or which
//     worker executes which block. A kernel whose blocks write disjoint
//     output ranges therefore produces byte-identical results at any worker
//     count, including zero (serial).
//
//   - Caller participation with a parallelism budget. The caller always
//     executes blocks itself; pool workers only join when idle, and each
//     concurrent For call claims at most workers/activeCallers helpers. When
//     harness.Execute already runs one experiment per core, every For sees
//     activeCallers ≈ workers and degrades to serial instead of
//     oversubscribing the machine.
//
// The pool is shared process-wide (see For/Do); every internal/nn tensor
// kernel draws from the same budget, however many experiment runs call it.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// job is one For invocation: an atomic cursor over fixed-size blocks.
type job struct {
	fn     func(lo, hi int)
	n      int
	grain  int
	blocks int64

	next atomic.Int64 // next block index to claim
	done atomic.Int64 // completed blocks
	fin  chan struct{}

	panicked atomic.Pointer[panicInfo]
}

type panicInfo struct{ val any }

// run claims blocks until none remain. Every claimed block is counted as
// done even when fn panics, so the caller never deadlocks; after the first
// panic remaining blocks are claimed but skipped, and the panic is re-raised
// on the calling goroutine.
func (j *job) run() {
	for {
		b := j.next.Add(1) - 1
		if b >= j.blocks {
			return
		}
		if j.panicked.Load() != nil {
			j.finishBlock() // skip, but keep the completion count honest
			continue
		}
		j.runBlock(b)
	}
}

func (j *job) finishBlock() {
	if j.done.Add(1) == j.blocks {
		close(j.fin)
	}
}

func (j *job) runBlock(b int64) {
	defer func() {
		if r := recover(); r != nil {
			j.panicked.CompareAndSwap(nil, &panicInfo{val: r})
		}
		j.finishBlock()
	}()
	lo := int(b) * j.grain
	hi := lo + j.grain
	if hi > j.n {
		hi = j.n
	}
	j.fn(lo, hi)
}

// Pool is a fixed set of persistent helper goroutines.
type Pool struct {
	jobs    chan *job
	workers int
	active  atomic.Int64 // concurrent For calls (callers)
}

// NewPool starts a pool with the given number of helper workers. Zero
// workers is valid: every For call then runs serially on the caller.
func NewPool(workers int) *Pool {
	if workers < 0 {
		workers = 0
	}
	p := &Pool{
		// Buffered so offering help never blocks the caller; stale jobs
		// (already finished by the caller) are drained and discarded.
		jobs:    make(chan *job, workers*2+1),
		workers: workers,
	}
	for i := 0; i < workers; i++ {
		go func() {
			for j := range p.jobs {
				j.run()
			}
		}()
	}
	return p
}

// Workers reports the helper count.
func (p *Pool) Workers() int { return p.workers }

// Close stops the helper goroutines once queued jobs drain. For calls after
// Close run serially.
func (p *Pool) Close() { close(p.jobs) }

// For splits [0, n) into ⌈n/grain⌉ fixed blocks and executes fn(lo, hi) for
// each, using the caller plus up to workers/activeCallers idle helpers. It
// returns when every block has completed. fn must treat the blocks as
// independent: it may be called concurrently from several goroutines, but
// the block boundaries never depend on the worker count. A panic inside fn
// is re-raised on the calling goroutine after all in-flight blocks settle.
func (p *Pool) For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	blocks := (n + grain - 1) / grain
	if blocks == 1 {
		fn(0, n)
		return
	}
	if p.workers == 0 {
		serialBlocks(n, grain, blocks, fn)
		return
	}

	active := p.active.Add(1)
	defer p.active.Add(-1)
	helpers := p.workers / int(active)
	if helpers > blocks-1 {
		helpers = blocks - 1
	}
	if helpers <= 0 {
		serialBlocks(n, grain, blocks, fn)
		return
	}

	j := &job{fn: fn, n: n, grain: grain, blocks: int64(blocks), fin: make(chan struct{})}
	for i := 0; i < helpers; i++ {
		select {
		case p.jobs <- j:
		default: // queue full: workers are busy, run the rest ourselves
			i = helpers
		}
	}
	j.run()
	<-j.fin
	if pi := j.panicked.Load(); pi != nil {
		panic(fmt.Sprintf("parallel: block panicked: %v", pi.val))
	}
}

// serialBlocks walks the identical fixed partition on the calling goroutine,
// so fn observes the same (lo, hi) sequence whether or not helpers join.
func serialBlocks(n, grain, blocks int, fn func(lo, hi int)) {
	for b := 0; b < blocks; b++ {
		lo := b * grain
		hi := lo + grain
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	}
}

// Do runs the given functions as one fixed-partition job (block = one
// function) and waits for all of them.
func (p *Pool) Do(fns ...func()) {
	p.For(len(fns), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fns[i]()
		}
	})
}

// The default process-wide pool. Sized to GOMAXPROCS-1 helpers so that a
// single caller plus its helpers exactly fill the machine; combined with the
// active-caller budget this composes with harness.Execute's fan-out.
var (
	defaultMu   sync.Mutex
	defaultPool atomic.Pointer[Pool]
)

func init() {
	defaultPool.Store(NewPool(runtime.GOMAXPROCS(0) - 1))
}

// Default returns the shared pool.
func Default() *Pool { return defaultPool.Load() }

// SetWorkers replaces the shared pool with one holding the given helper
// count and returns the previous count. Intended for CLIs and benchmarks
// (worker-count sweeps); concurrent For calls on the old pool finish
// normally.
func SetWorkers(workers int) int {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	old := defaultPool.Load()
	if old.Workers() == workers {
		return workers
	}
	defaultPool.Store(NewPool(workers))
	old.Close()
	return old.Workers()
}

// Workers reports the shared pool's helper count.
func Workers() int { return Default().Workers() }

// For runs fn over fixed blocks of [0, n) on the shared pool.
func For(n, grain int, fn func(lo, hi int)) { Default().For(n, grain, fn) }

// Do runs the functions on the shared pool and waits.
func Do(fns ...func()) { Default().Do(fns...) }
