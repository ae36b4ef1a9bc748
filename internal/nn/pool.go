package nn

import (
	"sync"
	"sync/atomic"
)

// Buffer recycling for the training hot loop. Every derived tensor's
// Data/Grad/scratch buffer comes from a size-classed freelist and returns to
// it when the step's graph is released (Release), turning the steady-state
// forward+backward into near-zero heap allocations. Leaves (parameters,
// inputs) are ordinary heap slices and never enter the freelist.
//
// The freelist is shared across goroutines (harness.Execute trains several
// models concurrently in one process), so classes are guarded by small
// mutexes; the critical sections are pointer pushes/pops, orders of
// magnitude cheaper than the kernels they serve.

// legacyKernels switches the whole package to the pre-rewrite behaviour:
// naive triple-loop GEMM with the data-dependent zero-skip, unfused layer
// graphs, and no buffer recycling. It exists so BenchmarkMatMul and
// BenchmarkTrainStep can compare old and new stacks in one binary, and so
// tests can pin the two paths to identical numerics. Not intended to be
// toggled while graphs are alive.
var legacyKernels atomic.Bool

// SetLegacyKernels selects the pre-rewrite scalar kernels (true) or the
// blocked/fused kernel layer (false, the default). Returns the previous
// setting. Toggle only between training runs, never mid-graph.
func SetLegacyKernels(on bool) bool { return legacyKernels.Swap(on) }

// LegacyKernels reports whether the pre-rewrite kernels are active.
func LegacyKernels() bool { return legacyKernels.Load() }

// Float buffers are pooled in power-of-two size classes. Class i holds
// buffers with cap exactly 1<<i; requests round up. Classes above maxClass
// (4M floats = 32 MB) fall through to plain make and are never recycled.
const (
	minClassBits = 3 // smallest pooled cap: 8 floats
	maxClassBits = 22
	numClasses   = maxClassBits + 1
)

// classBytesCap bounds how much memory one class may hold on its freelist so
// a burst of huge temporaries cannot pin the heap.
const classBytesCap = 16 << 20

type floatClass struct {
	mu   sync.Mutex
	bufs [][]float64
	max  int // max resident buffers, derived from classBytesCap
}

var floatClasses [numClasses]floatClass

func init() {
	for i := range floatClasses {
		max := classBytesCap / (8 << uint(i))
		if max < 4 {
			max = 4
		}
		if max > 4096 {
			max = 4096
		}
		floatClasses[i].max = max
	}
}

// classFor returns the smallest class whose cap fits n, or -1 when n is too
// large to pool.
func classFor(n int) int {
	c := minClassBits
	for c <= maxClassBits && (1<<uint(c)) < n {
		c++
	}
	if c > maxClassBits {
		return -1
	}
	return c
}

// getFloats returns a length-n slice with unspecified contents. Callers must
// fully overwrite it (every op kernel does).
func getFloats(n int) []float64 {
	if n == 0 {
		return nil
	}
	if legacyKernels.Load() {
		return make([]float64, n)
	}
	c := classFor(n)
	if c < 0 {
		return make([]float64, n)
	}
	fc := &floatClasses[c]
	fc.mu.Lock()
	if len(fc.bufs) > 0 {
		b := fc.bufs[len(fc.bufs)-1]
		fc.bufs = fc.bufs[:len(fc.bufs)-1]
		fc.mu.Unlock()
		return b[:n]
	}
	fc.mu.Unlock()
	return make([]float64, n, 1<<uint(c))
}

// getFloatsZeroed returns a zeroed length-n slice from the freelist.
func getFloatsZeroed(n int) []float64 {
	s := getFloats(n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// putFloats returns a buffer to its class. Buffers whose cap is not an exact
// class size (plain make'd slices, e.g. from legacy mode) are dropped for
// the GC to take.
func putFloats(s []float64) {
	if s == nil || legacyKernels.Load() {
		return
	}
	c := classFor(cap(s))
	if c < 0 || cap(s) != 1<<uint(c) {
		return
	}
	fc := &floatClasses[c]
	fc.mu.Lock()
	if len(fc.bufs) < fc.max {
		fc.bufs = append(fc.bufs, s[:0])
	}
	fc.mu.Unlock()
}

// Tensor structs are pooled too; parents capacity survives recycling so the
// per-node parent list stops allocating after warm-up.
var tensorPool = sync.Pool{New: func() any { return new(Tensor) }}

func getTensorStruct() *Tensor {
	if legacyKernels.Load() {
		return new(Tensor)
	}
	return tensorPool.Get().(*Tensor)
}

func putTensorStruct(t *Tensor) {
	if legacyKernels.Load() {
		return
	}
	tensorPool.Put(t)
}

// Topological-order scratch for Backward/Release walks.
var walkPool = sync.Pool{New: func() any { return new(walkScratch) }}

type walkScratch struct {
	order []*Tensor
	stack []walkFrame
}

type walkFrame struct {
	node *Tensor
	next int
}

// stampCounter issues unique visit stamps so graph walks need no visited
// map. Tensors are only ever walked by their owning goroutine, but the
// counter itself is shared by all concurrent trainings.
var stampCounter atomic.Uint64

func nextStamp() uint64 { return stampCounter.Add(1) }
