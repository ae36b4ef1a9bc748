package nn

import (
	"fmt"
	"testing"

	"hammer/internal/parallel"
	"hammer/internal/randx"
)

// ---------------------------------------------------------------------------
// Finite-difference gradient checks for the fused kernels.

func TestGradAffine(t *testing.T) {
	for _, act := range []Activation{ActNone, ActSigmoid, ActTanh, ActReLU} {
		t.Run(fmt.Sprintf("act=%d", act), func(t *testing.T) {
			rng := testRand()
			x := randParam(5, 3, rng)
			w := randParam(3, 4, rng)
			b := randParam(1, 4, rng)
			checkGrads(t, []*Tensor{x, w, b}, func() *Tensor {
				return Mean(Affine(x, w, b, act))
			})
		})
	}
}

func TestGradFusedGate(t *testing.T) {
	for _, act := range []Activation{ActSigmoid, ActTanh} {
		t.Run(fmt.Sprintf("act=%d", act), func(t *testing.T) {
			rng := testRand()
			x := randParam(4, 3, rng)
			wx := randParam(3, 5, rng)
			h := randParam(4, 5, rng)
			wh := randParam(5, 5, rng)
			b := randParam(1, 5, rng)
			checkGrads(t, []*Tensor{x, wx, h, wh, b}, func() *Tensor {
				return Mean(FusedGate(x, wx, h, wh, b, act))
			})
		})
	}
}

func TestGradConvStep(t *testing.T) {
	rng := testRand()
	in0 := randParam(4, 3, rng)
	in1 := randParam(4, 3, rng)
	in2 := randParam(4, 3, rng)
	w0 := randParam(3, 2, rng)
	w1 := randParam(3, 2, rng)
	w2 := randParam(3, 2, rng)
	b := randParam(1, 2, rng)
	params := []*Tensor{in0, in1, in2, w0, w1, w2, b}
	checkGrads(t, params, func() *Tensor {
		return Mean(convStep([]*Tensor{in0, in1, in2}, []*Tensor{w0, w1, w2}, b, ActReLU))
	})
}

func TestGradAttnMix(t *testing.T) {
	rng := testRand()
	const B, d, T = 3, 4, 3
	q := randParam(B, d, rng)
	ks := []*Tensor{randParam(B, d, rng), randParam(B, d, rng), randParam(B, d, rng)}
	vs := []*Tensor{randParam(B, d, rng), randParam(B, d, rng), randParam(B, d, rng)}
	params := append([]*Tensor{q}, append(append([]*Tensor{}, ks...), vs...)...)
	checkGrads(t, params, func() *Tensor {
		return Mean(attnMix(q, ks, vs, 0.5))
	})
}

// ---------------------------------------------------------------------------
// Blocked kernels vs. straightforward reference loops, on awkward shapes and
// with the worker pool forced on. Results must be exactly equal — the blocked
// kernels keep the same per-element accumulation order.

func refGemmDot(m, n, k int, a, bt, c []float64, acc bool) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*k+p] * bt[j*k+p]
			}
			if acc {
				c[i*n+j] += s
			} else {
				c[i*n+j] = s
			}
		}
	}
}

func refGemmATB(m, k, n int, a, g, dB []float64) {
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			av := a[i*k+p]
			for j := 0; j < n; j++ {
				dB[p*n+j] += av * g[i*n+j]
			}
		}
	}
}

func randSlice(n int, rng *randx.Rand) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func TestBlockedGemmMatchesReference(t *testing.T) {
	origWorkers := parallel.Workers()
	parallel.SetWorkers(3) // force helper participation even on 1-CPU hosts
	defer parallel.SetWorkers(origWorkers)

	rng := randx.New(5)
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {2, 3, 5}, {7, 1, 9}, {1, 13, 4}, {5, 5, 5},
		{33, 17, 3}, {70, 70, 10}, {129, 65, 33}, {64, 64, 64},
	}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.n, sh.k), func(t *testing.T) {
			a := randSlice(sh.m*sh.k, rng)
			bt := randSlice(sh.n*sh.k, rng)
			want := randSlice(sh.m*sh.n, rng)
			got := append([]float64(nil), want...)
			for _, acc := range []bool{false, true} {
				refGemmDot(sh.m, sh.n, sh.k, a, bt, want, acc)
				gemmDot(sh.m, sh.n, sh.k, a, bt, got, acc)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("gemmDot acc=%v element %d: got %v, want %v", acc, i, got[i], want[i])
					}
				}
			}
			g := randSlice(sh.m*sh.n, rng)
			wantB := randSlice(sh.k*sh.n, rng)
			gotB := append([]float64(nil), wantB...)
			refGemmATB(sh.m, sh.k, sh.n, a, g, wantB)
			gemmATB(sh.m, sh.k, sh.n, a, g, gotB)
			for i := range wantB {
				if wantB[i] != gotB[i] {
					t.Fatalf("gemmATB element %d: got %v, want %v", i, gotB[i], wantB[i])
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// End-to-end bit-compatibility: training the full layer stack with the
// blocked/fused kernels must produce parameters bitwise identical to the
// legacy (pre-rewrite) graphs, step for step.

// testStack is a miniature of the paper's model touching every fused path:
// Dense embed → TCN block (conv+ReLU) → BiGRU (gates) → attention → head.
type testStack struct {
	embed *Dense
	tcn   *TCN
	gru   *BiGRU
	attn  *MultiHeadAttention
	head  *Dense
}

func newTestStack(rng *randx.Rand) *testStack {
	return &testStack{
		embed: NewDense(1, 6, rng),
		tcn:   NewTCN(6, 6, 3, 1, rng),
		gru:   NewBiGRU(6, 3, rng),
		attn:  NewMultiHeadAttention(6, 2, rng),
		head:  NewDense(6, 1, rng),
	}
}

func (s *testStack) params() []*Tensor {
	out := append(s.embed.Params(), s.tcn.Params()...)
	out = append(out, s.gru.Params()...)
	out = append(out, s.attn.Params()...)
	return append(out, s.head.Params()...)
}

func (s *testStack) forward(seq Sequence) *Tensor {
	h := MapSequence(seq, s.embed.Forward)
	h = s.tcn.Forward(h)
	h = s.gru.Run(h)
	a := s.attn.Forward(h)
	out := make(Sequence, len(h))
	for t := range h {
		out[t] = Add(h[t], a[t])
	}
	return s.head.Forward(out.Last())
}

func trainStackSteps(legacy bool, steps int) []*Tensor {
	prev := SetLegacyKernels(legacy)
	defer SetLegacyKernels(prev)
	rng := randx.New(42)
	stack := newTestStack(rng)
	const B, T = 9, 5
	seq := make(Sequence, T)
	for t := 0; t < T; t++ {
		seq[t] = Zeros(B, 1)
		for i := range seq[t].Data {
			seq[t].Data[i] = rng.NormFloat64()
		}
	}
	target := Zeros(B, 1)
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
	}
	params := stack.params()
	opt := NewAdam(params, 0.01)
	for s := 0; s < steps; s++ {
		loss := MAELoss(stack.forward(seq), target)
		loss.Backward()
		ClipGradNorm(params, 5)
		opt.Step()
		if !legacy {
			Release(loss)
		}
	}
	return params
}

func TestFusedKernelsMatchLegacyBitwise(t *testing.T) {
	want := trainStackSteps(true, 4)
	got := trainStackSteps(false, 4)
	if len(want) != len(got) {
		t.Fatalf("param count mismatch: %d vs %d", len(want), len(got))
	}
	for pi := range want {
		for i := range want[pi].Data {
			if want[pi].Data[i] != got[pi].Data[i] {
				t.Fatalf("param %d element %d diverged after 4 steps: legacy %v, fused %v",
					pi, i, want[pi].Data[i], got[pi].Data[i])
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Allocation guards.

func TestAdamStepDoesNotAllocate(t *testing.T) {
	rng := testRand()
	params := []*Tensor{randParam(16, 16, rng), randParam(1, 16, rng), randParam(16, 1, rng)}
	opt := NewAdam(params, 0.01)
	fill := func() {
		for _, p := range params {
			for i := range p.Grad {
				p.Grad[i] = 0.01 * float64(i%7)
			}
		}
	}
	fill()
	opt.Step() // warm up t and any lazily touched state
	allocs := testing.AllocsPerRun(10, func() {
		fill()
		opt.Step()
	})
	if allocs != 0 {
		t.Fatalf("Adam.Step allocates %v times per run, want 0", allocs)
	}
}

func TestTrainStepNearZeroAllocations(t *testing.T) {
	rng := randx.New(7)
	stack := newTestStack(rng)
	const B, T = 16, 6
	seq := make(Sequence, T)
	for ts := 0; ts < T; ts++ {
		seq[ts] = Zeros(B, 1)
		for i := range seq[ts].Data {
			seq[ts].Data[i] = rng.NormFloat64()
		}
	}
	target := Zeros(B, 1)
	params := stack.params()
	opt := NewAdam(params, 0.001)
	step := func() {
		loss := MAELoss(stack.forward(seq), target)
		loss.Backward()
		opt.Step()
		Release(loss)
	}
	// Warm the freelists and the tensor/struct pools.
	for i := 0; i < 3; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(5, step)
	// The graph itself (hundreds of nodes and buffers per step) is fully
	// recycled; what remains is small per-call slice headers in the layer
	// drivers (Sequence slices, per-head projections). Pin an order of
	// magnitude below one node's worth of the old per-step churn.
	const maxAllocs = 400
	if allocs > maxAllocs {
		t.Fatalf("train step allocates %v times, want <= %d", allocs, maxAllocs)
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks, each with a legacy arm that runs the pre-rewrite kernels.

func benchMatMul(b *testing.B, size int, legacy bool) {
	prev := SetLegacyKernels(legacy)
	defer SetLegacyKernels(prev)
	rng := randx.New(3)
	x := randParam(size, size, rng)
	w := randParam(size, size, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := MatMul(x, w)
		loss := Mean(out)
		loss.Backward()
		x.ZeroGrad()
		w.ZeroGrad()
		if !legacy {
			Release(loss)
		}
	}
}

func BenchmarkMatMul(b *testing.B) {
	for _, size := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("legacy/%d", size), func(b *testing.B) { benchMatMul(b, size, true) })
		b.Run(fmt.Sprintf("blocked/%d", size), func(b *testing.B) { benchMatMul(b, size, false) })
	}
}

// benchStack mirrors the paper model's dimensions (DefaultConfig: hidden 16,
// three TCN levels, four heads), unlike the deliberately tiny testStack.
func newBenchStack(rng *randx.Rand) *testStack {
	return &testStack{
		embed: NewDense(1, 16, rng),
		tcn:   NewTCN(16, 16, 3, 3, rng),
		gru:   NewBiGRU(16, 8, rng),
		attn:  NewMultiHeadAttention(16, 4, rng),
		head:  NewDense(16, 1, rng),
	}
}

func benchTrainStep(b *testing.B, legacy bool) {
	prev := SetLegacyKernels(legacy)
	defer SetLegacyKernels(prev)
	rng := randx.New(11)
	stack := newBenchStack(rng)
	// Full-batch training over an hourly series puts several hundred windows
	// in one step; lookback 24 is the paper's input length.
	const B, T = 256, 24
	seq := make(Sequence, T)
	for ts := 0; ts < T; ts++ {
		seq[ts] = Zeros(B, 1)
		for i := range seq[ts].Data {
			seq[ts].Data[i] = rng.NormFloat64()
		}
	}
	target := Zeros(B, 1)
	params := stack.params()
	opt := NewAdam(params, 0.001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss := MAELoss(stack.forward(seq), target)
		loss.Backward()
		opt.Step()
		if !legacy {
			Release(loss)
		}
	}
}

func BenchmarkTrainStep(b *testing.B) {
	b.Run("legacy", func(b *testing.B) { benchTrainStep(b, true) })
	b.Run("fused", func(b *testing.B) { benchTrainStep(b, false) })
}
