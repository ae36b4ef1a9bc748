package nn

import "hammer/internal/parallel"

// Blocked GEMM kernels. The forward product and both backward products are
// expressed so every output element is a single-accumulator dot product with
// the summation index ascending — the exact accumulation order of the
// original triple loop — so the blocked kernels are bit-compatible with the
// scalar ones (minus the old data-dependent zero-skip, see opMatMul).
//
//	C = A·B        →  pack B's columns into panels, C[i,j] = dot(A row i, col j)
//	dA = dC·Bᵀ     →  pack B's rows into panels, dot(dC row i, B row j)
//	dB = Aᵀ·dC     →  pack Aᵀ and dC's columns, seeded dot over i (see gemmATB)
//
// The panel layout interleaves four operand vectors element-by-element
// (bp[j0*k + p*4 + lane]), which makes the four column-accumulators of the
// 2×4 register tile adjacent in memory. On amd64 with AVX the micro-tile
// runs 4 lanes wide (gemm_amd64.s); each lane is still an independent
// accumulator receiving IEEE mul/add in the same order as the scalar tile,
// so vectorization does not change a single bit. Parallelism splits the
// OUTPUT rows into fixed blocks (parallel.For), so concurrent workers write
// disjoint ranges and results are byte-identical at any worker count.
const (
	// gemmRowGrain rows of output per parallel block. Fixed: it must not
	// depend on worker count, or the partition stops being deterministic.
	gemmRowGrain = 32
	// gemmParFlops is the m·n·k threshold below which parallel dispatch
	// costs more than it saves and kernels stay on the caller.
	gemmParFlops = 1 << 15
	// gemmColBlock bounds how many output columns are streamed per pass so
	// the packed panels stay cache-resident while the A rows sweep them.
	gemmColBlock = 64
)

// gemmAcc selects how a dot-product result lands in c. The three modes exist
// because the legacy engine produced two distinct rounding sequences and both
// must be reproduced exactly:
//
//	gemmAccStore  c[i,j] = dot            (forward products)
//	gemmAccAdd    c[i,j] += complete dot  (legacy dX: full dot, then one add)
//	gemmAccSeed   accumulator starts at c[i,j] and streams the products in
//	              (legacy dB: axpy order — c participates in every rounding)
type gemmAcc int

const (
	gemmAccStore gemmAcc = iota
	gemmAccAdd
	gemmAccSeed
)

func roundUp4(n int) int { return (n + 3) &^ 3 }

// packTranspose writes bt = bᵀ for a k×n row-major b, so column j of b
// becomes the contiguous row bt[j*k : (j+1)*k].
func packTranspose(b []float64, k, n int, bt []float64) {
	for p := 0; p < k; p++ {
		row := b[p*n : p*n+n]
		for j, v := range row {
			bt[j*k+p] = v
		}
	}
}

// panelsFromCols packs the n columns of a k×n row-major matrix into 4-wide
// interleaved panels: bp[(j&^3)*k + p*4 + j&3] = b[p*n + j]. bp must hold
// roundUp4(n)*k elements; tail lanes are zero-padded (their accumulators are
// computed and discarded, never stored).
func panelsFromCols(b []float64, k, n int, bp []float64) {
	for p := 0; p < k; p++ {
		row := b[p*n : p*n+n]
		p4 := p * 4
		for j, v := range row {
			bp[(j&^3)*k+p4+(j&3)] = v
		}
	}
	padPanels(k, n, bp)
}

// panelsFromRows packs the rows of a rows×k row-major matrix into the same
// interleaved panel layout, row r becoming lane r&3 of panel r>>2.
func panelsFromRows(src []float64, rows, k int, bp []float64) {
	for r := 0; r < rows; r++ {
		in := src[r*k : r*k+k]
		out := bp[(r&^3)*k+(r&3):]
		for p, v := range in {
			out[p*4] = v
		}
	}
	padPanels(k, rows, bp)
}

func padPanels(k, n int, bp []float64) {
	if n&3 == 0 {
		return
	}
	base := (n &^ 3) * k
	for p := 0; p < k; p++ {
		for l := n & 3; l < 4; l++ {
			bp[base+p*4+l] = 0
		}
	}
}

// gemmDot computes, for every output element of the m×n matrix c,
//
//	c[i,j] = dot(a[i,:], bt[j,:])    (acc=false: overwrite)
//	c[i,j] += dot(a[i,:], bt[j,:])   (acc=true: add the complete dot)
//
// where a is m×k and bt is n×k, both row-major (bt rows are the operand
// vectors). The operand is panel-packed once, then rows of c are split
// across the shared worker pool when the problem is large enough.
func gemmDot(m, n, k int, a, bt, c []float64, acc bool) {
	mode := gemmAccStore
	if acc {
		mode = gemmAccAdd
	}
	bp := getFloats(roundUp4(n) * k)
	panelsFromRows(bt, n, k, bp)
	gemmDotPanels(m, n, k, a, bp, c, mode)
	putFloats(bp)
}

// gemmDotPanels is the shared entry point once the operand is panel-packed.
func gemmDotPanels(m, n, k int, a, bp, c []float64, mode gemmAcc) {
	if m*n*k >= gemmParFlops {
		parallel.For(m, gemmRowGrain, func(lo, hi int) {
			gemmDotRange(lo, hi, n, k, a, bp, c, mode)
		})
		return
	}
	gemmDotRange(0, m, n, k, a, bp, c, mode)
}

// gemmDotRange handles output rows [lo, hi) with 2×4 register tiling: two
// A rows × one 4-lane panel per inner pass, eight independent accumulators.
// Full panels go through the AVX micro-kernel when the host supports it.
func gemmDotRange(lo, hi, n, k int, a, bp, c []float64, mode gemmAcc) {
	for jc := 0; jc < n; jc += gemmColBlock {
		jEnd := jc + gemmColBlock
		if jEnd > n {
			jEnd = n
		}
		i := lo
		if useAVX && k > 0 {
			for ; i+4 <= hi; i += 4 {
				j := jc
				for ; j+4 <= jEnd; j += 4 {
					gemmKernel4x4(&a[i*k], &a[(i+1)*k], &a[(i+2)*k], &a[(i+3)*k], &bp[j*k],
						&c[i*n+j], &c[(i+1)*n+j], &c[(i+2)*n+j], &c[(i+3)*n+j], k, int(mode))
				}
				for ; j < jEnd; j++ {
					scalarPanelCol(i, i+4, j, n, k, a, bp, c, mode)
				}
			}
		}
		for ; i+2 <= hi; i += 2 {
			a0 := a[i*k : i*k+k]
			a1 := a[(i+1)*k:][:len(a0)]
			j := jc
			if useAVX && k > 0 {
				for ; j+4 <= jEnd; j += 4 {
					gemmKernel2x4(&a0[0], &a1[0], &bp[j*k], &c[i*n+j], &c[(i+1)*n+j], k, int(mode))
				}
			}
			for ; j+4 <= jEnd; j += 4 {
				// Scalar fallback tile: 8 accumulators plus 6 operands —
				// within amd64's 16 XMM registers, nothing spills. The
				// [:...] reslices pin lengths so the loop carries no
				// bounds checks.
				pj := bp[j*k : j*k+4*k]
				c0 := c[i*n+j : i*n+j+4]
				c1 := c[(i+1)*n+j:][:4]
				var s00, s01, s02, s03 float64
				var s10, s11, s12, s13 float64
				if mode == gemmAccSeed {
					s00, s01, s02, s03 = c0[0], c0[1], c0[2], c0[3]
					s10, s11, s12, s13 = c1[0], c1[1], c1[2], c1[3]
				}
				for p, av0 := range a0 {
					av1 := a1[p]
					q := pj[p*4 : p*4+4]
					s00 += av0 * q[0]
					s01 += av0 * q[1]
					s02 += av0 * q[2]
					s03 += av0 * q[3]
					s10 += av1 * q[0]
					s11 += av1 * q[1]
					s12 += av1 * q[2]
					s13 += av1 * q[3]
				}
				if mode == gemmAccAdd {
					c0[0] += s00
					c0[1] += s01
					c0[2] += s02
					c0[3] += s03
					c1[0] += s10
					c1[1] += s11
					c1[2] += s12
					c1[3] += s13
				} else {
					c0[0] = s00
					c0[1] = s01
					c0[2] = s02
					c0[3] = s03
					c1[0] = s10
					c1[1] = s11
					c1[2] = s12
					c1[3] = s13
				}
			}
			for ; j < jEnd; j++ {
				pj := bp[(j&^3)*k+(j&3):]
				var s0, s1 float64
				if mode == gemmAccSeed {
					s0, s1 = c[i*n+j], c[(i+1)*n+j]
				}
				for p, av0 := range a0 {
					bv := pj[p*4]
					s0 += av0 * bv
					s1 += a1[p] * bv
				}
				if mode == gemmAccAdd {
					c[i*n+j] += s0
					c[(i+1)*n+j] += s1
				} else {
					c[i*n+j] = s0
					c[(i+1)*n+j] = s1
				}
			}
		}
		for ; i < hi; i++ {
			for j := jc; j < jEnd; j++ {
				scalarPanelCol(i, i+1, j, n, k, a, bp, c, mode)
			}
		}
	}
}

// scalarPanelCol computes output column j for rows [iLo, iHi) straight from
// the panel layout — the tail path when a row group or column block doesn't
// fill a full tile.
func scalarPanelCol(iLo, iHi, j, n, k int, a, bp, c []float64, mode gemmAcc) {
	pj := bp[(j&^3)*k+(j&3):]
	for i := iLo; i < iHi; i++ {
		ai := a[i*k : i*k+k]
		var s float64
		if mode == gemmAccSeed {
			s = c[i*n+j]
		}
		for p, av := range ai {
			s += av * pj[p*4]
		}
		if mode == gemmAccAdd {
			c[i*n+j] += s
		} else {
			c[i*n+j] = s
		}
	}
}

// gemmATB accumulates dB += Aᵀ·G for an m×k matrix a and m×n matrix g:
//
//	dB[p,j] += Σ_i a[i,p]·g[i,j]
//
// The original backward updated each dB element with i ascending in axpy
// form, so the prior dB value participates in every intermediate rounding.
// Here Aᵀ is packed plain (k×m, rows contiguous over i), G's columns are
// panel-packed, and the tiled dot kernel runs in gemmAccSeed mode: the
// accumulator starts at dB[p,j] and streams the products in with i ascending
// — the identical rounding sequence, far fewer memory operations. Rows p of
// dB are the parallel dimension.
func gemmATB(m, k, n int, a, g, dB []float64) {
	at := getFloats(k * m)
	packTranspose(a, m, k, at)
	gp := getFloats(roundUp4(n) * m)
	panelsFromCols(g, m, n, gp)
	if m*n*k >= gemmParFlops {
		parallel.For(k, gemmRowGrain, func(lo, hi int) {
			gemmDotRange(lo, hi, n, m, at, gp, dB, gemmAccSeed)
		})
	} else {
		gemmDotRange(0, k, n, m, at, gp, dB, gemmAccSeed)
	}
	putFloats(at)
	putFloats(gp)
}

// matMulForward runs the blocked forward product out = a·b, packing b once.
func matMulForward(a, b, out *Tensor) {
	m, k, n := a.Rows, a.Cols, b.Cols
	bp := getFloats(roundUp4(n) * k)
	panelsFromCols(b.Data, k, n, bp)
	gemmDotPanels(m, n, k, a.Data, bp, out.Data, gemmAccStore)
	putFloats(bp)
}

// Legacy scalar kernels: the pre-rewrite triple loops, zero-skip included,
// kept verbatim as the benchmarks' baseline and the bit-compatibility oracle.

func legacyMatMulForward(a, b, out *Tensor) {
	for i := range out.Data {
		out.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		for p := 0; p < a.Cols; p++ {
			av := a.Data[i*a.Cols+p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*b.Cols : (p+1)*b.Cols]
			orow := out.Data[i*b.Cols : (i+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

func legacyMatMulBackward(a, b, out *Tensor) {
	if a.requiresGrad {
		a.ensureGrad()
		for i := 0; i < a.Rows; i++ {
			gi := out.Grad[i*b.Cols : (i+1)*b.Cols]
			for p := 0; p < a.Cols; p++ {
				brow := b.Data[p*b.Cols : (p+1)*b.Cols]
				var s float64
				for j, bv := range brow {
					s += gi[j] * bv
				}
				a.Grad[i*a.Cols+p] += s
			}
		}
	}
	if b.requiresGrad {
		b.ensureGrad()
		for p := 0; p < a.Cols; p++ {
			bg := b.Grad[p*b.Cols : (p+1)*b.Cols]
			for i := 0; i < a.Rows; i++ {
				av := a.Data[i*a.Cols+p]
				if av == 0 {
					continue
				}
				gi := out.Grad[i*b.Cols : (i+1)*b.Cols]
				for j, gv := range gi {
					bg[j] += av * gv
				}
			}
		}
	}
}
