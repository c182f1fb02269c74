package linalg

// This file is the scalar/portable half of the numeric kernel layer: fused
// vector primitives (Axpy, Dot) and the cache-blocked register-tiled
// matrix multiply. The multiply's speedup over the frozen seed kernel
// (mulNaive in kernels_test.go) is gated by BenchmarkGateMatmul in
// gate_test.go. On amd64 with AVX2+FMA the primitives dispatch to the
// assembly kernels in kernels_amd64.s (runtime CPUID-detected, overridable
// with FDX_NO_SIMD=1); everywhere else the Go fallbacks below run.
//
// Determinism contract: every kernel is deterministic for a fixed build,
// CPU, and input — the same call always produces the same bits. Kernels
// MAY order (and fuse) floating-point operations differently from a naive
// scalar loop, so results can differ in the last bits across CPU
// generations or with SIMD disabled; nothing in FDX compares results
// across machines bit-wise. Within one process the parallel and serial
// paths of every caller stay bit-for-bit identical because each output
// element is produced by exactly one chunk in a fixed intra-chunk order
// (see internal/par).

import (
	"fmt"
	"os"
	"runtime"
	"sync"

	"fdx/internal/par"
)

// simdEnabled reports whether the AVX2+FMA assembly kernels are in use.
// It is fixed at process start: CPUID does not change, and the
// FDX_NO_SIMD override is read once.
var simdEnabled = haveFMA() && os.Getenv("FDX_NO_SIMD") == ""

// Axpy computes y[i] += alpha*x[i] over the paired elements of x and y.
// Panics if the slices have different lengths. An exactly-zero alpha still
// runs: NaN/Inf propagation matches the IEEE product, not a skip.
//
// fdx:zero-alloc — verified statically by the hotalloc analyzer and at
// runtime by the AllocsPerRun gates in kernels_test.go.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		// Constant-string panic: this guard must not drag fmt's allocations
		// into the zero-alloc kernel (see the fdx:zero-alloc marker).
		panic("linalg: Axpy length mismatch")
	}
	if len(x) == 0 {
		return
	}
	if simdEnabled {
		fmaAxpy(alpha, &x[0], &y[0], len(x))
		return
	}
	axpyGeneric(alpha, x, y)
}

// axpyGeneric is the portable Axpy: 4-way unrolled so the independent
// accumulation chains pipeline on scalar FPUs. Panics if the slices have
// different lengths (Axpy checks first; this guard keeps the kernel safe
// if ever called directly).
//
// fdx:zero-alloc
func axpyGeneric(alpha float64, x, y []float64) {
	n := len(x)
	if len(y) != n {
		panic("linalg: axpyGeneric length mismatch")
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		y4[0] += alpha * x4[0]
		y4[1] += alpha * x4[1]
		y4[2] += alpha * x4[2]
		y4[3] += alpha * x4[3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// Dot returns the inner product of x and y.
// Panics if the slices have different lengths.
//
// fdx:zero-alloc — verified statically by the hotalloc analyzer and at
// runtime by the AllocsPerRun gates in kernels_test.go.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		// Constant-string panic: see Axpy.
		panic("linalg: Dot length mismatch")
	}
	if len(x) == 0 {
		return 0
	}
	if simdEnabled {
		return fmaDot(&x[0], &y[0], len(x))
	}
	return dotGeneric(x, y)
}

// dotGeneric is the portable Dot: four independent partial sums folded in
// a fixed order, mirroring the lane structure of the SIMD kernel. Panics
// if the slices have different lengths (Dot checks first; this guard keeps
// the kernel safe if ever called directly).
//
// fdx:zero-alloc
func dotGeneric(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(x)
	if len(y) != n {
		panic("linalg: dotGeneric length mismatch")
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		s0 += x4[0] * y4[0]
		s1 += x4[1] * y4[1]
		s2 += x4[2] * y4[2]
		s3 += x4[3] * y4[3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}

// packPool recycles the A-panel packing buffers of MulTo so steady-state
// multiplies of a fixed size allocate only their result matrix.
var packPool = sync.Pool{New: func() any { return &packBuf{} }}

type packBuf struct{ data []float64 }

func getPack(n int) *packBuf {
	pb := packPool.Get().(*packBuf)
	if cap(pb.data) < n {
		pb.data = make([]float64, n)
	}
	pb.data = pb.data[:n]
	return pb
}

// mulParallelFlops is the a.rows*a.cols*b.cols product above which MulTo
// fans row blocks out across GOMAXPROCS workers. Below it the fan-out
// overhead outweighs the arithmetic.
const mulParallelFlops = 1 << 21

// MulTo computes c = a·b into the caller's preallocated c, returning c.
// c is fully overwritten and must not alias a or b.
// Panics if the inner dimensions disagree or c has the wrong shape.
//
// The kernel is cache-blocked and register-tiled: the A operand is packed
// 4 rows at a time, and each 4×8 tile of C accumulates in registers
// across the whole shared dimension (AVX2 FMA on amd64, an unrolled
// scalar tile elsewhere). Large products additionally fan the 4-row
// blocks out across GOMAXPROCS workers; every C element is still written
// by exactly one worker in a fixed order, so the result is identical at
// any parallelism.
func MulTo(c, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if c.rows != a.rows || c.cols != b.cols {
		panic(fmt.Sprintf("linalg: MulTo result is %dx%d, want %dx%d", c.rows, c.cols, a.rows, b.cols))
	}
	n, m, kk := a.rows, b.cols, a.cols
	for i := range c.data {
		c.data[i] = 0
	}
	if n == 0 || m == 0 || kk == 0 {
		return c
	}
	rowBlocks := n / 4
	workers := runtime.GOMAXPROCS(0)
	if workers > 1 && n*m*kk >= mulParallelFlops && rowBlocks > 1 {
		if workers > rowBlocks {
			workers = rowBlocks
		}
		pool := par.New(workers)
		// Each task owns 4-row output blocks [4·lo, 4·hi) and its own
		// packing buffer; block boundaries depend only on the shape.
		pool.For(rowBlocks, 1, func(lo, hi int) {
			pb := getPack(4 * kk)
			for blk := lo; blk < hi; blk++ {
				mulRowBlock(c, a, b, 4*blk, pb.data)
			}
			packPool.Put(pb)
		})
		pool.Close()
	} else {
		pb := getPack(4 * kk)
		for blk := 0; blk < rowBlocks; blk++ {
			mulRowBlock(c, a, b, 4*blk, pb.data)
		}
		packPool.Put(pb)
	}
	// Remainder rows ([4·rowBlocks, n)) over all columns.
	mulEdge(c, a, b, 4*rowBlocks, n, 0, m)
	return c
}

// mulRowBlock accumulates the 4 output rows starting at i0 for every
// column, packing A's rows column-major so the inner kernels stream it.
// Panics if the operand shapes disagree or apack cannot hold the packed
// rows (MulTo validates first; this guard keeps the kernel self-contained).
func mulRowBlock(c, a, b *Dense, i0 int, apack []float64) {
	kk, m := a.cols, b.cols
	if b.rows != kk || c.cols != m || len(apack) < 4*kk {
		panic("linalg: mulRowBlock operand shapes disagree")
	}
	a0 := a.Row(i0)
	a1 := a.Row(i0 + 1)
	a2 := a.Row(i0 + 2)
	a3 := a.Row(i0 + 3)
	for k := 0; k < kk; k++ {
		ap := apack[4*k : 4*k+4 : 4*k+4]
		ap[0] = a0[k]
		ap[1] = a1[k]
		ap[2] = a2[k]
		ap[3] = a3[k]
	}
	j := 0
	if simdEnabled {
		for ; j+8 <= m; j += 8 {
			fmaKernel4x8(kk, &apack[0], &b.data[j], b.cols, &c.data[i0*c.cols+j], c.cols)
		}
	} else {
		for ; j+4 <= m; j += 4 {
			tile4x4(kk, apack, b, j, c, i0)
		}
	}
	// Leftover columns of this row block.
	mulEdge(c, a, b, i0, i0+4, j, m)
}

// tile4x4 is the portable register tile: C[i0:i0+4][j0:j0+4] accumulated
// in 16 scalars across the whole shared dimension.
func tile4x4(kk int, apack []float64, b *Dense, j0 int, c *Dense, i0 int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	for k := 0; k < kk; k++ {
		bk := b.data[k*b.cols+j0 : k*b.cols+j0+4 : k*b.cols+j0+4]
		b0, b1, b2, b3 := bk[0], bk[1], bk[2], bk[3]
		ap := apack[4*k : 4*k+4 : 4*k+4]
		av := ap[0]
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		av = ap[1]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		av = ap[2]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		av = ap[3]
		c30 += av * b0
		c31 += av * b1
		c32 += av * b2
		c33 += av * b3
	}
	w := c.cols
	crow := c.data[i0*w+j0 : i0*w+j0+4 : i0*w+j0+4]
	crow[0] += c00
	crow[1] += c01
	crow[2] += c02
	crow[3] += c03
	crow = c.data[(i0+1)*w+j0 : (i0+1)*w+j0+4 : (i0+1)*w+j0+4]
	crow[0] += c10
	crow[1] += c11
	crow[2] += c12
	crow[3] += c13
	crow = c.data[(i0+2)*w+j0 : (i0+2)*w+j0+4 : (i0+2)*w+j0+4]
	crow[0] += c20
	crow[1] += c21
	crow[2] += c22
	crow[3] += c23
	crow = c.data[(i0+3)*w+j0 : (i0+3)*w+j0+4 : (i0+3)*w+j0+4]
	crow[0] += c30
	crow[1] += c31
	crow[2] += c32
	crow[3] += c33
}

// mulEdge handles the tile remainders (rows [i0, i1), columns [j0, j1))
// with the i-k-j loop over fused Axpy updates. Panics if the operand
// shapes disagree (MulTo validates first).
func mulEdge(c, a, b *Dense, i0, i1, j0, j1 int) {
	if i0 >= i1 || j0 >= j1 {
		return
	}
	if a.cols != b.rows || c.cols != b.cols {
		panic("linalg: mulEdge operand shapes disagree")
	}
	for i := i0; i < i1; i++ {
		arow := a.Row(i)
		crow := c.Row(i)[j0:j1]
		for k, av := range arow {
			Axpy(av, b.Row(k)[j0:j1], crow)
		}
	}
}
