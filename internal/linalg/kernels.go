package linalg

// This file is the portable half of the numeric kernel layer: the fused
// vector primitives Axpy and Dot that the glasso sweep, the triangular
// solves and Mul run on. On amd64 with AVX2+FMA they dispatch to the
// assembly kernels in kernels_amd64.s (runtime CPUID-detected); on other
// architectures and CPUs without FMA the Go fallbacks below run.
//
// Determinism contract: every kernel is deterministic for a fixed build,
// CPU, and input — the same call always produces the same bits. Kernels
// MAY order (and fuse) floating-point operations differently from a naive
// scalar loop, so results can differ in the last bits across CPU
// generations; nothing in FDX compares results across machines bit-wise.

// simdEnabled reports whether the AVX2+FMA assembly kernels are in use.
// It is fixed at process start: CPUID does not change.
var simdEnabled = haveFMA()

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
