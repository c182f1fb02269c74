package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// mulNaive is the seed triple-loop matrix multiply, kept verbatim as the
// reference kernel for BenchmarkGateMatmul (gate_test.go gates the blocked
// kernel's speedup against it) and as the semantic oracle in the kernel
// equivalence tests. Production callers use Mul/MulTo.
// Panics if the inner dimensions disagree.
func mulNaive(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// TestMulMatchesNaive checks the blocked/SIMD multiply against the frozen
// seed kernel across shapes that exercise every tile-remainder path
// (rows % 4, cols % 8, tiny and empty dims).
func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{0, 0, 0}, {1, 1, 1}, {2, 3, 4}, {4, 4, 4}, {4, 8, 8},
		{5, 7, 9}, {8, 8, 8}, {13, 17, 19}, {16, 16, 16},
		{31, 33, 35}, {64, 64, 64}, {67, 1, 67}, {1, 67, 1},
	}
	for _, sh := range shapes {
		n, k, m := sh[0], sh[1], sh[2]
		a := randDense(rng, n, k)
		b := randDense(rng, k, m)
		want := mulNaive(a, b)
		got := Mul(a, b)
		// FMA fuses multiply-add, so allow last-bit drift scaled by the
		// reduction length.
		tol := 1e-12 * float64(k+1)
		if d := MaxAbsDiff(want, got); d > tol {
			t.Errorf("Mul %dx%dx%d: max diff %g > %g", n, k, m, d, tol)
		}
	}
}

// TestMulToRejectsBadShapes checks the panic contracts.
func TestMulToRejectsBadShapes(t *testing.T) {
	a := NewDense(3, 4)
	b := NewDense(4, 5)
	assertPanics(t, "inner mismatch", func() { MulTo(NewDense(3, 5), b, a) })
	assertPanics(t, "result shape", func() { MulTo(NewDense(5, 3), a, b) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestMulToOverwritesResult checks that stale values in c do not leak into
// the product.
func TestMulToOverwritesResult(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randDense(rng, 9, 11)
	b := randDense(rng, 11, 10)
	c := randDense(rng, 9, 10) // garbage contents
	MulTo(c, a, b)
	want := mulNaive(a, b)
	if d := MaxAbsDiff(want, c); d > 1e-11 {
		t.Errorf("stale c leaked into result: max diff %g", d)
	}
}

// TestAxpyDotMatchScalar checks the fused primitives against plain scalar
// loops at lengths hitting each unroll remainder (16/4/1 lanes).
func TestAxpyDotMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 100, 1003} {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		wantDot := 0.0
		for i := range x {
			wantDot += x[i] * y[i]
		}
		tol := 1e-12 * float64(n+1)
		if got := Dot(x, y); math.Abs(got-wantDot) > tol {
			t.Errorf("Dot n=%d: got %g want %g", n, got, wantDot)
		}
		alpha := 1.7
		wantY := make([]float64, n)
		for i := range y {
			wantY[i] = y[i] + alpha*x[i]
		}
		Axpy(alpha, x, y)
		for i := range y {
			if math.Abs(y[i]-wantY[i]) > 1e-12 {
				t.Fatalf("Axpy n=%d index %d: got %g want %g", n, i, y[i], wantY[i])
			}
		}
	}
}

// TestAxpyDotLengthMismatchPanics checks the guard rails.
func TestAxpyDotLengthMismatchPanics(t *testing.T) {
	assertPanics(t, "Axpy", func() { Axpy(1, make([]float64, 3), make([]float64, 4)) })
	assertPanics(t, "Dot", func() { Dot(make([]float64, 3), make([]float64, 4)) })
}

// TestMulDeterministicAcrossRuns checks bit-for-bit repeatability of the
// blocked multiply, including the parallel fan-out path (forced by the
// large shape when GOMAXPROCS > 1).
func TestMulDeterministicAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("large multiply")
	}
	rng := rand.New(rand.NewSource(10))
	a := randDense(rng, 160, 160)
	b := randDense(rng, 160, 160)
	first := Mul(a, b)
	for run := 0; run < 3; run++ {
		again := Mul(a, b)
		for i := range first.data {
			if first.data[i] != again.data[i] {
				t.Fatalf("run %d: element %d differs: %v vs %v", run, i, first.data[i], again.data[i])
			}
		}
	}
}

// TestMulToZeroAllocSteadyState checks that repeated multiplies into a
// reused result matrix stay allocation-free once the pack pool is warm.
func TestMulToZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randDense(rng, 32, 32)
	b := randDense(rng, 32, 32)
	c := NewDense(32, 32)
	MulTo(c, a, b) // warm the pack pool
	allocs := testing.AllocsPerRun(20, func() { MulTo(c, a, b) })
	if allocs > 0 {
		t.Errorf("MulTo steady state allocates %.1f times per op, want 0", allocs)
	}
}

// TestAxpyDotZeroAlloc checks that the fused vector primitives allocate
// nothing per call: the runtime half of their zero-alloc contract.
func TestAxpyDotZeroAlloc(t *testing.T) {
	x := make([]float64, 1024)
	y := make([]float64, 1024)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(1024 - i)
	}
	sink := 0.0
	allocs := testing.AllocsPerRun(20, func() {
		Axpy(0.5, x, y)
		sink += Dot(x, y)
	})
	if allocs > 0 {
		t.Errorf("Axpy+Dot allocates %.1f times per op, want 0", allocs)
	}
	_ = sink
}

func BenchmarkMulBlocked256(b *testing.B) { benchMul(b, Mul) }
func BenchmarkMulNaive256(b *testing.B)   { benchMul(b, mulNaive) }

func benchMul(b *testing.B, mul func(x, y *Dense) *Dense) {
	rng := rand.New(rand.NewSource(12))
	x := randDense(rng, 256, 256)
	y := randDense(rng, 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mul(x, y)
	}
}

func BenchmarkDot1024(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x := make([]float64, 1024)
	y := make([]float64, 1024)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += Dot(x, y)
	}
	_ = s
}
