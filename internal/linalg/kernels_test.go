package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mulNaive is the seed triple-loop matrix multiply, kept verbatim as the
// semantic oracle for Mul in TestMulMatchesNaive.
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

// TestMulMatchesNaive checks Mul against the frozen seed kernel across
// shapes that exercise every Axpy unroll remainder (cols % 16, % 4) and
// tiny and empty dims.
func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{0, 0, 0}, {1, 1, 1}, {2, 3, 4}, {4, 4, 4}, {4, 8, 8},
		{5, 7, 9}, {8, 8, 8}, {13, 17, 19}, {16, 16, 16},
		{31, 33, 35}, {64, 64, 64}, {67, 1, 67}, {1, 67, 1},
	}
	for _, sh := range shapes {
		n, k, m := sh[0], sh[1], sh[2]
		a := randomDense(rng, n, k)
		b := randomDense(rng, k, m)
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

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// vectorKernels pairs the dispatched primitives (the SIMD kernels on an
// AVX2+FMA host) with the portable fallbacks, which otherwise run only on
// other architectures and CPUs without FMA.
var vectorKernels = []struct {
	name string
	axpy func(alpha float64, x, y []float64)
	dot  func(x, y []float64) float64
}{
	{"dispatched", Axpy, Dot},
	{"generic", axpyGeneric, dotGeneric},
}

// TestAxpyDotMatchScalar checks both the dispatched and the portable
// primitives against plain scalar loops at lengths hitting each unroll
// remainder (16/4/1 lanes).
func TestAxpyDotMatchScalar(t *testing.T) {
	for _, kern := range vectorKernels {
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
			if got := kern.dot(x, y); math.Abs(got-wantDot) > tol {
				t.Errorf("%s Dot n=%d: got %g want %g", kern.name, n, got, wantDot)
			}
			alpha := 1.7
			wantY := make([]float64, n)
			for i := range y {
				wantY[i] = y[i] + alpha*x[i]
			}
			kern.axpy(alpha, x, y)
			for i := range y {
				if math.Abs(y[i]-wantY[i]) > 1e-12 {
					t.Fatalf("%s Axpy n=%d index %d: got %g want %g", kern.name, n, i, y[i], wantY[i])
				}
			}
		}
	}
}

// TestAxpyDotLengthMismatchPanics checks the guard rails.
func TestAxpyDotLengthMismatchPanics(t *testing.T) {
	assertPanics(t, "Axpy", func() { Axpy(1, make([]float64, 3), make([]float64, 4)) })
	assertPanics(t, "Dot", func() { Dot(make([]float64, 3), make([]float64, 4)) })
}

// TestAxpyDotZeroAlloc checks that the dispatched and the portable vector
// primitives allocate nothing per call: the runtime half of their
// zero-alloc contract.
func TestAxpyDotZeroAlloc(t *testing.T) {
	x := make([]float64, 1024)
	y := make([]float64, 1024)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(1024 - i)
	}
	sink := 0.0
	for _, kern := range vectorKernels {
		allocs := testing.AllocsPerRun(20, func() {
			kern.axpy(0.5, x, y)
			sink += kern.dot(x, y)
		})
		if allocs > 0 {
			t.Errorf("%s Axpy+Dot allocates %.1f times per op, want 0", kern.name, allocs)
		}
	}
	_ = sink
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
