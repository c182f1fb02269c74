package linalg

import (
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// Speedup gates: run only under -bench (make bench-kernels, or
// make bench-kernels-short for the CI sizes selected by -short), never by
// go test ./.... Each floor is 0.9× the speedup the retired kernel harness
// last recorded in its committed baseline (BENCH_kernels.json, since
// removed; GOMAXPROCS 1, 1 CPU, AVX2+FMA); a run below its floor fails the
// benchmark. Sizes whose reference kernel took under 1 ms in that baseline
// were never gated: a ratio of two sub-millisecond timings is mostly timer
// noise.
const (
	// floorMatmul128 is blocked MulTo vs mulNaive at n=128; baseline 10.156×.
	floorMatmul128 = 0.9 * 10.156282112195177
	// floorMatmul256 is blocked MulTo vs mulNaive at n=256; baseline 9.907×.
	floorMatmul256 = 0.9 * 9.907355854766006
)

// gateReps is how many interleaved timings each side of a gate gets; the
// minimum of each side is compared.
const gateReps = 11

// minInterleaved times fast and ref alternately reps times and returns the
// fastest run of each. Interleaving exposes both sides to the same
// scheduler and frequency drift; the minimum discards the runs it hit.
func minInterleaved(reps int, fast, ref func()) (fastMin, refMin time.Duration) {
	fast()
	ref()
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		fast()
		d := time.Since(t0)
		if r == 0 || d < fastMin {
			fastMin = d
		}
		t0 = time.Now()
		ref()
		d = time.Since(t0)
		if r == 0 || d < refMin {
			refMin = d
		}
	}
	return fastMin, refMin
}

// BenchmarkGateMatmul gates the blocked multiply's speedup over the frozen
// seed kernel, both timed in this run on the same Gaussian operands.
func BenchmarkGateMatmul(b *testing.B) {
	for _, g := range []struct {
		n     int
		floor float64
	}{{128, floorMatmul128}, {256, floorMatmul256}} {
		rng := rand.New(rand.NewSource(int64(g.n)))
		x := randDense(rng, g.n, g.n)
		y := randDense(rng, g.n, g.n)
		c := NewDense(g.n, g.n)
		blocked, naive := minInterleaved(gateReps,
			func() { MulTo(c, x, y) },
			func() { mulNaive(x, y) })
		speedup := naive.Seconds() / blocked.Seconds()
		b.ReportMetric(speedup, "x_n"+strconv.Itoa(g.n))
		if speedup < g.floor {
			b.Fatalf("matmul n=%d: blocked-vs-naive speedup %.2f× (blocked %v, naive %v), floor %.2f×",
				g.n, speedup, blocked, naive, g.floor)
		}
	}
}
