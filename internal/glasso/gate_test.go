package glasso

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"

	"fdx/internal/linalg"
)

// Speedup gates: run only under -bench (make bench-kernels, or
// make bench-kernels-short for the CI sizes selected by -short), never by
// go test ./.... Each relative floor is 0.9× the speedup the retired kernel
// harness last recorded in its committed baseline (BENCH_kernels.json,
// since removed; GOMAXPROCS 1, 1 CPU, AVX2+FMA); a run below its floor
// fails the benchmark. Sizes whose reference solve took under 1 ms in that
// baseline were never gated: a ratio of two sub-millisecond timings is
// mostly timer noise.
const (
	// floorVsSeed64 is Solve (Workers 8) vs seedGlassoSolve at p=64;
	// baseline 2.109×.
	floorVsSeed64 = 0.9 * 2.1087491640524396
	// floorVsSeed128 is the same at p=128 (full mode only); baseline 3.087×.
	floorVsSeed128 = 0.9 * 3.087368041914678
	// floorScreened256 is screened vs NoScreen SolveBlocks at Workers 1 on
	// the planted covariance, p=256; baseline 8.340×.
	floorScreened256 = 0.9 * 8.339999332000515
	// floorScreened512 is the same at p=512 (full mode only); baseline 50.95×.
	floorScreened512 = 0.9 * 50.95275556258236
	// floorScreened1024 is the same at p=1024 (full mode only); baseline 203.8×.
	floorScreened1024 = 0.9 * 203.79923687745608
)

// minParallelSpeedup is the absolute Workers 1 vs Workers 8 floor the
// screened block fan-out must clear at the largest wide size whenever the
// run has more than one core. It is not derived from a baseline: the gate
// exists to catch the fan-out silently serializing, not to demand linear
// scaling.
const minParallelSpeedup = 1.05

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

// The wide gates solve plantedCovariance(p, wideBlockSize, wideLambda).
const (
	wideLambda    = 0.2
	wideBlockSize = 64
)

type gateSize struct {
	p     int
	floor float64
}

// BenchmarkGateGlassoVsSeed gates the optimized solver's speedup over the
// frozen seed solver (seedref_test.go) at the live solver's default
// hyper-parameters (MaxIter 100, Tol 1e-5, inner 200/1e-6).
func BenchmarkGateGlassoVsSeed(b *testing.B) {
	sizes := []gateSize{{64, floorVsSeed64}, {128, floorVsSeed128}}
	if testing.Short() {
		sizes = sizes[:1]
	}
	const lambda = 0.1
	for _, g := range sizes {
		s := spdCovariance(rand.New(rand.NewSource(int64(g.p)*7919)), g.p)
		live, seed := minInterleaved(gateReps,
			func() {
				if _, err := Solve(s, Options{Lambda: lambda, Workers: 8}); err != nil {
					b.Fatal(err)
				}
			},
			func() {
				if _, _, err := seedGlassoSolve(s, lambda, 100, 1e-5, 200, 1e-6); err != nil {
					b.Fatal(err)
				}
			})
		speedup := seed.Seconds() / live.Seconds()
		b.ReportMetric(speedup, "x_p"+strconv.Itoa(g.p))
		if speedup < g.floor {
			b.Fatalf("glasso p=%d: speedup vs seed %.2f× (live %v, seed %v), floor %.2f×",
				g.p, speedup, live, seed, g.floor)
		}
	}
}

// wideSizes are the wide-schema gate sizes; -short keeps p=256, where the
// dense reference solve stays affordable.
func wideSizes() []gateSize {
	sizes := []gateSize{{256, floorScreened256}, {512, floorScreened512}, {1024, floorScreened1024}}
	if testing.Short() {
		sizes = sizes[:1]
	}
	return sizes
}

// wideSolve returns a SolveBlocks call on s with a pinned sweep budget:
// an unreachable tolerance makes every variant run the same 3 outer
// sweeps, so ratios compare per-sweep cost, not convergence luck.
// Converged=false is expected and not an error.
func wideSolve(b *testing.B, s *linalg.Dense, noScreen bool, workers int) func() {
	return func() {
		opts := Options{Lambda: wideLambda, MaxIter: 3, Tol: 1e-300, NoScreen: noScreen, Workers: workers}
		if _, err := SolveBlocks(s, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateWideScreening gates the screening win alone: the screened
// block solve vs the dense NoScreen solve, both at Workers 1.
func BenchmarkGateWideScreening(b *testing.B) {
	for _, g := range wideSizes() {
		s := plantedCovariance(g.p, wideBlockSize, wideLambda)
		screened, dense := minInterleaved(gateReps, wideSolve(b, s, false, 1), wideSolve(b, s, true, 1))
		speedup := dense.Seconds() / screened.Seconds()
		b.ReportMetric(speedup, "x_p"+strconv.Itoa(g.p))
		if speedup < g.floor {
			b.Fatalf("wide p=%d: screened-vs-dense speedup %.2f× (screened %v, dense %v), floor %.2f×",
				g.p, speedup, screened, dense, g.floor)
		}
	}
}

// BenchmarkGateWideParallel gates the screened block fan-out: Workers 8
// must beat Workers 1 by minParallelSpeedup at the largest wide size. A
// single-core run skips, since the fan-out there can only serialize.
func BenchmarkGateWideParallel(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		b.Skipf("parallel floor needs >1 core (GOMAXPROCS %d, NumCPU %d)", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	sizes := wideSizes()
	p := sizes[len(sizes)-1].p
	s := plantedCovariance(p, wideBlockSize, wideLambda)
	par8, serial := minInterleaved(gateReps, wideSolve(b, s, false, 8), wideSolve(b, s, false, 1))
	speedup := serial.Seconds() / par8.Seconds()
	b.ReportMetric(speedup, "x_p"+strconv.Itoa(p))
	if speedup < minParallelSpeedup {
		b.Fatalf("wide p=%d: parallel speedup %.2f× (workers=8 %v, workers=1 %v) on %d cores, floor %.2f×",
			p, speedup, par8, serial, runtime.GOMAXPROCS(0), minParallelSpeedup)
	}
}

// plantedCovariance builds a deterministic covariance of order p with
// known block structure: SPD diagonal blocks of blockSize (Gaussian
// GᵀG/b plus a diagonal shift large enough to dominate the cross-block
// noise), and cross-block entries uniform in (−λ/2, λ/2) — real sub-
// threshold noise the screening pass must prove irrelevant, not exact
// zeros it could shortcut on.
func plantedCovariance(p, blockSize int, lambda float64) *linalg.Dense {
	rng := rand.New(rand.NewSource(int64(p)*104729 + 17))
	s := linalg.NewDense(p, p)
	for lo := 0; lo < p; lo += blockSize {
		hi := min(lo+blockSize, p)
		b := hi - lo
		g := linalg.NewDense(b, b)
		for i := 0; i < b; i++ {
			for j := 0; j < b; j++ {
				g.Set(i, j, rng.NormFloat64())
			}
		}
		blk := linalg.Mul(g.Transpose(), g)
		blk.Scale(1 / float64(b))
		for i := 0; i < b; i++ {
			for j := 0; j < b; j++ {
				s.Set(lo+i, lo+j, blk.At(i, j))
			}
			// The shift keeps the full matrix SPD: the cross-block noise
			// has spectral norm ≈ 2·(λ/2/√3)·√p ≈ 3.7 at p=1024, λ=0.2.
			s.Add(lo+i, lo+i, 4.5)
		}
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if i/blockSize != j/blockSize {
				v := (rng.Float64() - 0.5) * lambda
				s.Set(i, j, v)
				s.Set(j, i, v)
			}
		}
	}
	s.Symmetrize()
	return s
}
