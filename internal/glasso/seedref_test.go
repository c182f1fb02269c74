package glasso

// This file freezes the seed revision's Graphical Lasso solve loop as the
// reference BenchmarkGateGlassoVsSeed (gate_test.go) measures against. The
// optimized solver in this package shares the algorithm but not the code:
// it dispatches to fused/SIMD kernels, reuses pooled workspaces, and fans
// the per-column linear algebra out across workers. Benchmarking against
// this frozen copy keeps the "speedup vs seed" number honest across future
// refactors — do not modernize it.

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fdx/internal/linalg"
)

// seedGlassoSolve is the seed block coordinate descent (Friedman, Hastie,
// Tibshirani 2008) verbatim: per-column extraction with At/Set element
// loops, an allocating inner lasso, and scalar dot products throughout.
// It returns the final covariance estimate W and the number of outer
// sweeps performed.
func seedGlassoSolve(s *linalg.Dense, lambda float64, maxIter int, tol float64, innerMaxIter int, innerTol float64) (*linalg.Dense, int, error) {
	k, _ := s.Dims()

	// W = S + λI is the initial covariance estimate.
	w := s.Clone()
	w.Symmetrize()
	for i := 0; i < k; i++ {
		w.Add(i, i, lambda)
	}

	// betas[j] holds the lasso coefficients for column j (length k, entry j
	// unused), warm-started across sweeps.
	betas := make([][]float64, k)
	for j := range betas {
		betas[j] = make([]float64, k)
	}

	w11 := linalg.NewDense(k-1, k-1)
	s12 := make([]float64, k-1)
	beta := make([]float64, k-1)

	iters := 0
	for sweep := 0; sweep < maxIter; sweep++ {
		iters = sweep + 1
		delta := 0.0
		for j := 0; j < k; j++ {
			// Extract W11 (drop row/col j) and s12 = S[−j, j].
			for a, ai := 0, 0; a < k; a++ {
				if a == j {
					continue
				}
				s12[ai] = s.At(a, j)
				for b, bi := 0, 0; b < k; b++ {
					if b == j {
						continue
					}
					w11.Set(ai, bi, w.At(a, b))
					bi++
				}
				ai++
			}
			// Warm start from the previous sweep's solution.
			for a, ai := 0, 0; a < k; a++ {
				if a == j {
					continue
				}
				beta[ai] = betas[j][a]
				ai++
			}
			seedLassoCD(w11, s12, lambda, beta, innerMaxIter, innerTol)
			for a, ai := 0, 0; a < k; a++ {
				if a == j {
					continue
				}
				betas[j][a] = beta[ai]
				ai++
			}
			// w12 = W11·β; write it back into row/column j of W.
			for a, ai := 0, 0; a < k; a++ {
				if a == j {
					continue
				}
				v := 0.0
				row := w11.Row(ai)
				for bi := 0; bi < k-1; bi++ {
					v += row[bi] * beta[bi]
				}
				delta += math.Abs(w.At(a, j) - v)
				w.Set(a, j, v)
				w.Set(j, a, v)
				ai++
			}
		}
		if delta/float64(k*k) < tol {
			break
		}
	}

	// Recover Θ from the final W exactly as the seed did, so the measured
	// work covers the full fit.
	theta := linalg.NewDense(k, k)
	for j := 0; j < k; j++ {
		dot := 0.0
		for a := 0; a < k; a++ {
			if a == j {
				continue
			}
			dot += w.At(a, j) * betas[j][a]
		}
		den := w.At(j, j) - dot
		if den <= 0 {
			return nil, iters, errors.New("seed glasso: non-positive partial variance")
		}
		tjj := 1 / den
		theta.Set(j, j, tjj)
		for a := 0; a < k; a++ {
			if a == j {
				continue
			}
			theta.Set(a, j, -betas[j][a]*tjj)
		}
	}
	theta.Symmetrize()
	return w, iters, nil
}

// seedLassoCD is the seed inner lasso: cyclic coordinate descent with a
// per-call gradient allocation and scalar update loops. Panics if Q is not
// p×p or beta is not length p.
// (fdx:numeric-kernel: frozen seed code — the exactly-unchanged-coordinate
// test skips a no-op gradient update, exactly as the live solver's does.)
func seedLassoCD(q *linalg.Dense, b []float64, lambda float64, beta []float64, maxIter int, tol float64) {
	p := len(b)
	if r, c := q.Dims(); r != p || c != p || len(beta) != p {
		panic("seed glasso: lassoCD operand shapes disagree")
	}
	// grad[i] = (Qβ)_i maintained incrementally.
	grad := make([]float64, p)
	for i := 0; i < p; i++ {
		row := q.Row(i)
		v := 0.0
		for j, bj := range beta {
			v += row[j] * bj
		}
		grad[i] = v
	}
	for it := 0; it < maxIter; it++ {
		maxChange := 0.0
		for i := 0; i < p; i++ {
			qii := q.At(i, i)
			if qii <= 0 {
				continue
			}
			// Residual gradient excluding β_i's own contribution.
			r := b[i] - (grad[i] - qii*beta[i])
			newBeta := seedSoftThreshold(r, lambda) / qii
			d := newBeta - beta[i]
			if d != 0 {
				beta[i] = newBeta
				col := q.Row(i) // symmetric: row i == column i
				for j := 0; j < p; j++ {
					grad[j] += col[j] * d
				}
				if a := math.Abs(d); a > maxChange {
					maxChange = a
				}
			}
		}
		if maxChange < tol {
			return
		}
	}
}

func seedSoftThreshold(x, lambda float64) float64 {
	switch {
	case x > lambda:
		return x - lambda
	case x < -lambda:
		return x + lambda
	default:
		return 0
	}
}

// TestSeedGlassoAgreesWithSolver pins the frozen seed reference to the live
// solver: same covariance, same hyper-parameters, covariance estimates
// within solver tolerance of each other. If the live solver's algorithm
// drifts, the speedup gate would silently compare unlike quantities.
func TestSeedGlassoAgreesWithSolver(t *testing.T) {
	s := spdCovariance(rand.New(rand.NewSource(24)), 24)
	wSeed, iters, err := seedGlassoSolve(s, 0.1, 100, 1e-5, 200, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 {
		t.Fatalf("seed solver reported %d sweeps", iters)
	}
	res, err := Solve(s, Options{Lambda: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	k, _ := s.Dims()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			d := math.Abs(wSeed.At(i, j) - res.Covariance.At(i, j))
			if d > 1e-4 {
				t.Fatalf("W[%d,%d]: seed %v vs solver %v (|Δ|=%g)", i, j, wSeed.At(i, j), res.Covariance.At(i, j), d)
			}
		}
	}
}
