// Package stats provides the statistical primitives shared across FDX and
// the baselines: empirical covariance/correlation, discrete entropies and
// mutual information, the expected mutual information under the permutation
// model (the bias correction used by the RFI baseline), and a chi-squared
// independence test (used by the CORDS baseline).
package stats

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"fdx/internal/linalg"
	"fdx/internal/par"
)

// vecPool recycles the per-call scratch vectors (column sums, standard
// deviations) of the moment routines so the streaming accumulator's
// steady state allocates only its result matrices.
var vecPool = sync.Pool{New: func() any { return &vecBuf{} }}

type vecBuf struct{ data []float64 }

// getVec returns a zeroed length-k scratch vector from the pool.
func getVec(k int) *vecBuf {
	vb := vecPool.Get().(*vecBuf)
	if cap(vb.data) < k {
		vb.data = make([]float64, k)
	}
	vb.data = vb.data[:k]
	for i := range vb.data {
		vb.data[i] = 0
	}
	return vb
}

// Mean returns the column means of data (rows are observations).
func Mean(data *linalg.Dense) []float64 {
	n, k := data.Dims()
	mu := make([]float64, k)
	if n == 0 {
		return mu
	}
	for i := 0; i < n; i++ {
		linalg.Axpy(1, data.Row(i), mu)
	}
	for j := range mu {
		mu[j] /= float64(n)
	}
	return mu
}

// accumulateMoments is the shared single-traversal core of Covariance and
// SecondMoment: one pass over the rows of data, adding each row to the
// column sums (when sums is non-nil) and each row's outer product to the
// upper triangle of s via fused Axpy updates.
// Panics if s is not k×k (or sums not length k) for data's column count k.
// (fdx:numeric-kernel: the exact-zero test is a sparsity fast path over the
// mostly-zero pair-transform samples — a zero multiplier contributes
// nothing to the accumulation.)
func accumulateMoments(data *linalg.Dense, sums []float64, s *linalg.Dense) {
	n, k := data.Dims()
	if r, c := s.Dims(); r != k || c != k || (sums != nil && len(sums) != k) {
		panic("stats: accumulateMoments operand shapes disagree")
	}
	for i := 0; i < n; i++ {
		row := data.Row(i)
		if sums != nil {
			linalg.Axpy(1, row, sums)
		}
		for a := 0; a < k; a++ {
			va := row[a]
			if va == 0 {
				continue
			}
			linalg.Axpy(va, row[a:], s.Row(a)[a:])
		}
	}
}

// Covariance returns the empirical covariance matrix of data (rows are
// observations, columns variables), normalizing by n. Sums and raw second
// moments accumulate in a single traversal; the centering correction
// cov = E[xy] − E[x]·E[y] is applied at the end, with the diagonal clamped
// at zero so round-off on near-constant columns can never produce a
// negative variance.
func Covariance(data *linalg.Dense) *linalg.Dense {
	n, k := data.Dims()
	s := linalg.NewDense(k, k)
	if n == 0 {
		return s
	}
	vb := getVec(k)
	sums := vb.data
	accumulateMoments(data, sums, s)
	inv := 1 / float64(n)
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			v := CenteredMoment(s.At(a, b), sums[a], sums[b], inv, b == a)
			s.Set(a, b, v)
			s.Set(b, a, v)
		}
	}
	vecPool.Put(vb)
	return s
}

// CenteredMoment is the covariance entry E[xy] − E[x]·E[y] over n
// observations, from the raw co-moment sum c, the column sums sa and sb,
// and inv = 1/n, evaluated as c·inv − (sa·inv)·(sb·inv). A variance entry
// (diag) is clamped at zero so round-off on a near-constant column can
// never produce a negative variance.
//
// It is the one place this expression lives: Covariance applies it to
// float sums, and the pair transform's bit-packed sample store
// (internal/core) applies it to popcount co-occurrence counts. On 0/1
// samples the float sums are exactly those integers, so both produce the
// same bits.
func CenteredMoment(c, sa, sb, inv float64, diag bool) float64 {
	v := c*inv - (sa*inv)*(sb*inv)
	if diag && v < 0 {
		return 0
	}
	return v
}

// SecondMoment returns (1/n)·XᵀX without mean-centering. This is the
// covariance estimator FDX applies to the tuple-pair difference samples:
// the pair transform already yields a distribution whose relevant structure
// is around a fixed (not estimated) center, which is what makes the
// estimate robust to corrupted cells (paper §4.3).
func SecondMoment(data *linalg.Dense) *linalg.Dense {
	n, k := data.Dims()
	s := linalg.NewDense(k, k)
	if n == 0 {
		return s
	}
	accumulateMoments(data, nil, s)
	inv := 1 / float64(n)
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			v := s.At(a, b) * inv
			s.Set(a, b, v)
			s.Set(b, a, v)
		}
	}
	return s
}

// StratifiedCovariance splits the rows of data into `strata` contiguous
// equal-size blocks, computes the covariance within each block, and returns
// the average. FDX's pair transform (Alg. 2) emits one block per attribute
// (pairs adjacent under that attribute's sort order); the blocks have very
// different marginal means, and pooling them into a single covariance
// manufactures spurious negative cross-correlations between unrelated
// attributes. Per-stratum centering removes that sampling artifact while
// keeping every block's dependence signal.
//
// The pipeline computes this estimate from counts over its bit-packed
// sample store (core.PairBits.StratifiedCovariance); this float form stays
// exported for the benchmark's traced run (_perfbench) and as the tests'
// reference for the count form.
func StratifiedCovariance(data *linalg.Dense, strata int) *linalg.Dense {
	n, k := data.Dims()
	if strata <= 1 || n == 0 || n%strata != 0 {
		return Covariance(data)
	}
	block := n / strata
	acc := linalg.NewDense(k, k)
	// Strata are independent; compute their covariances concurrently.
	// Stratum s owns covs[s], and the merge below folds them in fixed
	// ascending order, so the result is identical at any worker count.
	covs := make([]*linalg.Dense, strata)
	//fdx:lint-ignore detsource worker count only; per-stratum results merge in fixed ascending order
	workers := runtime.GOMAXPROCS(0)
	if workers > strata {
		workers = strata
	}
	pool := par.New(workers)
	pool.For(strata, 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			sub := linalg.NewDenseData(block, k, data.Data()[s*block*k:(s+1)*block*k])
			covs[s] = Covariance(sub)
		}
	})
	pool.Close()
	for _, cov := range covs {
		linalg.Axpy(1, cov.Data(), acc.Data())
	}
	acc.Scale(1 / float64(strata))
	return acc
}

// Correlation converts a covariance matrix to a correlation matrix as a
// new matrix. See CorrelationInPlace.
func Correlation(cov *linalg.Dense) *linalg.Dense {
	return CorrelationInPlace(cov.Clone())
}

// CorrelationInPlace converts the covariance matrix cov to a correlation
// matrix in place and returns it. Zero-variance variables get unit
// diagonal and zero off-diagonals.
// (fdx:numeric-kernel: exact-zero standard deviation is the constant-column
// sentinel; dividing by anything smaller-but-nonzero is still well defined.)
func CorrelationInPlace(cov *linalg.Dense) *linalg.Dense {
	k, _ := cov.Dims()
	vb := getVec(k)
	sd := vb.data
	for i := 0; i < k; i++ {
		sd[i] = math.Sqrt(cov.At(i, i))
	}
	for i := 0; i < k; i++ {
		row := cov.Row(i)
		for j := range row {
			switch {
			case i == j:
				row[j] = 1
			case sd[i] == 0 || sd[j] == 0:
				row[j] = 0
			default:
				row[j] /= sd[i] * sd[j]
			}
		}
	}
	vecPool.Put(vb)
	return cov
}

// Shrink returns (1−γ)·S + γ·trace(S)/k·I as a new matrix. See
// ShrinkInPlace.
func Shrink(s *linalg.Dense, gamma float64) *linalg.Dense {
	return ShrinkInPlace(s.Clone(), gamma)
}

// ShrinkInPlace applies (1−γ)·S + γ·trace(S)/k·I to s in place and
// returns it — a Ledoit-Wolf-style ridge shrinkage that guarantees
// positive definiteness for γ>0 when S is PSD.
// (fdx:numeric-kernel: an exactly-zero trace means S is the zero matrix and
// the identity target is substituted.)
func ShrinkInPlace(s *linalg.Dense, gamma float64) *linalg.Dense {
	k, _ := s.Dims()
	tr := 0.0
	for i := 0; i < k; i++ {
		tr += s.At(i, i)
	}
	target := tr / float64(k)
	if target == 0 {
		target = 1
	}
	s.Scale(1 - gamma)
	for i := 0; i < k; i++ {
		s.Add(i, i, gamma*target)
	}
	return s
}

// Standardize mean-centers and unit-scales each column of data in place.
// Zero-variance columns are centered only. It returns the per-column means
// and standard deviations used.
func Standardize(data *linalg.Dense) (mu, sd []float64) {
	n, k := data.Dims()
	mu = Mean(data)
	sd = make([]float64, k)
	for i := 0; i < n; i++ {
		row := data.Row(i)
		for j := range row {
			d := row[j] - mu[j]
			sd[j] += d * d
		}
	}
	for j := range sd {
		if n > 0 {
			sd[j] = math.Sqrt(sd[j] / float64(n))
		}
	}
	for i := 0; i < n; i++ {
		row := data.Row(i)
		for j := range row {
			row[j] -= mu[j]
			if sd[j] > 0 {
				row[j] /= sd[j]
			}
		}
	}
	return mu, sd
}

// CheckDims panics unless m has the wanted shape; a development aid for the
// experiment code.
func CheckDims(m *linalg.Dense, rows, cols int) {
	r, c := m.Dims()
	if r != rows || c != cols {
		panic(fmt.Sprintf("stats: got %dx%d matrix, want %dx%d", r, c, rows, cols))
	}
}
