package core

import (
	"math"

	"fdx/internal/linalg"
)

// Fallback records one degradation step the discovery pipeline took instead
// of failing.
type Fallback struct {
	// Stage names the stage whose failure triggered the fallback:
	// "glasso" (sparse precision estimation), "factorize" (the UDUᵀ
	// factorization), or "spd-repair" (the nearest-SPD diagonal shift
	// applied before retrying a failed factorization).
	Stage string
	// Epsilon is the diagonal shrinkage S + εI applied on the retry this
	// record announces; 0 for repairs that did not re-run the solver.
	Epsilon float64
	// Reason is the failure that forced the fallback.
	Reason string
}

// Diagnostics reports how a discovery run degraded — which fallbacks were
// taken, whether the Graphical Lasso converged, and which attributes had
// corrupt statistics quarantined. A fully healthy run has GlassoConverged
// true and every slice empty.
type Diagnostics struct {
	// GlassoSweeps is the number of outer sweeps of the accepted Graphical
	// Lasso solve.
	GlassoSweeps int
	// GlassoConverged reports whether that solve met its tolerance; false
	// means the estimates come from the best iterate after exhausting the
	// iteration budget on every rung of the fallback ladder. For a
	// screened (block-diagonal) solve, worst case wins: every block must
	// converge.
	GlassoConverged bool
	// GlassoBlocks is the number of connected components the covariance
	// screening pass split the accepted solve into (1 = screening found
	// nothing and the solve ran dense).
	GlassoBlocks int
	// Fallbacks lists the regularization fallbacks applied, in order.
	Fallbacks []Fallback
	// SanitizedColumns lists attribute indices whose covariance entries
	// were non-finite (NaN/±Inf) and were replaced before structure
	// learning; such attributes carry degraded (or no) dependency signal.
	SanitizedColumns []int
}

// Degraded reports whether the run deviated from the healthy path in any
// recorded way.
func (d *Diagnostics) Degraded() bool {
	return !d.GlassoConverged || len(d.Fallbacks) > 0 || len(d.SanitizedColumns) > 0
}

// sanitizeCovariance replaces non-finite entries of the covariance estimate
// in place — NaN off-diagonals become 0 (no evidence of dependence),
// non-finite diagonals become 1 (a unit-variance placeholder) — and returns
// the implicated column indices in ascending order (nil when every entry
// is finite and s is untouched). The caller owns s;
// DiscoverFromCovarianceContext hands it a private clone of the user's
// matrix.
func sanitizeCovariance(s *linalg.Dense) []int {
	k, _ := s.Dims()
	implicated := make([]bool, k)
	dirty := false
	for i := 0; i < k; i++ {
		row := s.Row(i)
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				implicated[i] = true
				implicated[j] = true
				dirty = true
			}
		}
	}
	if !dirty {
		return nil
	}
	var cols []int
	for i := 0; i < k; i++ {
		if implicated[i] {
			cols = append(cols, i)
		}
		row := s.Row(i)
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				if i == j {
					row[j] = 1
				} else {
					row[j] = 0
				}
			}
		}
	}
	return cols
}

// addDiag returns s + εI without modifying s — one rung of the
// regularization fallback ladder.
func addDiag(s *linalg.Dense, eps float64) *linalg.Dense {
	out := s.Clone()
	k, _ := out.Dims()
	for i := 0; i < k; i++ {
		out.Add(i, i, eps)
	}
	return out
}
