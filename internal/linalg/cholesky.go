package linalg

import (
	"errors"
	"fmt"
	"math"

	"fdx/internal/faults"
	"fdx/internal/fdxerr"
)

// ErrNotPositiveDefinite is returned when a factorization encounters a
// non-positive pivot. It wraps fdxerr.ErrNonPositivePivot, so callers can
// match either name with errors.Is.
var ErrNotPositiveDefinite = fmt.Errorf("linalg: matrix is not positive definite: %w", fdxerr.ErrNonPositivePivot)

// Cholesky computes the lower-triangular L with a = L·Lᵀ.
// a must be symmetric positive definite.
func Cholesky(a *Dense) (*Dense, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.rows, a.cols)
	}
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		lj := l.Row(j)[:j]
		d := a.At(j, j) - Dot(lj, lj)
		if d <= 0 {
			return nil, ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j) - Dot(l.Row(i)[:j], lj)
			l.Set(i, j, s/ljj)
		}
	}
	return l, nil
}

// LDL computes the unit lower-triangular L and diagonal d with a = L·diag(d)·Lᵀ.
// a must be symmetric with non-zero pivots (positive definite in practice).
func LDL(a *Dense) (l *Dense, d []float64, err error) {
	n := a.rows
	if a.cols != n {
		return nil, nil, fmt.Errorf("linalg: LDL of non-square %dx%d matrix", a.rows, a.cols)
	}
	l = Identity(n)
	d = make([]float64, n)
	for j := 0; j < n; j++ {
		dj := a.At(j, j)
		for k := 0; k < j; k++ {
			dj -= l.At(j, k) * l.At(j, k) * d[k]
		}
		if dj <= 0 {
			return nil, nil, ErrNotPositiveDefinite
		}
		d[j] = dj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k) * d[k]
			}
			l.Set(i, j, s/dj)
		}
	}
	return l, d, nil
}

// UDU computes the unit upper-triangular U and diagonal d with a = U·diag(d)·Uᵀ.
//
// This is the factorization FDX applies to the estimated inverse covariance
// Θ (paper §4.2, Alg. 1): with Θ = U·D·Uᵀ and U unit upper triangular, the
// autoregression matrix is B = I − U, whose non-zero super-diagonal entries
// in column j give the determinant set of the FD for attribute j.
//
// It is the mirror image of LDL: elimination proceeds from the last row and
// column toward the first.
func UDU(a *Dense) (u *Dense, d []float64, err error) {
	n := a.rows
	if a.cols != n {
		return nil, nil, fmt.Errorf("linalg: UDU of non-square %dx%d matrix: %w", a.rows, a.cols, fdxerr.ErrBadInput)
	}
	u = Identity(n)
	d = make([]float64, n)
	// Fault injection: report a non-positive pivot for this factorization
	// (one Fire per UDU call, at the first pivot processed).
	if n > 0 && faults.Fire(faults.NonPositivePivot) {
		return nil, nil, ErrNotPositiveDefinite
	}
	// scaled[k] caches u[j][k]*d[k] for the current column j, turning the
	// weighted reductions below into plain fused dot products.
	scaled := make([]float64, n)
	for j := n - 1; j >= 0; j-- {
		uj := u.Row(j)[j+1:]
		sc := scaled[j+1:]
		for k, v := range uj {
			sc[k] = v * d[j+1+k]
		}
		dj := a.At(j, j) - Dot(uj, sc)
		if dj <= 0 {
			return nil, nil, ErrNotPositiveDefinite
		}
		d[j] = dj
		for i := 0; i < j; i++ {
			s := a.At(i, j) - Dot(u.Row(i)[j+1:], sc)
			u.Set(i, j, s/dj)
		}
	}
	return u, d, nil
}

// ReconstructUDU returns U·diag(d)·Uᵀ, the inverse operation of UDU.
// Panics if u is not square or len(d) differs from its dimension.
func ReconstructUDU(u *Dense, d []float64) *Dense {
	n := u.rows
	if u.cols != n || len(d) != n {
		panic(fmt.Sprintf("linalg: ReconstructUDU dimension mismatch %dx%d with %d-vector", u.rows, u.cols, len(d)))
	}
	ud := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ud.Set(i, j, u.At(i, j)*d[j])
		}
	}
	return Mul(ud, u.Transpose())
}

// SolveLower solves L·x = b for x, with L lower triangular (non-unit diagonal).
// Panics if l is not square or len(b) differs from its dimension.
func SolveLower(l *Dense, b []float64) []float64 {
	n := l.rows
	if l.cols != n || len(b) != n {
		panic(fmt.Sprintf("linalg: SolveLower dimension mismatch %dx%d with %d-vector", l.rows, l.cols, len(b)))
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		row := l.Row(i)
		x[i] = (b[i] - Dot(row[:i], x[:i])) / row[i]
	}
	return x
}

// SolveUpper solves U·x = b for x, with U upper triangular (non-unit diagonal).
// Panics if u is not square or len(b) differs from its dimension.
func SolveUpper(u *Dense, b []float64) []float64 {
	n := u.rows
	if u.cols != n || len(b) != n {
		panic(fmt.Sprintf("linalg: SolveUpper dimension mismatch %dx%d with %d-vector", u.rows, u.cols, len(b)))
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		row := u.Row(i)
		x[i] = (b[i] - Dot(row[i+1:], x[i+1:])) / row[i]
	}
	return x
}

// InverseSPD returns a⁻¹ for symmetric positive definite a via Cholesky.
func InverseSPD(a *Dense) (*Dense, error) {
	n := a.rows
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	lt := l.Transpose()
	inv := NewDense(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		y := SolveLower(l, e)
		x := SolveUpper(lt, y)
		for i := 0; i < n; i++ {
			inv.Set(i, j, x[i])
		}
	}
	inv.Symmetrize()
	return inv, nil
}

// Inverse returns a⁻¹ for a general square matrix via Gauss-Jordan
// elimination with partial pivoting. Returns an error if a is singular.
func Inverse(a *Dense) (*Dense, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("linalg: Inverse of non-square %dx%d matrix", a.rows, a.cols)
	}
	work := a.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivoting: pick the row with the largest pivot.
		pivot, pmax := col, math.Abs(work.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(work.At(r, col)); v > pmax {
				pivot, pmax = r, v
			}
		}
		//fdx:lint-ignore floatcmp exact-zero pivot is the singularity sentinel; any nonzero magnitude, however small, is a usable pivot
		if pmax == 0 {
			return nil, errors.New("linalg: singular matrix")
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		p := work.At(col, col)
		for j := 0; j < n; j++ {
			work.Set(col, j, work.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.At(r, col)
			//fdx:lint-ignore floatcmp skipping an exactly-zero factor elides a no-op elimination step; near-zero factors must still be applied
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				work.Add(r, j, -f*work.At(col, j))
				inv.Add(r, j, -f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

func swapRows(m *Dense, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
