// Package linalg provides the dense linear-algebra substrate used by FDX:
// matrices, triangular factorizations (including the UDUᵀ "anti-Cholesky"
// factorization at the heart of the FDX autoregression estimate), linear
// solves, and a symmetric eigendecomposition. Everything is implemented on
// the standard library; matrices are row-major float64.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix of float64.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed rows×cols matrix.
// Panics if either dimension is negative.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (length rows*cols, row-major) without copying.
// Panics if len(data) is not rows*cols.
func NewDenseData(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (rows, cols int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns v to the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add adds v to the element at (i, j).
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns a view of row i (shared storage).
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Data returns the underlying row-major storage (shared).
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// Transpose returns mᵀ as a new matrix.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Mul returns a*b as a new matrix: the i-k-j loop, one Axpy per
// element of a. Panics if the inner dimensions disagree.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		crow := c.Row(i)
		for k, av := range a.Row(i) {
			Axpy(av, b.Row(k), crow)
		}
	}
	return c
}

// MulVec returns a·x as a new vector.
// Panics if a.Cols() differs from len(x).
func MulVec(a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %dx%d * %d", a.rows, a.cols, len(x)))
	}
	y := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		y[i] = Dot(a.Row(i), x)
	}
	return y
}

// AddScaled returns a + s*b as a new matrix.
// Panics if a and b have different shapes.
func AddScaled(a *Dense, s float64, b *Dense) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		panic("linalg: AddScaled dimension mismatch")
	}
	c := a.Clone()
	Axpy(s, b.data, c.data)
	return c
}

// Sub returns a - b as a new matrix.
func Sub(a, b *Dense) *Dense { return AddScaled(a, -1, b) }

// Scale multiplies every element of m by s in place.
func (m *Dense) Scale(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// MaxAbsDiff returns max_ij |a_ij - b_ij|.
// Panics if a and b have different shapes.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		panic("linalg: MaxAbsDiff dimension mismatch")
	}
	max := 0.0
	for i, v := range a.data {
		d := math.Abs(v - b.data[i])
		if d > max {
			max = d
		}
	}
	return max
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Symmetrize replaces m with (m+mᵀ)/2 in place. m must be square.
// Panics otherwise.
func (m *Dense) Symmetrize() {
	if m.rows != m.cols {
		panic("linalg: Symmetrize on non-square matrix")
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%9.4f", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
