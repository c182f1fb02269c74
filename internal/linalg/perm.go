package linalg

import "fmt"

// Permutation is a bijection of {0,…,n−1}: perm[i] = the original index
// placed at position i.
type Permutation []int

// IdentityPerm returns the identity permutation on n elements.
func IdentityPerm(n int) Permutation {
	p := make(Permutation, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// IsValid reports whether p is a bijection of {0,…,len(p)−1}.
func (p Permutation) IsValid() bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Inverse returns q with q[p[i]] = i.
func (p Permutation) Inverse() Permutation {
	q := make(Permutation, len(p))
	for i, v := range p {
		q[v] = i
	}
	return q
}

// PermuteSym returns P·a·Pᵀ: element (i, j) of the result is
// a[p[i], p[j]]. a must be square with the same dimension as p; panics
// otherwise.
func PermuteSym(a *Dense, p Permutation) *Dense {
	n := a.rows
	if a.cols != n || len(p) != n {
		panic(fmt.Sprintf("linalg: PermuteSym dimension mismatch %dx%d perm %d", a.rows, a.cols, len(p)))
	}
	out := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out.Set(i, j, a.At(p[i], p[j]))
		}
	}
	return out
}
