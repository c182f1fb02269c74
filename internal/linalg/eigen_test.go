package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSymEigenReconstructs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		a := randomSPD(rng, n)
		vals, vecs, err := SymEigen(a)
		if err != nil {
			return false
		}
		// a ≈ V diag(vals) Vᵀ
		vd := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				vd.Set(i, j, vecs.At(i, j)*vals[j])
			}
		}
		if MaxAbsDiff(Mul(vd, vecs.Transpose()), a) > 1e-7 {
			return false
		}
		// V orthonormal
		return MaxAbsDiff(Mul(vecs, vecs.Transpose()), Identity(n)) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSymEigenKnownValues(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := NewDenseData(2, 2, []float64{2, 1, 1, 2})
	vals, _, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	sort.Float64s(vals)
	if !almostEq(vals[0], 1, 1e-10) || !almostEq(vals[1], 3, 1e-10) {
		t.Errorf("eigenvalues = %v, want [1 3]", vals)
	}
}

func TestSymEigenNonSquare(t *testing.T) {
	if _, _, err := SymEigen(NewDense(2, 3)); err == nil {
		t.Error("SymEigen accepted a non-square matrix")
	}
}

func TestMinEigenvalue(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1})
	min, err := MinEigenvalue(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(min, -1, 1e-10) {
		t.Errorf("MinEigenvalue = %v, want -1", min)
	}
}

func TestNearestSPDMakesFactorizable(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1})
	fixed, err := NearestSPD(a, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Cholesky(fixed); err != nil {
		t.Errorf("NearestSPD output not factorizable: %v", err)
	}
	min, _ := MinEigenvalue(fixed)
	if min < 1e-6-1e-9 {
		t.Errorf("min eigenvalue %v below floor", min)
	}
}

func TestNearestSPDLeavesSPDUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSPD(rng, 4)
	fixed, err := NearestSPD(a, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(a, fixed) > 1e-9 {
		t.Error("NearestSPD modified an already-SPD matrix")
	}
}

func TestPermutationRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		p := IdentityPerm(n)
		rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		if !p.IsValid() {
			return false
		}
		a := randomSPD(rng, n)
		return MaxAbsDiff(PermuteSym(PermuteSym(a, p), p.Inverse()), a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermutationInverse(t *testing.T) {
	p := Permutation{2, 0, 1}
	q := p.Inverse()
	want := Permutation{1, 2, 0}
	for i := range q {
		if q[i] != want[i] {
			t.Fatalf("Inverse = %v, want %v", q, want)
		}
	}
}

func TestPermutationValidity(t *testing.T) {
	if (Permutation{0, 0, 1}).IsValid() {
		t.Error("duplicate entries accepted")
	}
	if (Permutation{0, 3}).IsValid() {
		t.Error("out-of-range entry accepted")
	}
	if !(Permutation{}).IsValid() {
		t.Error("empty permutation should be valid")
	}
	_ = math.Pi
}
