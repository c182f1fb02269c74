package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyReconstructs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		return MaxAbsDiff(Mul(l, l.Transpose()), a) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Error("Cholesky accepted an indefinite matrix")
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := Cholesky(NewDense(2, 3)); err == nil {
		t.Error("Cholesky accepted a non-square matrix")
	}
}

func TestLDLReconstructsAndUnitDiagonal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		l, d, err := LDL(a)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if l.At(i, i) != 1 {
				return false
			}
			if d[i] <= 0 {
				return false
			}
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 { // strictly lower triangular above diag
					return false
				}
			}
		}
		ld := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ld.Set(i, j, l.At(i, j)*d[j])
			}
		}
		return MaxAbsDiff(Mul(ld, l.Transpose()), a) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUDUReconstructsAndUnitUpperTriangular(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		u, d, err := UDU(a)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if u.At(i, i) != 1 || d[i] <= 0 {
				return false
			}
			for j := 0; j < i; j++ {
				if u.At(i, j) != 0 { // zero below diagonal
					return false
				}
			}
		}
		return MaxAbsDiff(ReconstructUDU(u, d), a) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUDUHandComputed(t *testing.T) {
	// a = U D Uᵀ with U = [[1, .5],[0,1]], D = diag(2, 4):
	// a = [[2 + .25*4, .5*4], [.5*4, 4]] = [[3, 2],[2, 4]]
	a := NewDenseData(2, 2, []float64{3, 2, 2, 4})
	u, d, err := UDU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(u.At(0, 1), 0.5, 1e-12) {
		t.Errorf("U[0,1] = %v, want 0.5", u.At(0, 1))
	}
	if !almostEq(d[0], 2, 1e-12) || !almostEq(d[1], 4, 1e-12) {
		t.Errorf("d = %v, want [2 4]", d)
	}
}

func TestUDUOnDiagonalMatrix(t *testing.T) {
	a := NewDenseData(3, 3, []float64{2, 0, 0, 0, 5, 0, 0, 0, 7})
	u, d, err := UDU(a)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(u, Identity(3)) != 0 {
		t.Error("UDU of diagonal matrix should give U = I")
	}
	if d[0] != 2 || d[1] != 5 || d[2] != 7 {
		t.Errorf("d = %v", d)
	}
}

func TestSolveTriangularAndSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		a := randomSPD(rng, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := MulVec(a, x)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		got := SolveUpper(l.Transpose(), SolveLower(l, b))
		for i := range x {
			if !almostEq(got[i], x[i], 1e-6) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], x[i])
			}
		}
	}
}

func TestInverseSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSPD(rng, 6)
	inv, err := InverseSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(Mul(a, inv), Identity(6)) > 1e-8 {
		t.Error("a·a⁻¹ != I")
	}
	if !inv.IsSymmetric(1e-12) {
		t.Error("InverseSPD result is not symmetric")
	}
}

func TestInverseGeneral(t *testing.T) {
	a := NewDenseData(3, 3, []float64{0, 2, 1, 1, 0, 0, 0, 1, 1})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(Mul(a, inv), Identity(3)) > 1e-10 {
		t.Error("Inverse with pivoting failed")
	}
}

func TestInverseSingular(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 4})
	if _, err := Inverse(a); err == nil {
		t.Error("Inverse accepted a singular matrix")
	}
}

func TestInverseMatchesInverseSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSPD(rng, 5)
	i1, err1 := Inverse(a)
	i2, err2 := InverseSPD(a)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if MaxAbsDiff(i1, i2) > 1e-8 {
		t.Error("general and SPD inverses disagree")
	}
}

func TestSolveLowerUpperHandCase(t *testing.T) {
	l := NewDenseData(2, 2, []float64{2, 0, 1, 3})
	x := SolveLower(l, []float64{4, 7})
	if x[0] != 2 || !almostEq(x[1], 5.0/3.0, 1e-12) {
		t.Errorf("SolveLower = %v", x)
	}
	u := l.Transpose()
	y := SolveUpper(u, []float64{4, 6})
	if y[1] != 2 || y[0] != 1 {
		t.Errorf("SolveUpper = %v", y)
	}
}

func TestUDUvsLDLRelationship(t *testing.T) {
	// UDU of A equals (reversed) LDL of the reversed matrix.
	rng := rand.New(rand.NewSource(3))
	n := 5
	a := randomSPD(rng, n)
	rev := make(Permutation, n)
	for i := range rev {
		rev[i] = n - 1 - i
	}
	u, du, err := UDU(a)
	if err != nil {
		t.Fatal(err)
	}
	l, dl, err := LDL(PermuteSym(a, rev))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !almostEq(du[i], dl[n-1-i], 1e-9) {
			t.Fatalf("d mismatch at %d: %v vs %v", i, du[i], dl[n-1-i])
		}
		for j := i + 1; j < n; j++ {
			if !almostEq(u.At(i, j), l.At(n-1-i, n-1-j), 1e-9) {
				t.Fatalf("U/L mismatch at (%d,%d)", i, j)
			}
		}
	}
	_ = math.Pi
}
