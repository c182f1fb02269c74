package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fdx/internal/linalg"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanAndCovarianceHandComputed(t *testing.T) {
	// Two variables: x = (1,2,3), y = (2,4,6) → cov(x,x)=2/3, cov(x,y)=4/3.
	data := linalg.NewDenseData(3, 2, []float64{1, 2, 2, 4, 3, 6})
	mu := Mean(data)
	if !almostEq(mu[0], 2, 1e-12) || !almostEq(mu[1], 4, 1e-12) {
		t.Errorf("Mean = %v", mu)
	}
	cov := Covariance(data)
	if !almostEq(cov.At(0, 0), 2.0/3, 1e-12) || !almostEq(cov.At(0, 1), 4.0/3, 1e-12) {
		t.Errorf("Covariance = %v", cov)
	}
	if !cov.IsSymmetric(0) {
		t.Error("covariance not symmetric")
	}
}

func TestCovariancePSDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := 3+rng.Intn(30), 1+rng.Intn(5)
		data := linalg.NewDense(n, k)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				data.Set(i, j, rng.NormFloat64())
			}
		}
		cov := Covariance(data)
		min, err := linalg.MinEigenvalue(cov)
		return err == nil && min > -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCorrelationBoundsAndDiag(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := linalg.NewDense(100, 4)
	for i := 0; i < 100; i++ {
		x := rng.NormFloat64()
		data.Set(i, 0, x)
		data.Set(i, 1, 2*x+0.01*rng.NormFloat64()) // highly correlated
		data.Set(i, 2, rng.NormFloat64())
		data.Set(i, 3, 7) // constant
	}
	corr := Correlation(Covariance(data))
	for i := 0; i < 4; i++ {
		if corr.At(i, i) != 1 {
			t.Errorf("corr diag [%d] = %v", i, corr.At(i, i))
		}
		for j := 0; j < 4; j++ {
			if math.Abs(corr.At(i, j)) > 1+1e-12 {
				t.Errorf("corr out of bounds at (%d,%d): %v", i, j, corr.At(i, j))
			}
		}
	}
	if corr.At(0, 1) < 0.99 {
		t.Errorf("corr(0,1) = %v, want ≈1", corr.At(0, 1))
	}
	if corr.At(0, 3) != 0 {
		t.Errorf("constant column should have zero correlation, got %v", corr.At(0, 3))
	}
}

func TestShrinkMakesPD(t *testing.T) {
	// Singular PSD matrix.
	s := linalg.NewDenseData(2, 2, []float64{1, 1, 1, 1})
	sh := Shrink(s, 0.1)
	min, err := linalg.MinEigenvalue(sh)
	if err != nil || min <= 0 {
		t.Errorf("Shrink not PD: min eig %v err %v", min, err)
	}
}

func TestStandardize(t *testing.T) {
	data := linalg.NewDenseData(4, 2, []float64{1, 5, 2, 5, 3, 5, 4, 5})
	mu, sd := Standardize(data)
	if !almostEq(mu[0], 2.5, 1e-12) || sd[1] != 0 {
		t.Errorf("mu=%v sd=%v", mu, sd)
	}
	newMu := Mean(data)
	if !almostEq(newMu[0], 0, 1e-12) || !almostEq(newMu[1], 0, 1e-12) {
		t.Errorf("standardized mean = %v", newMu)
	}
	v := Covariance(data)
	if !almostEq(v.At(0, 0), 1, 1e-12) {
		t.Errorf("standardized variance = %v", v.At(0, 0))
	}
}

func TestEntropyBasics(t *testing.T) {
	if Entropy(nil) != 0 || Entropy([]int{5}) != 0 {
		t.Error("degenerate entropies should be 0")
	}
	if !almostEq(Entropy([]int{1, 1}), math.Log(2), 1e-12) {
		t.Error("uniform binary entropy should be ln 2")
	}
	if Entropy([]int{3, 0, 3}) != Entropy([]int{3, 3}) {
		t.Error("zero counts must not contribute")
	}
}

func TestConditionalEntropyChainRule(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		x := make([]int, n)
		y := make([]int, n)
		for i := range x {
			x[i] = rng.Intn(4)
			y[i] = rng.Intn(4)
		}
		c := NewContingency(x, y)
		// Chain-rule bounds: H(X), H(Y) ≤ H(X,Y) ≤ H(X) + H(Y); I ≥ 0.
		hx, hy, hxy := c.EntropyX(), c.EntropyY(), c.JointEntropy()
		if hx > hxy+1e-9 || hy > hxy+1e-9 || hxy > hx+hy+1e-9 {
			return false
		}
		return c.MutualInformation() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFDGivesFullFractionOfInformation(t *testing.T) {
	// y = x mod 2 is a function of x → H(X,Y) = H(X) and I(X;Y) = H(Y),
	// i.e. H(Y|X) = 0 and the fraction of information I/H(Y) is 1.
	x := []int{0, 1, 2, 3, 0, 1, 2, 3}
	y := []int{0, 1, 0, 1, 0, 1, 0, 1}
	c := NewContingency(x, y)
	if !almostEq(c.JointEntropy(), c.EntropyX(), 1e-12) {
		t.Errorf("H(X,Y) = %v, want H(X) = %v", c.JointEntropy(), c.EntropyX())
	}
	if !almostEq(c.MutualInformation(), c.EntropyY(), 1e-12) {
		t.Errorf("I = %v, want H(Y) = %v", c.MutualInformation(), c.EntropyY())
	}
}

func TestIndependentFractionOfInformation(t *testing.T) {
	// Perfectly independent balanced table → MI = 0.
	x := []int{0, 0, 1, 1}
	y := []int{0, 1, 0, 1}
	c := NewContingency(x, y)
	if !almostEq(c.MutualInformation(), 0, 1e-12) {
		t.Errorf("MI = %v, want 0", c.MutualInformation())
	}
}

func TestJointLabels(t *testing.T) {
	a := []int{0, 0, 1, 1}
	b := []int{0, 1, 0, 1}
	j := JointLabels(a, b)
	seen := map[int]bool{}
	for _, v := range j {
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Errorf("joint labels have %d distinct values, want 4", len(seen))
	}
	if j[0] == j[1] || j[0] == j[2] {
		t.Error("distinct combinations must get distinct labels")
	}
	j2 := JointLabels(a)
	for i := range a {
		for k := range a {
			if (a[i] == a[k]) != (j2[i] == j2[k]) {
				t.Error("single-sequence joint labels must preserve equality structure")
			}
		}
	}
	if JointLabels() != nil {
		t.Error("empty JointLabels should be nil")
	}
}

func TestExpectedMIProperties(t *testing.T) {
	// EMI of a 1-value marginal is 0; EMI ≤ min(H(X), H(Y)) + slack; and for
	// independent large samples EMI ≈ MI.
	x := make([]int, 200)
	y := make([]int, 200)
	rng := rand.New(rand.NewSource(3))
	for i := range x {
		x[i] = rng.Intn(3)
		y[i] = rng.Intn(3)
	}
	c := NewContingency(x, y)
	emi := ExpectedMutualInformation(c)
	if emi < 0 {
		t.Error("EMI negative")
	}
	if emi > c.EntropyX()+1e-9 || emi > c.EntropyY()+1e-9 {
		t.Error("EMI exceeds marginal entropy")
	}
	// For independent variables the empirical MI is close to its null
	// expectation, so the corrected score should be near zero.
	if got := ReliableFractionOfInformation(c); got > 0.08 {
		t.Errorf("RFI on independent data = %v, want ≈0", got)
	}
}

func TestRFIDetectsTrueFD(t *testing.T) {
	n := 300
	x := make([]int, n)
	y := make([]int, n)
	rng := rand.New(rand.NewSource(4))
	for i := range x {
		x[i] = rng.Intn(5)
		y[i] = x[i] % 3
	}
	c := NewContingency(x, y)
	if got := ReliableFractionOfInformation(c); got < 0.8 {
		t.Errorf("RFI on a true FD = %v, want near 1", got)
	}
}

func TestRFIUpperBoundDominatesScore(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		x := make([]int, n)
		y := make([]int, n)
		for i := range x {
			x[i] = rng.Intn(3)
			y[i] = rng.Intn(3)
		}
		c := NewContingency(x, y)
		return RFIUpperBound(c) >= ReliableFractionOfInformation(c)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChiSquaredIndependence(t *testing.T) {
	// Perfect independence → statistic 0, p-value 1.
	x := []int{0, 0, 1, 1}
	y := []int{0, 1, 0, 1}
	stat, dof := ChiSquared(NewContingency(x, y))
	if !almostEq(stat, 0, 1e-12) || dof != 1 {
		t.Errorf("stat=%v dof=%d", stat, dof)
	}
	if p := ChiSquaredPValue(stat, dof); !almostEq(p, 1, 1e-9) {
		t.Errorf("p = %v, want 1", p)
	}
}

func TestChiSquaredDependence(t *testing.T) {
	n := 200
	x := make([]int, n)
	y := make([]int, n)
	for i := range x {
		x[i] = i % 2
		y[i] = x[i]
	}
	stat, dof := ChiSquared(NewContingency(x, y))
	if stat < float64(n)-1 {
		t.Errorf("stat = %v, want ≈ n", stat)
	}
	if p := ChiSquaredPValue(stat, dof); p > 1e-6 {
		t.Errorf("p = %v, want ≈0", p)
	}
}

func TestChiSquaredPValueAgainstKnownQuantiles(t *testing.T) {
	// Known: P(X²₁ ≥ 3.841) ≈ 0.05, P(X²₂ ≥ 5.991) ≈ 0.05.
	if p := ChiSquaredPValue(3.841, 1); !almostEq(p, 0.05, 2e-3) {
		t.Errorf("p(3.841, 1) = %v", p)
	}
	if p := ChiSquaredPValue(5.991, 2); !almostEq(p, 0.05, 2e-3) {
		t.Errorf("p(5.991, 2) = %v", p)
	}
	if p := ChiSquaredPValue(0, 3); p != 1 {
		t.Errorf("p(0, 3) = %v, want 1", p)
	}
}
