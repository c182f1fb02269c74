package stats

import (
	"math/rand"
	"testing"

	"fdx/internal/linalg"
)

func TestStratifiedCovarianceSingleStratumEqualsPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := linalg.NewDense(40, 3)
	for i := 0; i < 40; i++ {
		for j := 0; j < 3; j++ {
			data.Set(i, j, rng.NormFloat64())
		}
	}
	plain := Covariance(data)
	strat := StratifiedCovariance(data, 1)
	if linalg.MaxAbsDiff(plain, strat) != 0 {
		t.Error("strata=1 should reduce to plain covariance")
	}
	// Non-divisible stratification falls back too.
	fallback := StratifiedCovariance(data, 7)
	if linalg.MaxAbsDiff(plain, fallback) != 0 {
		t.Error("non-divisible strata should fall back to plain covariance")
	}
}

func TestStratifiedCovarianceRemovesBlockShift(t *testing.T) {
	// Two blocks with identical within-block structure but shifted means:
	// the pooled covariance invents correlation; the stratified one must
	// not.
	rng := rand.New(rand.NewSource(32))
	n := 200
	data := linalg.NewDense(2*n, 2)
	for i := 0; i < n; i++ {
		data.Set(i, 0, rng.NormFloat64())
		data.Set(i, 1, rng.NormFloat64())
	}
	for i := n; i < 2*n; i++ {
		data.Set(i, 0, 10+rng.NormFloat64())
		data.Set(i, 1, 10+rng.NormFloat64())
	}
	pooled := Correlation(Covariance(data))
	strat := Correlation(StratifiedCovariance(data, 2))
	if pooled.At(0, 1) < 0.8 {
		t.Fatalf("pooled artifact missing: %v", pooled.At(0, 1))
	}
	if v := strat.At(0, 1); v > 0.2 || v < -0.2 {
		t.Errorf("stratified covariance kept block artifact: %v", v)
	}
}

func TestStratifiedCovarianceMatchesManualAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	strata, block, k := 4, 25, 3
	data := linalg.NewDense(strata*block, k)
	for i := 0; i < strata*block; i++ {
		for j := 0; j < k; j++ {
			data.Set(i, j, rng.NormFloat64())
		}
	}
	got := StratifiedCovariance(data, strata)
	want := linalg.NewDense(k, k)
	for s := 0; s < strata; s++ {
		sub := linalg.NewDense(block, k)
		for i := 0; i < block; i++ {
			copy(sub.Row(i), data.Row(s*block+i))
		}
		cov := Covariance(sub)
		for i, v := range cov.Data() {
			want.Data()[i] += v / float64(strata)
		}
	}
	if linalg.MaxAbsDiff(got, want) > 1e-12 {
		t.Error("parallel stratified covariance differs from manual average")
	}
}

func TestGammaPSeriesPath(t *testing.T) {
	// Small x relative to dof exercises the series branch of gammaQ.
	p := ChiSquaredPValue(0.5, 10) // x=0.25 < a+1=6 → series
	if p < 0.999 {
		t.Errorf("p(0.5, 10) = %v, want ≈1", p)
	}
	if got := ChiSquaredPValue(1, 4); got < 0.9 || got > 0.91 {
		// Known value: P(X²₄ ≥ 1) ≈ 0.9098.
		t.Errorf("p(1, 4) = %v, want ≈0.910", got)
	}
}

func TestEntropyXAndBounds(t *testing.T) {
	c := NewContingency([]int{0, 0, 1}, []int{1, 1, 0})
	if c.EntropyX() <= 0 || c.EntropyY() <= 0 {
		t.Error("entropies should be positive for mixed labels")
	}
	if c.MutualInformation() > c.EntropyX()+1e-12 {
		t.Error("MI exceeds H(X)")
	}
	empty := NewContingency(nil, nil)
	if empty.JointEntropy() != 0 || empty.MutualInformation() != 0 {
		t.Error("empty contingency entropies should be 0")
	}
	if ExpectedMutualInformation(empty) != 0 {
		t.Error("empty EMI should be 0")
	}
	if RFIUpperBound(empty) != 0 || ReliableFractionOfInformation(empty) != 0 {
		t.Error("empty RFI scores should be 0")
	}
}

func TestConstantYScores(t *testing.T) {
	c := NewContingency([]int{0, 1, 0, 1}, []int{7, 7, 7, 7})
	if ReliableFractionOfInformation(c) != 0 {
		t.Error("zero-entropy Y should give RFI = 0 by convention")
	}
}

func TestInPlaceVariantsMatchCopying(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	data := linalg.NewDense(60, 4)
	for i := 0; i < 60; i++ {
		for j := 0; j < 4; j++ {
			data.Set(i, j, rng.NormFloat64())
		}
	}
	cov := Covariance(data)
	wantCorr := Correlation(cov)
	gotCorr := CorrelationInPlace(cov.Clone())
	if linalg.MaxAbsDiff(wantCorr, gotCorr) != 0 {
		t.Error("CorrelationInPlace differs from Correlation")
	}
	wantShrink := Shrink(cov, 0.05)
	gotShrink := ShrinkInPlace(cov.Clone(), 0.05)
	if linalg.MaxAbsDiff(wantShrink, gotShrink) != 0 {
		t.Error("ShrinkInPlace differs from Shrink")
	}
	// The originals must be untouched by the copying variants.
	if linalg.MaxAbsDiff(cov, Covariance(data)) != 0 {
		t.Error("copying variants mutated their input")
	}
}

func TestCovarianceConstantColumnHasZeroVariance(t *testing.T) {
	// One-pass raw moments subtract two nearly equal numbers for constant
	// columns; the diagonal must clamp at zero, never go negative.
	data := linalg.NewDense(30, 2)
	for i := 0; i < 30; i++ {
		data.Set(i, 0, 7.3)
		data.Set(i, 1, float64(i))
	}
	cov := Covariance(data)
	if v := cov.At(0, 0); v < 0 || v > 1e-10 {
		t.Errorf("constant column variance = %v, want ~0 and never negative", v)
	}
	corr := Correlation(cov)
	if corr.At(0, 0) != 1 || corr.At(0, 1) != 0 {
		t.Errorf("constant-column correlation row = [%v %v], want [1 0]", corr.At(0, 0), corr.At(0, 1))
	}
}
