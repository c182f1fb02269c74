package core

import (
	"context"
	"errors"
	"math"
	"strconv"
	"testing"
	"time"

	"fdx/internal/dataset"
	"fdx/internal/faults"
	"fdx/internal/fdxerr"
	"fdx/internal/linalg"
)

// fdRelation builds a relation with a strong a→b dependency plus a noise
// column — enough signal that the healthy pipeline finds structure.
func fdRelation(n int) *dataset.Relation {
	rows := make([][]int, n)
	for i := range rows {
		a := i % 5
		rows[i] = []int{a, a * 2, i % 3}
	}
	return relFromCodes(rows, "a", "b", "c")
}

func checkValidModel(t *testing.T, m *Model, k int) {
	t.Helper()
	if m == nil {
		t.Fatal("nil model")
	}
	if r, c := m.B.Dims(); r != k || c != k {
		t.Fatalf("B is %dx%d, want %dx%d", r, c, k, k)
	}
	if len(m.Order) != k || !m.Order.IsValid() {
		t.Fatalf("invalid order %v", m.Order)
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if math.IsNaN(m.B.At(i, j)) || math.IsInf(m.B.At(i, j), 0) {
				t.Fatalf("B[%d,%d] is not finite", i, j)
			}
		}
	}
}

func TestFaultCovarianceNaNIsSanitized(t *testing.T) {
	defer faults.Reset()
	faults.Arm(faults.CovarianceNaN, faults.Config{Times: 1})
	m, err := Discover(fdRelation(60), Options{})
	if err != nil {
		t.Fatalf("Discover with poisoned covariance failed: %v", err)
	}
	checkValidModel(t, m, 3)
	if got := m.Diagnostics.SanitizedColumns; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("SanitizedColumns = %v, want [0 2]", got)
	}
	if !m.Diagnostics.Degraded() {
		t.Error("sanitized run not reported as degraded")
	}
}

func TestCovarianceNaNDirectSanitization(t *testing.T) {
	// No fault injection: hand the pipeline a covariance with NaN and Inf
	// entries directly.
	s := linalg.NewDenseData(3, 3, []float64{
		1, 0.5, math.NaN(),
		0.5, math.Inf(1), 0.1,
		math.NaN(), 0.1, 1,
	})
	m, err := DiscoverFromCovarianceContext(context.Background(), s, []string{"a", "b", "c"}, Options{})
	if err != nil {
		t.Fatalf("DiscoverFromCovarianceContext: %v", err)
	}
	checkValidModel(t, m, 3)
	if got := m.Diagnostics.SanitizedColumns; len(got) != 3 {
		t.Errorf("SanitizedColumns = %v, want all three", got)
	}
}

func TestFaultGlassoNonConvergenceDegrades(t *testing.T) {
	defer faults.Reset()
	faults.Arm(faults.GlassoNoConverge, faults.Config{})
	m, err := Discover(fdRelation(60), Options{})
	if err != nil {
		t.Fatalf("Discover under forced non-convergence failed: %v", err)
	}
	checkValidModel(t, m, 3)
	if m.Diagnostics.GlassoConverged {
		t.Error("Diagnostics.GlassoConverged = true under forced non-convergence")
	}
	if len(m.Diagnostics.Fallbacks) != len(fallbackEpsilons) {
		t.Errorf("Fallbacks = %v, want one per ladder rung", m.Diagnostics.Fallbacks)
	}
	for i, f := range m.Diagnostics.Fallbacks {
		if f.Stage != "glasso" || f.Epsilon != fallbackEpsilons[i] {
			t.Errorf("fallback %d = %+v, want glasso rung ε=%g", i, f, fallbackEpsilons[i])
		}
	}
	if m.Diagnostics.GlassoSweeps == 0 {
		t.Error("GlassoSweeps not recorded")
	}
}

func TestFaultGlassoNonConvergenceStrict(t *testing.T) {
	defer faults.Reset()
	faults.Arm(faults.GlassoNoConverge, faults.Config{})
	_, err := Discover(fdRelation(60), Options{RequireConvergence: true})
	if !errors.Is(err, fdxerr.ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
}

func TestFaultNonPositivePivotRecoversViaLadder(t *testing.T) {
	defer faults.Reset()
	// Two fires: the first UDU attempt and its nearest-SPD retry both fail,
	// pushing the pipeline onto the ladder; the first rung then succeeds.
	faults.Arm(faults.NonPositivePivot, faults.Config{Times: 2})
	m, err := Discover(fdRelation(60), Options{})
	if err != nil {
		t.Fatalf("Discover with transient pivot failure failed: %v", err)
	}
	checkValidModel(t, m, 3)
	found := false
	for _, f := range m.Diagnostics.Fallbacks {
		if f.Stage == "factorize" && f.Epsilon == fallbackEpsilons[0] {
			found = true
		}
	}
	if !found {
		t.Errorf("Fallbacks = %+v, want a factorize rung at ε=%g", m.Diagnostics.Fallbacks, fallbackEpsilons[0])
	}
}

func TestFaultNonPositivePivotExhaustsLadder(t *testing.T) {
	defer faults.Reset()
	faults.Arm(faults.NonPositivePivot, faults.Config{})
	_, err := Discover(fdRelation(60), Options{})
	if !errors.Is(err, fdxerr.ErrNonPositivePivot) {
		t.Fatalf("err = %v, want ErrNonPositivePivot", err)
	}
	if !errors.Is(err, linalg.ErrNotPositiveDefinite) {
		t.Errorf("err = %v should also match linalg.ErrNotPositiveDefinite", err)
	}
}

func TestFaultSlowTransformHitsDeadline(t *testing.T) {
	defer faults.Reset()
	faults.Arm(faults.SlowStage, faults.Config{Delay: 30 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := DiscoverContext(ctx, fdRelation(60), Options{})
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, fdxerr.ErrCancelled) {
		t.Fatalf("err = %v, want DeadlineExceeded and ErrCancelled", err)
	}
	// "Promptly": a few slow-stage visits at most, not the whole pipeline.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

func TestDiscoverContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := DiscoverContext(ctx, fdRelation(20), Options{})
	if !errors.Is(err, context.Canceled) || !errors.Is(err, fdxerr.ErrCancelled) {
		t.Fatalf("err = %v, want Canceled and ErrCancelled", err)
	}
}

func TestDiscoverFromCovarianceContextPreCancelled(t *testing.T) {
	// The covariance entry point skips the transform; the fallback ladder
	// checks the context before its first rung.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := stats_identityLike(6)
	_, err := DiscoverFromCovarianceContext(ctx, s, []string{"a", "b", "c", "d", "e", "f"}, Options{})
	if !errors.Is(err, fdxerr.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// stats_identityLike builds a well-conditioned covariance with light
// off-diagonal structure.
func stats_identityLike(k int) *linalg.Dense {
	s := linalg.NewDense(k, k)
	for i := 0; i < k; i++ {
		s.Set(i, i, 1)
		if i+1 < k {
			s.Set(i, i+1, 0.3)
			s.Set(i+1, i, 0.3)
		}
	}
	return s
}

func TestFaultDiagnosticsHealthyRun(t *testing.T) {
	m, err := Discover(fdRelation(60), Options{})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if m.Diagnostics.Degraded() {
		t.Errorf("healthy run reported degraded: %+v", m.Diagnostics)
	}
	if !m.Diagnostics.GlassoConverged || m.Diagnostics.GlassoSweeps == 0 {
		t.Errorf("healthy diagnostics = %+v", m.Diagnostics)
	}
}

func TestValidateRelation(t *testing.T) {
	if err := ValidateRelation(nil); !errors.Is(err, fdxerr.ErrBadInput) {
		t.Errorf("nil relation: err = %v, want ErrBadInput", err)
	}
	dup := dataset.New("t", "a", "b", "a")
	if err := ValidateRelation(dup); !errors.Is(err, fdxerr.ErrBadInput) {
		t.Errorf("duplicate names: err = %v, want ErrBadInput", err)
	}
	ok := relFromCodes([][]int{{1, 2}, {3, 4}}, "a", "b")
	if err := ValidateRelation(ok); err != nil {
		t.Errorf("valid relation rejected: %v", err)
	}
}

func TestDiscoverDuplicateAttributeNames(t *testing.T) {
	rel := dataset.New("t", "a", "a")
	rel.AppendRow([]string{"1", "2"})
	rel.AppendRow([]string{"3", "4"})
	_, err := Discover(rel, Options{})
	if !errors.Is(err, fdxerr.ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
}

func TestAccumulatorAddBadBatches(t *testing.T) {
	acc := NewAccumulator([]string{"a", "b"}, Options{})
	cases := []*dataset.Relation{
		nil,
		relFromCodes([][]int{{1, 2, 3}, {4, 5, 6}}, "a", "b", "c"),
		relFromCodes([][]int{{1, 2}, {3, 4}}, "a", "x"),
		relFromCodes([][]int{{1, 2}}, "a", "b"),
	}
	for i, rel := range cases {
		if err := acc.Add(rel); !errors.Is(err, fdxerr.ErrBadInput) {
			t.Errorf("case %d: err = %v, want ErrBadInput", i, err)
		}
	}
	if acc.Rows() != 0 || acc.Batches() != 0 {
		t.Errorf("rejected batches were absorbed: rows=%d batches=%d", acc.Rows(), acc.Batches())
	}
}

func TestFaultTransformContextDrainsWorkers(t *testing.T) {
	// Cancelling mid-transform must not deadlock the attribute feeder even
	// with more attributes than workers.
	defer faults.Reset()
	faults.Arm(faults.SlowStage, faults.Config{Delay: 10 * time.Millisecond})
	names := make([]string, 12)
	rows := make([][]int, 40)
	for j := range names {
		names[j] = "a" + strconv.Itoa(j)
	}
	for i := range rows {
		rows[i] = make([]int, len(names))
		for j := range rows[i] {
			rows[i][j] = (i * (j + 1)) % 7
		}
	}
	rel := relFromCodes(rows, names...)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := TransformContext(ctx, rel, TransformOptions{Workers: 2})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, fdxerr.ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("TransformContext did not return after cancellation")
	}
}
