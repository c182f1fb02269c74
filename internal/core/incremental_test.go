package core

import (
	"math/rand"
	"testing"

	"fdx/internal/dataset"
	"fdx/internal/linalg"
	"fdx/internal/stats"
)

func TestAccumulatorSchemaChecks(t *testing.T) {
	a := NewAccumulator([]string{"a", "b"}, Options{})
	wrong := dataset.New("t", "a")
	wrong.AppendRow([]string{"1"})
	wrong.AppendRow([]string{"2"})
	if err := a.Add(wrong); err == nil {
		t.Error("wrong column count accepted")
	}
	renamed := dataset.New("t", "a", "c")
	renamed.AppendRow([]string{"1", "2"})
	renamed.AppendRow([]string{"1", "2"})
	if err := a.Add(renamed); err == nil {
		t.Error("renamed attribute accepted")
	}
	tiny := dataset.New("t", "a", "b")
	tiny.AppendRow([]string{"1", "2"})
	if err := a.Add(tiny); err == nil {
		t.Error("single-row batch accepted")
	}
	if _, err := a.Discover(); err == nil {
		t.Error("empty accumulator discover should fail")
	}
}

func TestAccumulatorSingleBatchMatchesBatchCovariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel := makeFDRelation(rng, 400, 0)
	// MaxRows 100 samples a quarter of the batch: each stratum then holds
	// 100 pairs, and the covariance must divide by that count.
	for _, maxRows := range []int{0, 100} {
		topts := TransformOptions{Seed: 7, MaxRows: maxRows}
		a := NewAccumulator(rel.AttrNames(), Options{Seed: 7, Transform: topts})
		if err := a.Add(rel); err != nil {
			t.Fatal(err)
		}
		got, err := a.Covariance()
		if err != nil {
			t.Fatal(err)
		}
		dt := floatTransform(rel, topts)
		want := stats.StratifiedCovariance(dt, rel.NumCols())
		if d := linalg.MaxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("MaxRows %d: single-batch covariance differs from batch estimator by %v", maxRows, d)
		}
	}
}

func TestAccumulatorIncrementalDiscovery(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewAccumulator([]string{"a", "b", "c", "d"}, Options{Seed: 6})
	// Stream five batches from the same distribution.
	for batch := 0; batch < 5; batch++ {
		rel := makeFDRelation(rng, 300, 0.01)
		if err := a.Add(rel); err != nil {
			t.Fatal(err)
		}
	}
	if a.Rows() != 1500 || a.Batches() != 5 {
		t.Errorf("rows=%d batches=%d", a.Rows(), a.Batches())
	}
	m, err := a.Discover()
	if err != nil {
		t.Fatal(err)
	}
	edges := edgeSet(m.FDs)
	und := func(x, y int) bool { return edges[[2]int{x, y}] || edges[[2]int{y, x}] }
	if !und(0, 1) {
		t.Errorf("streamed discovery lost a—b: %s", formatFDs(m))
	}
	if !und(3, 2) {
		t.Errorf("streamed discovery lost c—d: %s", formatFDs(m))
	}
}

func TestAccumulatorMatchesFullRecomputeApproximately(t *testing.T) {
	// The incremental estimate (pairs within batches) should stay close to
	// the full recompute on the concatenation.
	rng := rand.New(rand.NewSource(7))
	full := dataset.New("t", "a", "b", "c", "d")
	a := NewAccumulator(full.AttrNames(), Options{Seed: 8})
	for batch := 0; batch < 4; batch++ {
		rel := makeFDRelation(rng, 500, 0)
		for i := 0; i < rel.NumRows(); i++ {
			full.AppendRow(rel.Row(i))
		}
		if err := a.Add(rel); err != nil {
			t.Fatal(err)
		}
	}
	inc, err := a.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	dt := floatTransform(full, TransformOptions{Seed: 8})
	batchCov := stats.StratifiedCovariance(dt, full.NumCols())
	// Same sign structure and magnitudes within a loose tolerance. The
	// batches draw fresh random FD lookup tables, so only coarse agreement
	// is expected on off-diagnonal strength.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if d := inc.At(i, j) - batchCov.At(i, j); d > 0.2 || d < -0.2 {
				t.Errorf("covariance (%d,%d): incremental %v vs full %v", i, j, inc.At(i, j), batchCov.At(i, j))
			}
		}
	}
}

// TestAccumulateStratumZeroAlloc pins the absorb inner loop at zero
// allocations per stratum: the popcount kernel works entirely in
// caller-provided sums and outer-product buffers, so steady-state
// absorption costs only the per-batch delta bookkeeping.
func TestAccumulateStratumZeroAlloc(t *testing.T) {
	const k, sn = 8, 100
	pb := newPairBits(sn, k, nil)
	rng := rand.New(rand.NewSource(3))
	for s := 0; s < k; s++ {
		for l := 0; l < k; l++ {
			col := pb.col(s, l)
			for w := range col {
				col[w] = rng.Uint64()
			}
			col[len(col)-1] &= 1<<(sn%64) - 1 // zero past the stratum's end
		}
	}
	sums := make([]float64, k)
	out := linalg.NewDense(k, k)
	allocs := testing.AllocsPerRun(10, func() {
		pb.stratumMoments(2, sums, out)
	})
	if allocs != 0 {
		t.Fatalf("stratumMoments allocates %.1f times per stratum, want 0", allocs)
	}
}
