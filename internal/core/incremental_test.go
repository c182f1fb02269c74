package core

import (
	"errors"
	"math/rand"
	"testing"

	"fdx/internal/dataset"
	"fdx/internal/fdxerr"
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
		opts := Options{Seed: 7, Transform: TransformOptions{MaxRows: maxRows}}
		a := NewAccumulator(rel.AttrNames(), opts)
		if err := a.Add(rel); err != nil {
			t.Fatal(err)
		}
		got, err := a.Covariance()
		if err != nil {
			t.Fatal(err)
		}
		dt := floatTransform(rel, opts)
		want := stats.StratifiedCovariance(dt, rel.NumCols())
		if d := linalg.MaxAbsDiff(got, want); d > 1e-12 {
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
	dt := floatTransform(full, Options{Seed: 8})
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

// TestAccumulateStratumZeroAlloc pins the absorb count pass at zero
// allocations: momentRows works entirely in caller-provided sums and
// co-occurrence buffers, so steady-state absorption costs only the
// per-batch delta slices.
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
	sums := make([]uint64, k*k)
	co := make([]uint64, k*(k+1)/2)
	allocs := testing.AllocsPerRun(10, func() {
		pb.momentRows(0, k, sums, co)
	})
	if allocs != 0 {
		t.Fatalf("momentRows allocates %.1f times per pass, want 0", allocs)
	}
}

// TestAccumulatorRejectsImpossibleCounts checks that ApplyDelta and
// NewAccumulatorFromState refuse counts no batch can produce, leaving the
// accumulator unchanged.
func TestAccumulatorRejectsImpossibleCounts(t *testing.T) {
	rel := makeFDRelation(rand.New(rand.NewSource(4)), 60, 0)
	names := rel.AttrNames()
	src := NewAccumulator(names, Options{Seed: 2})
	good, err := src.Absorb(rel)
	if err != nil {
		t.Fatal(err)
	}
	k := len(names)
	for _, c := range []struct {
		name   string
		mutate func(sums, co []uint64)
	}{
		{"sum above pairs", func(sums, co []uint64) { sums[k+1] = 61 }},
		{"diagonal off total", func(sums, co []uint64) { co[triIndex(k, 1, 1)]++ }},
		{"co above a diagonal", func(sums, co []uint64) { co[triIndex(k, 0, 1)] = co[triIndex(k, 1, 1)] + 1 }},
		{"short co", nil},
	} {
		name, mutate := c.name, c.mutate
		d := *good
		d.Sums = append([]uint64(nil), good.Sums...)
		d.Co = append([]uint64(nil), good.Co...)
		if mutate == nil {
			d.Co = d.Co[1:]
		} else {
			mutate(d.Sums, d.Co)
		}
		acc := NewAccumulator(names, Options{Seed: 2})
		if err := acc.ApplyDelta(&d); !errors.Is(err, fdxerr.ErrBadInput) {
			t.Errorf("%s: ApplyDelta err = %v, want ErrBadInput", name, err)
		}
		if acc.Rows() != 0 || acc.Batches() != 0 {
			t.Errorf("%s: rejected delta was applied", name)
		}
		st := src.State()
		st.Sums, st.Co = d.Sums, d.Co
		if _, err := NewAccumulatorFromState(st, Options{Seed: 2}); !errors.Is(err, fdxerr.ErrBadInput) {
			t.Errorf("%s: NewAccumulatorFromState err = %v, want ErrBadInput", name, err)
		}
	}
	st := src.State()
	st.Pairs = uint64(st.Rows) + 1
	if _, err := NewAccumulatorFromState(st, Options{Seed: 2}); !errors.Is(err, fdxerr.ErrBadInput) {
		t.Errorf("more pairs than rows: err = %v, want ErrBadInput", err)
	}
}
