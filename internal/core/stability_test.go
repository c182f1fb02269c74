package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"fdx/internal/dataset"
)

func TestStabilitySelectionKeepsTrueEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rel := makeFDRelation(rng, 1200, 0.02)
	fds, freqs, err := StabilitySelection(rel, Options{}, StabilityOptions{Runs: 8, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	edges := edgeSet(fds)
	und := func(a, b int) bool { return edges[[2]int{a, b}] || edges[[2]int{b, a}] }
	if !und(0, 1) {
		t.Errorf("stable a—b edge lost: %v", fds)
	}
	if !und(2, 3) {
		t.Errorf("stable c—d edge lost: %v", fds)
	}
	// Frequencies sorted descending and bounded.
	for i, f := range freqs {
		if f.Frequency < 0 || f.Frequency > 1 {
			t.Fatalf("frequency out of range: %v", f)
		}
		if i > 0 && freqs[i-1].Frequency < f.Frequency {
			t.Fatal("frequencies not sorted")
		}
	}
}

func TestStabilitySelectionFiltersUnstableEdges(t *testing.T) {
	// With a very high frequency cut-off, marginal edges disappear while
	// the deterministic one (a→b) survives.
	rng := rand.New(rand.NewSource(11))
	rel := makeFDRelation(rng, 1000, 0.05)
	strict, _, err := StabilitySelection(rel, Options{}, StabilityOptions{Runs: 8, MinFrequency: 0.99, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	loose, _, err := StabilitySelection(rel, Options{}, StabilityOptions{Runs: 8, MinFrequency: 0.2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(edgeSet(strict)) > len(edgeSet(loose)) {
		t.Errorf("stricter cut-off kept more edges: %d vs %d", len(edgeSet(strict)), len(edgeSet(loose)))
	}
	edges := edgeSet(strict)
	if !edges[[2]int{0, 1}] && !edges[[2]int{1, 0}] {
		t.Errorf("deterministic edge failed 0.99 stability: %v", strict)
	}
}

// subsampleRoundTrip is the reference subsample: each sampled row turned
// back into strings and re-interned through AppendRow.
func subsampleRoundTrip(rel *dataset.Relation, rng *rand.Rand, fraction float64) *dataset.Relation {
	n := rel.NumRows()
	take := int(float64(n) * fraction)
	if take < 2 {
		take = n
	}
	idx := rng.Perm(n)[:take]
	sort.Ints(idx)
	out := dataset.New(rel.Name, rel.AttrNames()...)
	for j, c := range out.Columns {
		c.Type = rel.Columns[j].Type
	}
	for _, i := range idx {
		out.AppendRow(rel.Row(i))
	}
	return out
}

// TestSubsampleMatchesRoundTrip checks that subsample, which gathers
// codes, builds exactly the relation of the string round trip: names,
// types, codes, dictionaries and numeric values, over the draws of a
// StabilitySelection run. The relation mixes NULLs, numeric and text
// columns, and an interned empty string, which the round trip reads back
// as NULL.
func TestSubsampleMatchesRoundTrip(t *testing.T) {
	rel := mixedRelation(rand.New(rand.NewSource(9)), 300)
	rel.Columns[4].SetCode(7, rel.Columns[4].CodeOf(""))
	for _, fraction := range []float64{0.8, 0.3, 0.001} {
		got, want := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
		for run := 0; run < 5; run++ {
			g, w := subsample(rel, got, fraction), subsampleRoundTrip(rel, want, fraction)
			if g.Name != w.Name || g.NumRows() != w.NumRows() || g.NumCols() != w.NumCols() {
				t.Fatalf("fraction %v run %d: shape %d×%d, want %d×%d", fraction, run, g.NumRows(), g.NumCols(), w.NumRows(), w.NumCols())
			}
			for j, gc := range g.Columns {
				wc := w.Columns[j]
				if gc.Name != wc.Name || gc.Type != wc.Type || gc.Cardinality() != wc.Cardinality() {
					t.Fatalf("fraction %v run %d column %d: %s/%v/%d, want %s/%v/%d", fraction, run, j, gc.Name, gc.Type, gc.Cardinality(), wc.Name, wc.Type, wc.Cardinality())
				}
				for code := int32(0); int(code) < wc.Cardinality(); code++ {
					if gc.DictValue(code) != wc.DictValue(code) {
						t.Fatalf("fraction %v run %d column %d: dict[%d] %q, want %q", fraction, run, j, code, gc.DictValue(code), wc.DictValue(code))
					}
				}
				for i := 0; i < w.NumRows(); i++ {
					if gc.Code(i) != wc.Code(i) || math.Float64bits(gc.Float(i)) != math.Float64bits(wc.Float(i)) {
						t.Fatalf("fraction %v run %d column %d row %d: code %d value %v, want %d %v", fraction, run, j, i, gc.Code(i), gc.Float(i), wc.Code(i), wc.Float(i))
					}
				}
			}
		}
	}
}
