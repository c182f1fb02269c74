package core

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"fdx/internal/dataset"
	"fdx/internal/linalg"
)

func TestTransformDeterministicAcrossWorkerCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := 5+rng.Intn(40), 2+rng.Intn(6)
		rows := make([][]int, n)
		for i := range rows {
			rows[i] = make([]int, k)
			for j := range rows[i] {
				rows[i][j] = rng.Intn(4)
			}
		}
		names := make([]string, k)
		for j := range names {
			names[j] = "a" + strconv.Itoa(j)
		}
		rel := relFromCodes(rows, names...)
		seq := floatTransform(rel, Options{Seed: seed, Transform: TransformOptions{Workers: 1}})
		par := floatTransform(rel, Options{Seed: seed, Transform: TransformOptions{Workers: 4}})
		return linalg.MaxAbsDiff(seq, par) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDiscoverSurvivesPathologicalColumns(t *testing.T) {
	// Failure injection: constant column, all-distinct key, all-missing
	// column, and a column that equals another exactly. Discovery must not
	// error and must not emit FDs determined by the all-missing column.
	rel := dataset.New("t", "const", "key", "gone", "a", "acopy")
	for i := 0; i < 300; i++ {
		a := strconv.Itoa(i % 7)
		rel.AppendRow([]string{"same", strconv.Itoa(i), "", a, a})
	}
	m, err := Discover(rel, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range m.FDs {
		for _, l := range fd.LHS {
			if l == 2 {
				t.Errorf("all-missing column used as determinant: %v", fd)
			}
		}
		if fd.RHS == 2 {
			t.Errorf("all-missing column determined: %v", fd)
		}
	}
	// The duplicated pair must be linked.
	edges := edgeSet(m.FDs)
	if !edges[[2]int{3, 4}] && !edges[[2]int{4, 3}] {
		t.Errorf("duplicate columns not linked: %s", formatFDs(m))
	}
}

func TestDiscoverTwoRowRelation(t *testing.T) {
	rel := relFromCodes([][]int{{0, 0}, {1, 1}}, "a", "b")
	if _, err := Discover(rel, Options{}); err != nil {
		t.Fatalf("two-row relation: %v", err)
	}
}

func TestDiscoverManyColumnsSmoke(t *testing.T) {
	// 60 columns exercises the wide path (multi-word attrsets, ordering on
	// a larger graph).
	rng := rand.New(rand.NewSource(14))
	k := 60
	rows := make([][]int, 300)
	for i := range rows {
		rows[i] = make([]int, k)
		for j := 0; j < k; j += 2 {
			v := rng.Intn(6)
			rows[i][j] = v
			rows[i][j+1] = (v * 7) % 6 // pairwise FDs along the schema
		}
	}
	names := make([]string, k)
	for j := range names {
		names[j] = "c" + strconv.Itoa(j)
	}
	rel := relFromCodes(rows, names...)
	m, err := Discover(rel, Options{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.FDs) < k/4 {
		t.Errorf("wide relation found only %d FDs", len(m.FDs))
	}
}
