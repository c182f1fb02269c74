package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"fdx/internal/dataset"
	"fdx/internal/linalg"
	"fdx/internal/stats"
)

// Exact differential tests of the bit-packed sample store against a naive
// float reference: the direct Alg. 2 transform (sort.SliceStable, one
// float64 cell per comparison) and the float moment estimators on it.
// Every comparison is on the bits of every entry — the store's contract is
// identity, not closeness.

// referenceTransform is the oracle transform: Alg. 2 written directly,
// serially, with the comparison-based stable sort and the full difference
// operator on every cell.
func referenceTransform(rel *dataset.Relation, opts TransformOptions) *linalg.Dense {
	opts.defaults()
	n, k := rel.NumRows(), rel.NumCols()
	rng := rand.New(rand.NewSource(opts.Seed))
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	rng.Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	if opts.MaxRows > 0 && n > opts.MaxRows {
		rows = rows[:opts.MaxRows]
		n = opts.MaxRows
	}
	ctxs := make([]colCtx, k)
	for j, col := range rel.Columns {
		ctxs[j].col = col
		if col.Type == dataset.Numeric {
			ctxs[j].scale = numericScale(col, rows)
		}
		if col.Type == dataset.Text && opts.TextSimilarity {
			ctxs[j].grams = buildTextGrams(col)
		}
	}
	out := linalg.NewDense(n*k, k)
	sorted := make([]int, n)
	for attr, col := range rel.Columns {
		copy(sorted, rows)
		sort.SliceStable(sorted, func(a, b int) bool { return col.Code(sorted[a]) < col.Code(sorted[b]) })
		for j := 0; j < n; j++ {
			a, b := sorted[j], sorted[(j+1)%n]
			for l := range ctxs {
				c := ctxs[l].col
				if cellsEqual(&ctxs[l], a, b, c.Code(a), c.Code(b), &opts) {
					out.Set(attr*n+j, l, 1)
				}
			}
		}
	}
	return out
}

// accumulateStratum is the oracle for Absorb's per-stratum moments: the
// float accumulation over stratum s's sn sample rows — column sums and
// the upper triangle of the outer-product sum via fused Axpy updates,
// then mirrored.
func accumulateStratum(dt *linalg.Dense, s, sn int, sums []float64, out *linalg.Dense) {
	k := len(sums)
	for i := 0; i < sn; i++ {
		row := dt.Row(s*sn + i)
		for p := 0; p < k; p++ {
			vp := row[p]
			if vp == 0 {
				continue
			}
			sums[p] += vp
			linalg.Axpy(vp, row[p:], out.Row(p)[p:])
		}
	}
	for p := 0; p < k; p++ {
		for q := p + 1; q < k; q++ {
			out.Set(q, p, out.At(p, q))
		}
	}
}

// assertSameBits fails unless got and want have the same shape and
// bit-identical entries.
func assertSameBits(t *testing.T, what string, got, want *linalg.Dense) {
	t.Helper()
	gr, gc := got.Dims()
	wr, wc := want.Dims()
	if gr != wr || gc != wc {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, gr, gc, wr, wc)
	}
	for i, v := range got.Data() {
		if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
			t.Fatalf("%s: entry (%d,%d) = %v, want %v", what, i/gc, i%gc, v, want.Data()[i])
		}
	}
}

// mixedRelation builds n tuples over every column kind the transform
// distinguishes: categorical with missing cells, a noisy categorical
// dependent, numeric values that only match under a tolerance, near-
// duplicate text, and a constant column.
func mixedRelation(rng *rand.Rand, n int) *dataset.Relation {
	rel := dataset.New("mixed", "a", "b", "x", "s", "c")
	rel.Columns[2] = dataset.NewColumn("x", dataset.Numeric)
	rel.Columns[3] = dataset.NewColumn("s", dataset.Text)
	streets := []string{"3435 W Washington Ave", "12 North Halsted St", "900 Lake Shore Dr"}
	for i := 0; i < n; i++ {
		a := rng.Intn(5)
		if rng.Intn(10) == 0 {
			rel.Columns[0].AppendMissing()
		} else {
			rel.Columns[0].AppendValue("a" + strconv.Itoa(a))
		}
		b := a * 2
		if rng.Intn(20) == 0 {
			b = rng.Intn(10)
		}
		rel.Columns[1].AppendValue("b" + strconv.Itoa(b))
		if rng.Intn(20) == 0 {
			rel.Columns[2].AppendMissing()
		} else {
			rel.Columns[2].AppendValue(strconv.FormatFloat(float64(a)+0.001*rng.Float64(), 'f', 6, 64))
		}
		st := streets[rng.Intn(len(streets))]
		if rng.Intn(3) == 0 {
			st = st[:len(st)-1] // a typo-level variant
		}
		if rng.Intn(20) == 0 {
			rel.Columns[3].AppendMissing()
		} else {
			rel.Columns[3].AppendValue(st)
		}
		rel.Columns[4].AppendValue("same")
	}
	return rel
}

func TestSortByCodeMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	random := func(n, card int, missing bool) []int32 {
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = int32(rng.Intn(card))
			if missing && rng.Intn(5) == 0 {
				codes[i] = dataset.Missing
			}
		}
		return codes
	}
	cases := []struct {
		name  string
		codes []int32
		card  int
	}{
		{"random-with-missing", random(500, 7, true), 7},
		{"single-value", random(50, 1, false), 1},
		{"all-missing", []int32{-1, -1, -1, -1}, 0},
		{"n=2-descending", []int32{1, 0}, 2},
		{"n=2-tied", []int32{0, 0}, 1},
		{"n=2-missing", []int32{0, -1}, 1},
		{"n=1", []int32{0}, 1},
		{"n=0", nil, 0},
	}
	for _, c := range cases {
		want := make([]int, len(c.codes))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return c.codes[want[a]] < c.codes[want[b]] })
		got := make([]int, len(c.codes))
		sortByCode(got, c.codes, make([]int, c.card+1))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: position %d = %d, want %d", c.name, i, got[i], want[i])
			}
		}
	}
}

// TestPairBitsMatchFloatReference checks the bit store, its unpacked
// float view, and its stratified and pooled covariances against the
// reference transform and the float estimators, bit for bit, at
// transform/covariance worker counts 1, 2, and GOMAXPROCS.
func TestPairBitsMatchFloatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mixed := mixedRelation(rng, 300)
	cases := []struct {
		name string
		rel  *dataset.Relation
		opts TransformOptions
	}{
		{"categorical", makeFDRelation(rng, 200, 0.05), TransformOptions{Seed: 1}},
		{"mixed-exact", mixed, TransformOptions{Seed: 2}},
		{"numeric-tolerance-text-similarity", mixed, TransformOptions{Seed: 3, NumericTol: 0.01, TextSimilarity: true}},
		{"max-rows", mixed, TransformOptions{Seed: 4, MaxRows: 77, NumericTol: 0.01}},
		{"single-attribute", mixed.Project(0), TransformOptions{Seed: 5}},
		{"n-not-word-multiple-past-poll", makeFDRelation(rng, 4100, 0.02).Project(0, 1, 3), TransformOptions{Seed: 6}},
		{"two-rows", mixed.Slice(0, 2), TransformOptions{Seed: 7}},
		{"one-row", mixed.Slice(0, 1), TransformOptions{Seed: 8}},
	}
	for _, c := range cases {
		ref := referenceTransform(c.rel, c.opts)
		k := c.rel.NumCols()
		wantStrat := stats.StratifiedCovariance(ref, k)
		wantPooled := stats.Covariance(ref)
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			what := fmt.Sprintf("%s/workers=%d", c.name, workers)
			opts := c.opts
			opts.Workers = workers
			pb, err := TransformBitsContext(context.Background(), c.rel, opts)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			assertSameBits(t, what+" samples", pb.Dense(), ref)
			assertSameBits(t, what+" stratified covariance", pb.StratifiedCovariance(workers), wantStrat)
			assertSameBits(t, what+" pooled covariance", pb.Covariance(workers), wantPooled)
		}
	}
}

// TestAbsorbDeltaMatchesFloatOracle checks every BatchDelta Absorb emits
// against the float accumulation of the reference transform of the same
// batch under the same seed: each stratum's column sums, and the outer
// products summed over strata.
func TestAbsorbDeltaMatchesFloatOracle(t *testing.T) {
	rel := mixedRelation(rand.New(rand.NewSource(12)), 600)
	const batch = 130 // leaves a short final batch; neither is a multiple of 64
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		for _, maxRows := range []int{0, 50} {
			opts := Options{Seed: 3, Workers: workers, Transform: TransformOptions{
				Workers: workers, MaxRows: maxRows, NumericTol: 0.01, TextSimilarity: true,
			}}
			acc := NewAccumulator(rel.AttrNames(), opts)
			// Absorb out of grid order, as a shard would.
			globals := []int{3, 0, 4, 1, 2}
			for i, g := range globals {
				lo := i * batch
				hi := lo + batch
				if hi > rel.NumRows() {
					hi = rel.NumRows()
				}
				b := rel.Slice(lo, hi)
				d, err := acc.AbsorbAt(b, g)
				if err != nil {
					t.Fatal(err)
				}
				topts := opts.Transform
				topts.Seed = opts.Seed + int64(g)
				ref := referenceTransform(b, topts)
				k := b.NumCols()
				sn := ref.Rows() / k
				what := fmt.Sprintf("workers=%d maxRows=%d global=%d", workers, maxRows, g)
				co := linalg.NewDense(k, k)
				for s := 0; s < k; s++ {
					sums := make([]float64, k)
					outer := linalg.NewDense(k, k)
					accumulateStratum(ref, s, sn, sums, outer)
					linalg.Axpy(1, outer.Data(), co.Data())
					for p, v := range sums {
						if float64(d.Sums[s*k+p]) != v {
							t.Fatalf("%s: stratum %d sum %d is %d, float oracle %v", what, s, p, d.Sums[s*k+p], v)
						}
					}
				}
				for p := 0; p < k; p++ {
					for q := p; q < k; q++ {
						if got := d.Co[triIndex(k, p, q)]; float64(got) != co.At(p, q) {
							t.Fatalf("%s: co-occurrence (%d,%d) is %d, float oracle %v", what, p, q, got, co.At(p, q))
						}
					}
				}
			}
		}
	}
}
