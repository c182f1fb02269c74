package core

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"fdx/internal/dataset"
	"fdx/internal/fdxerr"
	"fdx/internal/linalg"
)

// relFromCodes builds a categorical relation from integer cell values.
func relFromCodes(rows [][]int, names ...string) *dataset.Relation {
	r := dataset.New("test", names...)
	for _, row := range rows {
		s := make([]string, len(row))
		for j, v := range row {
			s[j] = "v" + strconv.Itoa(v)
		}
		r.AppendRow(s)
	}
	return r
}

func TestFDNormalizeAndString(t *testing.T) {
	fd := FD{LHS: []int{3, 1, 3, 2}, RHS: 2}
	fd.Normalize()
	if len(fd.LHS) != 2 || fd.LHS[0] != 1 || fd.LHS[1] != 3 {
		t.Errorf("Normalize = %v", fd.LHS)
	}
	if fd.String() != "A1,A3 -> A2" {
		t.Errorf("String = %q", fd.String())
	}
	if got := fd.Format([]string{"w", "x", "y", "z"}); got != "x,z -> y" {
		t.Errorf("Format = %q", got)
	}
	edges := fd.Edges()
	if len(edges) != 2 || edges[0] != [2]int{1, 2} || edges[1] != [2]int{3, 2} {
		t.Errorf("Edges = %v", edges)
	}
}

func TestSortFDs(t *testing.T) {
	fds := []FD{{LHS: []int{2}, RHS: 1}, {LHS: []int{0}, RHS: 0}, {LHS: []int{1}, RHS: 1}}
	SortFDs(fds)
	if fds[0].RHS != 0 || fds[1].LHS[0] != 1 || fds[2].LHS[0] != 2 {
		t.Errorf("SortFDs = %v", fds)
	}
}

func TestTransformShapeAndBinary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := 1+rng.Intn(20), 1+rng.Intn(5)
		rows := make([][]int, n)
		for i := range rows {
			rows[i] = make([]int, k)
			for j := range rows[i] {
				rows[i][j] = rng.Intn(3)
			}
		}
		names := make([]string, k)
		for j := range names {
			names[j] = "a" + strconv.Itoa(j)
		}
		rel := relFromCodes(rows, names...)
		dt := floatTransform(rel, Options{Seed: seed})
		r, c := dt.Dims()
		if r != n*k || c != k {
			return false
		}
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				v := dt.At(i, j)
				if v != 0 && v != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTransformConstantColumnAllOnes(t *testing.T) {
	rows := [][]int{{1, 0}, {1, 1}, {1, 2}}
	rel := relFromCodes(rows, "c", "x")
	dt := floatTransform(rel, Options{})
	for i := 0; i < dt.Rows(); i++ {
		if dt.At(i, 0) != 1 {
			t.Fatal("constant column must always match")
		}
	}
}

func TestTransformAllDistinctColumnAllZeros(t *testing.T) {
	rows := [][]int{{0}, {1}, {2}, {3}}
	rel := relFromCodes(rows, "key")
	dt := floatTransform(rel, Options{})
	for i := 0; i < dt.Rows(); i++ {
		if dt.At(i, 0) != 0 {
			t.Fatal("all-distinct column must never match")
		}
	}
}

func TestTransformMissingNeverMatches(t *testing.T) {
	rel := dataset.New("t", "a")
	rel.AppendRow([]string{""})
	rel.AppendRow([]string{""})
	dt := floatTransform(rel, Options{})
	for i := 0; i < dt.Rows(); i++ {
		if dt.At(i, 0) != 0 {
			t.Fatal("missing cells must not match")
		}
	}
}

func TestTransformMaxRows(t *testing.T) {
	rows := make([][]int, 100)
	for i := range rows {
		rows[i] = []int{i % 7}
	}
	rel := relFromCodes(rows, "a")
	dt := floatTransform(rel, Options{Transform: TransformOptions{MaxRows: 10}})
	if dt.Rows() != 10 {
		t.Errorf("MaxRows ignored: %d rows", dt.Rows())
	}
}

func TestTransformNumericTolerance(t *testing.T) {
	rel := dataset.New("t", "x")
	rel.Columns[0] = dataset.NewColumn("x", dataset.Numeric)
	for _, v := range []string{"1.00", "1.001", "5.0", "9.0"} {
		rel.Columns[0].AppendValue(v)
	}
	// Scale = 8; tolerance 0.01 → |1.00−1.001| = .001 ≤ .08 matches.
	dt := floatTransform(rel, Options{Transform: TransformOptions{NumericTol: 0.01}})
	ones := 0
	for i := 0; i < dt.Rows(); i++ {
		ones += int(dt.At(i, 0))
	}
	if ones == 0 {
		t.Error("approximate numeric equality found no matches")
	}
	// Effectively exact tolerance → no matches.
	dt = floatTransform(rel, Options{})
	for i := 0; i < dt.Rows(); i++ {
		if dt.At(i, 0) != 0 {
			t.Error("exact numeric mode matched unequal values")
		}
	}
}

func TestJaccard3Gram(t *testing.T) {
	if jaccard3gram("chicago", "chicago") != 1 {
		t.Error("identical strings should have similarity 1")
	}
	if jaccard3gram("ab", "ab") != 1 || jaccard3gram("ab", "cd") != 0 {
		t.Error("short-string fallback wrong")
	}
	s := jaccard3gram("chicago", "chicagoo")
	if s <= 0.5 || s >= 1 {
		t.Errorf("near-duplicate similarity = %v", s)
	}
	if jaccard3gram("Chicago", "chicago") != 1 {
		t.Error("similarity should be case-insensitive")
	}
	// The transform's per-code similarity must equal the string-level one
	// on every pair of a column's values.
	col := dataset.NewColumn("s", dataset.Text)
	for _, v := range []string{"3435 W Washington Ave", "3435 W Washington Av", "3435 w WASHINGTON ave", "ab", "AB", "abc", "aaaa", "aaa"} {
		col.AppendValue(v)
	}
	tg := buildTextGrams(col)
	for a := int32(0); a < int32(col.Cardinality()); a++ {
		for b := int32(0); b < int32(col.Cardinality()); b++ {
			va, vb := col.DictValue(a), col.DictValue(b)
			if got, want := tg.jaccard(a, b), jaccard3gram(va, vb); got != want {
				t.Errorf("textGrams.jaccard(%q, %q) = %v, want %v", va, vb, got, want)
			}
		}
	}
}

func TestTransformTextSimilarity(t *testing.T) {
	// The operator matches at 3-gram Jaccard ≥ 0.9: a dropped last letter
	// (similarity 0.947) matches, an expanded suffix (0.864) does not.
	matches := func(a, b string) int {
		rel := dataset.New("t", "s")
		rel.Columns[0] = dataset.NewColumn("s", dataset.Text)
		rel.Columns[0].AppendValue(a)
		rel.Columns[0].AppendValue(b)
		dt := floatTransform(rel, Options{Transform: TransformOptions{TextSimilarity: true}})
		n := 0
		for i := 0; i < dt.Rows(); i++ {
			if dt.At(i, 0) == 1 {
				n++
			}
		}
		return n
	}
	if n := matches("3435 W Washington Ave", "3435 W Washington Av"); n == 0 {
		t.Error("text similarity operator found no matches")
	}
	if n := matches("3435 W Washington Ave", "3435 W Washington Avenue"); n != 0 {
		t.Errorf("similarity below the threshold matched %d pairs", n)
	}
}

// makeFDRelation builds a relation over 4 attributes where
// A0 → A1 (deterministic), A2 independent, {A0, A2} → A3 (deterministic).
func makeFDRelation(rng *rand.Rand, n int, noise float64) *dataset.Relation {
	// Random lookup tables, as in the paper's synthetic generator: each
	// LHS value combination maps to a uniformly random RHS value.
	bTab := make([]int, 8)
	for i := range bTab {
		bTab[i] = rng.Intn(8)
	}
	dTab := make([][]int, 8)
	for i := range dTab {
		dTab[i] = make([]int, 4)
		for j := range dTab[i] {
			dTab[i][j] = rng.Intn(12)
		}
	}
	rows := make([][]int, n)
	for i := range rows {
		a := rng.Intn(8)
		b := bTab[a]
		c := rng.Intn(4)
		d := dTab[a][c]
		rows[i] = []int{a, b, c, d}
	}
	// Flip noise.
	for i := range rows {
		for j := range rows[i] {
			if rng.Float64() < noise {
				rows[i][j] = rng.Intn(12)
			}
		}
	}
	return relFromCodes(rows, "a", "b", "c", "d")
}

func edgeSet(fds []FD) map[[2]int]bool {
	out := map[[2]int]bool{}
	for _, fd := range fds {
		for _, e := range fd.Edges() {
			out[e] = true
		}
	}
	return out
}

func TestDiscoverRecoversCleanFDs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel := makeFDRelation(rng, 1500, 0)
	m, err := Discover(rel, Options{Seed: 1, Threshold: 0.2, RelFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	edges := edgeSet(m.FDs)
	// The dependency structure links {0,1} and {0,2,3}; direction depends
	// on the learned order, so check undirected recovery of the pairs.
	und := func(a, b int) bool { return edges[[2]int{a, b}] || edges[[2]int{b, a}] }
	if !und(0, 1) {
		t.Errorf("A0—A1 dependency not recovered; FDs:\n%s", formatFDs(m))
	}
	if !und(3, 2) {
		t.Errorf("A3—A2 dependency not recovered; FDs:\n%s", formatFDs(m))
	}
	// A3's second determinant (A0) carries a coefficient of ≈1/|X| under
	// the soft-logic relaxation and may fall below the conservative default
	// threshold — the paper's own benchmark recall sits near 0.5 for the
	// same reason — so it is intentionally not required here.
	// The independent attribute pair (1,2)/(0,2) must not be linked.
	if und(0, 2) || und(1, 2) {
		t.Errorf("spurious edge on independent attributes; FDs:\n%s", formatFDs(m))
	}
}

func TestDiscoverRobustToNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := makeFDRelation(rng, 2000, 0.05)
	m, err := Discover(rel, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	edges := edgeSet(m.FDs)
	und := func(a, b int) bool { return edges[[2]int{a, b}] || edges[[2]int{b, a}] }
	if !und(0, 1) {
		t.Errorf("A0—A1 lost under 5%% noise; FDs:\n%s", formatFDs(m))
	}
}

func TestDiscoverEmptyRelation(t *testing.T) {
	rel := dataset.New("t")
	m, err := Discover(rel, Options{})
	if err != nil || len(m.FDs) != 0 {
		t.Errorf("empty relation: %v %v", m, err)
	}
}

func TestDiscoverSingleColumn(t *testing.T) {
	rel := relFromCodes([][]int{{1}, {2}, {1}}, "a")
	m, err := Discover(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.FDs) != 0 {
		t.Errorf("single column cannot have FDs, got %v", m.FDs)
	}
}

func TestDiscoverFromSamplesDimMismatch(t *testing.T) {
	ctx := context.Background()
	if _, err := DiscoverFromCovarianceContext(ctx, linalg.NewDense(3, 3), []string{"a", "b"}, Options{}); !errors.Is(err, fdxerr.ErrBadInput) {
		t.Errorf("covariance dimension mismatch: err = %v, want ErrBadInput", err)
	}
}

func TestGenerateFDsRespectsOrder(t *testing.T) {
	// B in permuted space with edge (0→2) under perm [2,0,1]: attribute 2
	// precedes 0 precedes 1. LHS entries must always precede RHS in the
	// permuted order.
	k := 3
	bP := linalg.NewDense(k, k)
	bP.Set(0, 2, 0.9) // position 0 (attr 2) determines position 2 (attr 1)
	perm := linalg.Permutation{2, 0, 1}
	fds := GenerateFDs(bP, perm, 0.5, 0.4)
	if len(fds) != 1 {
		t.Fatalf("fds = %v", fds)
	}
	if fds[0].RHS != 1 || len(fds[0].LHS) != 1 || fds[0].LHS[0] != 2 {
		t.Errorf("fd = %v, want 2 -> 1", fds[0])
	}
	if fds[0].Score != 0.9 {
		t.Errorf("score = %v", fds[0].Score)
	}
}

func TestGenerateFDsThreshold(t *testing.T) {
	bP := linalg.NewDense(2, 2)
	bP.Set(0, 1, 0.05)
	fds := GenerateFDs(bP, linalg.IdentityPerm(2), 0.15, 0.4)
	if len(fds) != 0 {
		t.Errorf("sub-threshold coefficient produced FD: %v", fds)
	}
	// Alg. 3 takes only non-zero coefficients: under a non-positive floor
	// an exact zero still never enters, even with the relative rule off
	// or in an all-zero column.
	bP = linalg.NewDense(3, 3)
	bP.Set(1, 2, -0.01)
	for _, floor := range []float64{0, -1} {
		for _, frac := range []float64{0.4, -1} {
			fds := GenerateFDs(bP, linalg.IdentityPerm(3), floor, frac)
			if len(fds) != 1 || fds[0].RHS != 2 || len(fds[0].LHS) != 1 || fds[0].LHS[0] != 1 {
				t.Errorf("floor %v, frac %v: fds = %v, want only 1 -> 2", floor, frac, fds)
			}
		}
	}
}

// TestBlockedGenerationEqualsDense checks that generating FDs block by block
// equals Alg. 3 on the dense block-diagonal assembly of B, on a covariance
// that screening at λ>0 splits into several blocks — under the default
// floor and with no floor or relative rule at all — and that no FD cites
// a zero coefficient.
func TestBlockedGenerationEqualsDense(t *testing.T) {
	const blocks, size = 3, 4
	k := blocks * size
	rng := rand.New(rand.NewSource(21))
	s := linalg.NewDense(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			v := 0.01 * (rng.Float64() - 0.5) // cross-block: below λ
			if i/size == j/size {
				v = 0.3 + 0.5*rng.Float64()
			}
			if i == j {
				v = 1
			}
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
	}
	names := make([]string, k)
	for i := range names {
		names[i] = "a" + strconv.Itoa(i)
	}
	for _, o := range []Options{{Lambda: 0.05}, {Lambda: 0.05, Threshold: -1, RelFraction: -1}} {
		m, err := DiscoverFromCovarianceContext(context.Background(), s, names, o)
		if err != nil {
			t.Fatal(err)
		}
		if m.Diagnostics.GlassoBlocks < 2 {
			t.Fatalf("screening kept %d block(s); the test needs several", m.Diagnostics.GlassoBlocks)
		}
		o.defaults()
		bP := linalg.NewDense(k, k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				bP.Set(i, j, m.B.At(m.Order[i], m.Order[j]))
			}
		}
		want := GenerateFDs(bP, m.Order, o.Threshold, o.RelFraction)
		if len(m.FDs) == 0 || len(m.FDs) != len(want) {
			t.Fatalf("threshold %v: %d blocked FDs, dense assembly gives %d", o.Threshold, len(m.FDs), len(want))
		}
		for i, fd := range m.FDs {
			w := want[i]
			if fd.RHS != w.RHS || fd.Score != w.Score || len(fd.LHS) != len(w.LHS) {
				t.Fatalf("threshold %v: FD %d = %v (score %v), dense gives %v (score %v)", o.Threshold, i, fd, fd.Score, w, w.Score)
			}
			for p, x := range fd.LHS {
				if x != w.LHS[p] {
					t.Fatalf("threshold %v: FD %d = %v, dense gives %v", o.Threshold, i, fd, w)
				}
				if m.B.At(x, fd.RHS) == 0 {
					t.Errorf("threshold %v: FD %v cites the zero coefficient B[%d][%d]", o.Threshold, fd, x, fd.RHS)
				}
			}
		}
	}
}

func TestModelFormatAndHeatmap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := makeFDRelation(rng, 500, 0)
	m, err := Discover(rel, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.FDs) == 0 {
		t.Fatal("no FDs discovered")
	}
	if lines := strings.Count(formatFDs(m), "\n"); lines != len(m.FDs) {
		t.Errorf("FD formatting has %d lines, want %d", lines, len(m.FDs))
	}
	if !m.Order.IsValid() {
		t.Error("invalid order permutation")
	}
}

func TestDiscoverOrderingVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rel := makeFDRelation(rng, 800, 0)
	for _, ord := range []string{"natural", "heuristic", "amd", "colamd", "metis", "nesdis"} {
		if _, err := Discover(rel, Options{Ordering: ord, Seed: 4}); err != nil {
			t.Errorf("ordering %s: %v", ord, err)
		}
	}
	if _, err := Discover(rel, Options{Ordering: "bogus"}); err == nil {
		t.Error("bogus ordering accepted")
	}
}

func TestDiscoverLambdaSweepRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel := makeFDRelation(rng, 600, 0.01)
	prev := -1
	for _, lam := range []float64{0, 0.002, 0.01, 0.05} {
		m, err := Discover(rel, Options{Lambda: lam, Seed: 5})
		if err != nil {
			t.Fatalf("lambda %v: %v", lam, err)
		}
		_ = prev
		prev = len(m.FDs)
	}
}
