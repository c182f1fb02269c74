package core

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"fdx/internal/dataset"
)

// oracleBlock is the int32 pair kernel the byte-packed pairScan.block
// replaced, kept as its reference: for pairs [j0, j1) of stratum attr it
// compares the k codes of both tuples one at a time in codes, the
// row-major n×k copy of the sampled tuples, then tries the difference
// operator on the unequal codes of the approximate columns approx.
func oracleBlock(ps *pairScan, codes []int32, k int, approx []int, attr int, sorted []int, j0, j1 int, acc []uint64) {
	n := len(sorted)
	for w0 := j0; w0 < j1; w0 += 64 {
		w1 := min(w0+64, j1)
		for l := range acc {
			acc[l] = 0
		}
		for j := w0; j < w1; j++ {
			next := j + 1
			if next == n {
				next = 0
			}
			pa, pb := sorted[j], sorted[next]
			ra := codes[pa*k : pa*k+k]
			rb := codes[pb*k : pb*k+k]
			sh := uint(j-w0) & 63
			for l, ca := range ra {
				same := (uint64(uint32(ca^rb[l])) - 1) >> 63
				present := ^uint64(int64(ca)) >> 63
				acc[l] |= (same & present) << sh
			}
			for _, l := range approx {
				if ca, cb := ra[l], rb[l]; ca != cb && cellsEqual(&ps.ctxs[l], ps.rows[pa], ps.rows[pb], ca, cb, ps.opts) {
					acc[l] |= 1 << sh
				}
			}
		}
		w := w0 >> 6
		for l, word := range acc {
			ps.out.col(attr, l)[w] = word
		}
	}
}

// oraclePairBits is the pair transform run by oracleBlock, sequentially,
// over the same shuffled sample and comparison contexts as production.
func oraclePairBits(t testing.TB, rel *dataset.Relation, opts Options) *PairBits {
	t.Helper()
	opts.Transform.defaults()
	n, k := transformDims(rel, &opts.Transform)
	pb := newPairBits(n, k, nil)
	if n == 0 || k == 0 {
		return pb
	}
	ps, err := newPairScan(context.Background(), rel, opts, new(dtBuf), pb)
	if err != nil {
		t.Fatal(err)
	}
	codes := make([]int32, n*k)
	var approx []int
	for l, col := range rel.Columns {
		for i, r := range ps.rows {
			codes[i*k+l] = col.Code(r)
		}
		if col.Type == dataset.Numeric || col.Type == dataset.Text && opts.Transform.TextSimilarity {
			approx = append(approx, l)
		}
	}
	sorted := make([]int, n)
	keys := make([]int32, n)
	acc := make([]uint64, k)
	for attr, col := range rel.Columns {
		for i := range keys {
			keys[i] = codes[i*k+attr]
		}
		sortByCode(sorted, keys, make([]int, col.Cardinality()+1))
		oracleBlock(ps, codes, k, approx, attr, sorted, 0, n, acc)
	}
	return pb
}

// checkPairKernel runs the production transform at 1 and 3 workers and
// requires every PairBits word to equal the oracle's.
func checkPairKernel(t testing.TB, rel *dataset.Relation, opts Options) {
	t.Helper()
	want := oraclePairBits(t, rel, opts)
	for _, workers := range []int{1, 3} {
		opts.Transform.Workers = workers
		got, err := TransformBitsContext(context.Background(), rel, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.n != want.n || got.k != want.k {
			t.Fatalf("workers %d: shape %d×%d, oracle %d×%d", workers, got.n, got.k, want.n, want.k)
		}
		for i, w := range got.bits {
			if w != want.bits[i] {
				s, l, word := i/(got.k*got.words), i/got.words%got.k, i%got.words
				t.Fatalf("workers %d: stratum %d column %d word %d = %#016x, oracle %#016x", workers, s, l, word, w, want.bits[i])
			}
		}
	}
}

// colSpec is one generated column: its type, the number of distinct
// values its cells draw from, and its dictionary size (interned up front,
// so a column can be wide on a handful of rows).
type colSpec struct {
	typ    dataset.Type
	domain int
	card   int
}

// kernelRelation builds n rows over specs with a share missing of NULL
// cells. Numeric values are spaced 0.01 apart, so a tolerance can make
// neighbours match; text values share all but one of their 3-grams with
// their neighbours.
func kernelRelation(rng *rand.Rand, n int, specs []colSpec, missing float64) *dataset.Relation {
	rel := &dataset.Relation{Name: "kernel"}
	for j, sp := range specs {
		col := dataset.NewColumn("c"+strconv.Itoa(j), sp.typ)
		for v := 0; v < sp.card; v++ {
			col.CodeOf(kernelValue(sp.typ, v))
		}
		for i := 0; i < n; i++ {
			if rng.Float64() < missing {
				col.AppendMissing()
				continue
			}
			col.AppendValue(kernelValue(sp.typ, rng.Intn(sp.domain)))
		}
		rel.Columns = append(rel.Columns, col)
	}
	return rel
}

func kernelValue(typ dataset.Type, v int) string {
	switch typ {
	case dataset.Numeric:
		return strconv.FormatFloat(float64(v)/100, 'f', 2, 64)
	case dataset.Text:
		return fmt.Sprintf("the quick brown fox %03d", v)
	default:
		return "v" + strconv.Itoa(v)
	}
}

// TestPairKernelMatchesOracle compares the byte-packed kernel with the
// int32 oracle word for word over every k and n of the grid, on small
// domains with Missing cells: k below, at and above multiples of 8, n
// below, at and above word boundaries, and the pair that wraps from the
// last sorted position to the first.
func TestPairKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 37, 64, 70}
	for _, k := range ks {
		for _, n := range []int{1, 7, 63, 64, 65, 4097} {
			specs := make([]colSpec, k)
			for j := range specs {
				d := 1 + rng.Intn(6)
				specs[j] = colSpec{typ: dataset.Categorical, domain: d, card: d}
			}
			rel := kernelRelation(rng, n, specs, 0.1)
			t.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(t *testing.T) {
				checkPairKernel(t, rel, Options{Seed: int64(k*7 + n)})
			})
		}
	}
}

// TestPairKernelColumnKinds mixes every kind of column in one relation:
// cardinalities 254 (byte path), 255 and 256 (exception loop), numeric
// tolerance and text similarity (exception loop with the difference
// operator), and small domains, with and without MaxRows sampling.
func TestPairKernelColumnKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	specs := []colSpec{
		{dataset.Categorical, 3, 3},
		{dataset.Categorical, 254, 254},
		{dataset.Categorical, 4, 255},
		{dataset.Numeric, 40, 40},
		{dataset.Categorical, 2, 2},
		{dataset.Categorical, 256, 256},
		{dataset.Text, 30, 30},
		{dataset.Categorical, 5, 5},
		{dataset.Categorical, 3, 256},
		{dataset.Categorical, 2, 2},
		{dataset.Numeric, 3, 3},
	}
	rel := kernelRelation(rng, 900, specs, 0.05)
	for _, c := range []struct {
		name string
		opts TransformOptions
	}{
		{"exact", TransformOptions{}},
		{"tolerance", TransformOptions{NumericTol: 0.03}},
		{"text-similarity", TransformOptions{TextSimilarity: true, NumericTol: 0.03}},
		{"max-rows", TransformOptions{MaxRows: 333, TextSimilarity: true, NumericTol: 0.03}},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkPairKernel(t, rel, Options{Seed: 5, Transform: c.opts})
		})
	}
	// Only wide and approximate columns: the byte matrix is empty.
	t.Run("no-byte-column", func(t *testing.T) {
		checkPairKernel(t, kernelRelation(rng, 300, []colSpec{specs[2], specs[3], specs[5]}, 0.05), Options{Seed: 6})
	})
}

// TestPairKernelCircularPair pins the wrap-around pair on its own: in a
// constant column every pair agrees, the one joining the last sorted
// position to the first included, and in a column of distinct values
// none does.
func TestPairKernelCircularPair(t *testing.T) {
	for _, n := range []int{2, 63, 64, 65, 130} {
		rel := &dataset.Relation{Name: "circular"}
		konst := dataset.NewColumn("const", dataset.Categorical)
		distinct := dataset.NewColumn("distinct", dataset.Categorical)
		for i := 0; i < n; i++ {
			konst.AppendValue("x")
			distinct.AppendValue("v" + strconv.Itoa(i))
		}
		rel.Columns = []*dataset.Column{konst, distinct}
		checkPairKernel(t, rel, Options{Seed: 1})
		pb, err := TransformBitsContext(context.Background(), rel, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 2; s++ {
			last := pb.col(s, 0)[(n-1)/64] >> uint((n-1)%64) & 1
			if last != 1 {
				t.Errorf("n=%d stratum %d: the circular pair's constant-column bit is 0", n, s)
			}
			if got := onesCount(pb.col(s, 1)); got != 0 && n > 2 {
				t.Errorf("n=%d stratum %d: %d distinct-column bits set", n, s, got)
			}
		}
	}
}

// TestPairKernelZeroAlloc is the runtime half of block's zero-allocation
// marker: a full stratum over byte, wide, numeric and text columns
// allocates nothing once the scan and its scratch exist.
func TestPairKernelZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	specs := []colSpec{
		{dataset.Categorical, 4, 4},
		{dataset.Categorical, 300, 300},
		{dataset.Numeric, 40, 40},
		{dataset.Text, 30, 30},
		{dataset.Categorical, 3, 3},
	}
	rel := kernelRelation(rng, 500, specs, 0.05)
	opts := Options{Seed: 3, Transform: TransformOptions{NumericTol: 0.03, TextSimilarity: true}}
	n, k := transformDims(rel, &opts.Transform)
	ps, err := newPairScan(context.Background(), rel, opts, new(dtBuf), newPairBits(n, k, nil))
	if err != nil {
		t.Fatal(err)
	}
	sorted := make([]int, n)
	keys := make([]int32, n)
	for i, r := range ps.rows {
		keys[i] = rel.Columns[2].Code(r)
	}
	sortByCode(sorted, keys, make([]int, rel.Columns[2].Cardinality()+1))
	xacc := make([]uint64, len(ps.exc))
	allocs := testing.AllocsPerRun(10, func() {
		ps.block(2, sorted, 0, n, xacc)
	})
	if allocs != 0 {
		t.Fatalf("pairScan.block allocates %.1f times per stratum, want 0", allocs)
	}
}

// TestKernelBitTricks checks the word tricks against their naive
// definitions: zeroHigh flags exactly the zero bytes, and transposeBytes
// moves byte l of word p to byte p of word l.
func TestKernelBitTricks(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 20000; i++ {
		x := rng.Uint64()
		// Plant zero and 0x80/0x01/0xFF bytes, the carry-prone cases.
		for b := 0; b < 8; b++ {
			switch rng.Intn(5) {
			case 0:
				x &^= 0xFF << (8 * b)
			case 1:
				x = x&^(0xFF<<(8*b)) | 0x80<<(8*b)
			case 2:
				x = x&^(0xFF<<(8*b)) | 0x01<<(8*b)
			case 3:
				x |= 0xFF << (8 * b)
			}
		}
		var want uint64
		for r := 0; r < 8; r++ {
			if x>>(8*r)&0xFF == 0 {
				want |= 0x80 << (8 * r)
			}
		}
		if got := zeroHigh(x); got != want {
			t.Fatalf("zeroHigh(%#016x) = %#016x, want %#016x", x, got, want)
		}
	}
	for i := 0; i < 1000; i++ {
		var m, want [8]uint64
		for p := range m {
			m[p] = rng.Uint64()
		}
		for p := range m {
			for l := range m {
				want[l] |= (m[p] >> (8 * l) & 0xFF) << (8 * p)
			}
		}
		got := m
		if transposeBytes(&got); got != want {
			t.Fatalf("transposeBytes(%#016x) = %#016x, want %#016x", m, got, want)
		}
	}
}

// FuzzPairKernel builds a relation from arbitrary bytes — the first byte
// picks k, the next k bytes each column's kind, the rest the cells — and
// requires the byte-packed kernel to match the oracle word for word.
func FuzzPairKernel(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 1, 2, 3, 0, 4, 5, 6, 7, 8, 9}, int64(1), uint8(0), false)
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2}, int64(2), uint8(2), false)
	f.Add([]byte{5, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, int64(3), uint8(0), true)
	f.Add([]byte{17, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 200, 100, 50, 25, 0, 255}, int64(4), uint8(1), true)
	f.Fuzz(func(t *testing.T, data []byte, seed int64, maxRows uint8, textSim bool) {
		if len(data) < 2 {
			return
		}
		k := 1 + int(data[0])%24
		if len(data) < 1+k {
			return
		}
		kinds, cells := data[1:1+k], data[1+k:]
		n := min(len(cells)/k, 600)
		if n == 0 {
			return
		}
		rel := &dataset.Relation{Name: "fuzz"}
		for j, kind := range kinds {
			var sp colSpec
			switch kind % 9 {
			case 0, 1, 2, 3:
				sp = colSpec{dataset.Categorical, 1 + int(kind)%7, 0}
			case 4:
				sp = colSpec{dataset.Categorical, 1 + int(kind)%5, 254 + int(kind)%3}
			case 5:
				sp = colSpec{dataset.Categorical, 256, 256}
			case 6:
				sp = colSpec{dataset.Numeric, 50, 0}
			case 7:
				sp = colSpec{dataset.Text, 20, 0}
			default:
				sp = colSpec{dataset.Categorical, 255, 0}
			}
			col := dataset.NewColumn("c"+strconv.Itoa(j), sp.typ)
			for v := 0; v < sp.card; v++ {
				col.CodeOf(kernelValue(sp.typ, v))
			}
			for i := 0; i < n; i++ {
				// Byte 0 is a NULL; the rest pick a value.
				if b := cells[i*k+j]; b == 0 {
					col.AppendMissing()
				} else {
					col.AppendValue(kernelValue(sp.typ, int(b)%sp.domain))
				}
			}
			rel.Columns = append(rel.Columns, col)
		}
		checkPairKernel(t, rel, Options{Seed: seed, Transform: TransformOptions{
			MaxRows:        int(maxRows),
			NumericTol:     0.02,
			TextSimilarity: textSim,
		}})
	})
}
