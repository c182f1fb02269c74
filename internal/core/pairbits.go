package core

import (
	"math/bits"
	"runtime"

	"fdx/internal/linalg"
	"fdx/internal/par"
	"fdx/internal/stats"
)

// PairBits is the pair transform's sample block (paper Alg. 2) stored one
// bit per cell. The transform emits only 0/1 equality indicators, so the
// block is k strata (one per attribute sort order) of k column bitsets,
// each n bits long: bit j of column l in stratum s says whether the j-th
// adjacent pair under attribute s's sort order agrees on attribute l.
//
// Every statistic the pipeline needs from the samples is a count — a
// column's ones (its sum) and two columns' common ones (their raw
// co-moment) — and comes from bits.OnesCount64 over the packed words.
// Those integers are exactly what a float64 accumulation of the 0/1 cells
// would hold, so the covariances below are bit-identical to
// stats.StratifiedCovariance / stats.Covariance of the unpacked block
// (Dense) at 1/64 of its memory.
type PairBits struct {
	// n is the pair count per stratum, k the attribute (= stratum) count,
	// words the uint64 words per column bitset (⌈n/64⌉).
	n, k, words int
	// bits holds the column bitsets, stratum-major: column l of stratum s
	// is bits[(s·k+l)·words : (s·k+l+1)·words]. Bits past n in a column's
	// last word are zero.
	bits []uint64
}

// newPairBits returns an n-pair, k-attribute bit store backed by buf when
// it has the capacity (recycled buffers need no zeroing: the transform
// writes every word), else by a fresh slice.
func newPairBits(n, k int, buf []uint64) *PairBits {
	words := (n + 63) / 64
	size := k * k * words
	if cap(buf) < size {
		buf = make([]uint64, size)
	}
	return &PairBits{n: n, k: k, words: words, bits: buf[:size]}
}

// col returns the bitset of column l in stratum s.
func (pb *PairBits) col(s, l int) []uint64 {
	off := (s*pb.k + l) * pb.words
	return pb.bits[off : off+pb.words]
}

// Dense unpacks the store into the float sample block that float
// estimators such as stats.StratifiedCovariance consume: row s·n+j is the
// j-th pair of stratum s, with 1 in every agreeing column. No production
// path calls it: it backs TransformContext, which stays exported for the
// benchmark's traced run (_perfbench) and the tests' float reference.
func (pb *PairBits) Dense() *linalg.Dense {
	out := linalg.NewDense(pb.n*pb.k, pb.k)
	for s := 0; s < pb.k; s++ {
		for l := 0; l < pb.k; l++ {
			for w, word := range pb.col(s, l) {
				for ; word != 0; word &= word - 1 {
					out.Set(s*pb.n+w*64+bits.TrailingZeros64(word), l, 1)
				}
			}
		}
	}
	return out
}

// onesCount returns the number of set bits in a.
//
// fdx:zero-alloc — verified statically by the hotalloc analyzer and at
// runtime by TestAccumulateStratumZeroAlloc.
func onesCount(a []uint64) int {
	c := 0
	for _, x := range a {
		c += bits.OnesCount64(x)
	}
	return c
}

// andCount returns the number of bits set in both a and b — the
// co-occurrence count of two indicator columns. Panics if b is shorter
// than a.
//
// fdx:zero-alloc — verified statically by the hotalloc analyzer and at
// runtime by TestAccumulateStratumZeroAlloc.
func andCount(a, b []uint64) int {
	b = b[:len(a)]
	c := 0
	for i, x := range a {
		c += bits.OnesCount64(x & b[i])
	}
	return c
}

// triIndex returns the position of entry (a, b), a ≤ b, of a symmetric
// k×k matrix stored as its packed upper triangle, row by row.
func triIndex(k, a, b int) int {
	return a*k - a*(a-1)/2 + b - a
}

// momentRows counts rows [lo, hi) of moments: for every stratum s and row
// a it sets sums[s·k+a] to column a's ones in stratum s (which is also its
// co-occurrence with itself) and adds the stratum's co-occurrence counts
// of columns a and b ≥ a to co[triIndex(k, a, b)]. Panics if sums or co
// is too short.
//
// fdx:zero-alloc — verified statically by the hotalloc analyzer and at
// runtime by TestAccumulateStratumZeroAlloc.
func (pb *PairBits) momentRows(lo, hi int, sums, co []uint64) {
	k := pb.k
	for s := 0; s < k; s++ {
		for a := lo; a < hi; a++ {
			ca := pb.col(s, a)
			row := co[triIndex(k, a, a) : triIndex(k, a, k-1)+1]
			d := uint64(onesCount(ca))
			sums[s*k+a] = d
			row[0] += d
			for b := a + 1; b < k; b++ {
				row[b-a] += uint64(andCount(ca, pb.col(s, b)))
			}
		}
	}
}

// moments returns the store's counts: sums is k×k, row s holding stratum
// s's column sums, and co the packed upper triangle (triIndex) of the
// co-occurrence counts summed over strata. One pass fans out over row
// chunks (workers < 2 runs serially); the counts never depend on it.
func (pb *PairBits) moments(workers int) (sums, co []uint64) {
	k := pb.k
	sums = make([]uint64, k*k)
	co = make([]uint64, k*(k+1)/2)
	pool := par.New(workers)
	pool.For(k, covRowChunk, func(lo, hi int) { pb.momentRows(lo, hi, sums, co) })
	pool.Close()
	return sums, co
}

// StratifiedCovariance is stats.StratifiedCovariance of the unpacked
// block with one stratum per attribute, computed from counts: each
// stratum's entry is stats.CenteredMoment of its co-occurrence count and
// column sums over n pairs, summed over strata in ascending order, and
// the total scaled by 1/k — the float path's exact sequence of
// operations, so the result is bit-identical to it. One stratum falls
// back to the pooled estimate, as the float path does.
//
// The work fans out over output rows, not strata: each chunk of rows
// walks every stratum in ascending order, so no per-stratum k×k
// matrices are held and the result is identical at any worker count
// (0 = GOMAXPROCS).
func (pb *PairBits) StratifiedCovariance(workers int) *linalg.Dense {
	n, k := pb.n, pb.k
	if k <= 1 {
		return pb.Covariance(workers)
	}
	out := linalg.NewDense(k, k)
	if n == 0 {
		return out
	}
	// Per-stratum column sums (exact integers in float64).
	colSums := make([]float64, k*k)
	for s := 0; s < k; s++ {
		for l := 0; l < k; l++ {
			colSums[s*k+l] = float64(onesCount(pb.col(s, l)))
		}
	}
	inv := 1 / float64(n)
	pool := par.New(resolveWorkers(workers))
	pool.For(k, covRowChunk, func(lo, hi int) {
		for s := 0; s < k; s++ {
			ss := colSums[s*k : (s+1)*k]
			for a := lo; a < hi; a++ {
				ca := pb.col(s, a)
				row := out.Row(a)
				for b := a; b < k; b++ {
					c := float64(andCount(ca, pb.col(s, b)))
					row[b] += stats.CenteredMoment(c, ss[a], ss[b], inv, b == a)
				}
			}
		}
	})
	pool.Close()
	scale := 1 / float64(k)
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			v := out.At(a, b) * scale
			out.Set(a, b, v)
			out.Set(b, a, v)
		}
	}
	return out
}

// Covariance is stats.Covariance of the unpacked block: all n·k pairs
// pooled into one estimate, from the counts of moments. Every count is an
// exact integer in float64, so the result is bit-identical to the float
// path. It exists for the PooledCovariance ablation.
func (pb *PairBits) Covariance(workers int) *linalg.Dense {
	n, k := pb.n, pb.k
	out := linalg.NewDense(k, k)
	if n == 0 || k == 0 {
		return out
	}
	sums, co := pb.moments(resolveWorkers(workers))
	totals := make([]float64, k)
	for i, v := range sums {
		totals[i%k] += float64(v)
	}
	inv := 1 / float64(n*k)
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			v := stats.CenteredMoment(float64(co[triIndex(k, a, b)]), totals[a], totals[b], inv, b == a)
			out.Set(a, b, v)
			out.Set(b, a, v)
		}
	}
	return out
}

// covRowChunk is the output-row chunk of the count passes: enough rows
// that a stratum's columns stay cache-hot across them, few enough that the
// triangular row costs still balance across workers. Chunking never
// changes the result (every entry is produced by one chunk, strata in
// fixed order).
const covRowChunk = 8

// resolveWorkers maps a worker count of 0 or less to GOMAXPROCS.
func resolveWorkers(workers int) int {
	if workers <= 0 {
		//fdx:lint-ignore detsource worker count only; each entry is one chunk's fixed-order sum, identical at any count
		workers = runtime.GOMAXPROCS(0)
	}
	return workers
}
