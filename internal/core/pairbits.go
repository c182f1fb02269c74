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

// stratumMoments writes stratum s's sufficient statistics: sums[p] is
// column p's count of ones and outer[p][q] the co-occurrence count of
// columns p and q, as float64 integers — exactly the values a float
// accumulation of the stratum's 0/1 sample rows holds. Panics if sums is
// not length k or outer not k×k.
//
// fdx:zero-alloc — verified statically by the hotalloc analyzer and at
// runtime by TestAccumulateStratumZeroAlloc.
func (pb *PairBits) stratumMoments(s int, sums []float64, outer *linalg.Dense) {
	k := pb.k
	if r, c := outer.Dims(); r != k || c != k || len(sums) != k {
		panic("core: stratumMoments operand shapes disagree")
	}
	for p := 0; p < k; p++ {
		cp := pb.col(s, p)
		sums[p] = float64(onesCount(cp))
		row := outer.Row(p)
		for q := p; q < k; q++ {
			row[q] = float64(andCount(cp, pb.col(s, q)))
		}
	}
	for p := 0; p < k; p++ {
		for q := p + 1; q < k; q++ {
			outer.Set(q, p, outer.At(p, q))
		}
	}
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
	return pb.covariance(pb.k <= 1, workers)
}

// Covariance is stats.Covariance of the unpacked block: all n·k pairs
// pooled into one estimate, bit-identical to the float path. It exists for
// the PooledCovariance ablation.
func (pb *PairBits) Covariance(workers int) *linalg.Dense {
	return pb.covariance(true, workers)
}

// covRowChunk is the output-row chunk of the count covariance: enough rows
// that a stratum's columns stay cache-hot across them, few enough that the
// triangular row costs still balance across workers. Chunking never
// changes the result (every entry is produced by one chunk, strata in
// fixed order).
const covRowChunk = 8

// covariance computes the stratified (or pooled) covariance from counts;
// see StratifiedCovariance.
func (pb *PairBits) covariance(pooled bool, workers int) *linalg.Dense {
	n, k := pb.n, pb.k
	out := linalg.NewDense(k, k)
	if n == 0 || k == 0 {
		return out
	}
	// Per-stratum column sums, and their pooled totals (exact integer
	// sums in float64).
	colSums := make([]float64, k*k)
	totals := make([]float64, k)
	for s := 0; s < k; s++ {
		for l := 0; l < k; l++ {
			c := float64(onesCount(pb.col(s, l)))
			colSums[s*k+l] = c
			totals[l] += c
		}
	}
	inv := 1 / float64(n)
	if pooled {
		inv = 1 / float64(n*k)
	}
	if workers <= 0 {
		//fdx:lint-ignore detsource worker count only; each entry is one chunk's fixed-order sum, identical at any count
		workers = runtime.GOMAXPROCS(0)
	}
	pool := par.New(workers)
	pool.For(k, covRowChunk, func(lo, hi int) {
		for s := 0; s < k; s++ {
			ss := colSums[s*k : (s+1)*k]
			for a := lo; a < hi; a++ {
				ca := pb.col(s, a)
				row := out.Row(a)
				for b := a; b < k; b++ {
					c := float64(andCount(ca, pb.col(s, b)))
					if pooled {
						row[b] += c // raw co-moment, centered below
					} else {
						row[b] += stats.CenteredMoment(c, ss[a], ss[b], inv, b == a)
					}
				}
			}
		}
		if pooled {
			for a := lo; a < hi; a++ {
				row := out.Row(a)
				for b := a; b < k; b++ {
					row[b] = stats.CenteredMoment(row[b], totals[a], totals[b], inv, b == a)
				}
			}
		}
	})
	pool.Close()
	scale := 1.0
	if !pooled {
		scale = 1 / float64(k)
	}
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			v := out.At(a, b) * scale
			out.Set(a, b, v)
			out.Set(b, a, v)
		}
	}
	return out
}
