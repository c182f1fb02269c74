package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"

	"fdx/internal/dataset"
	"fdx/internal/faults"
	"fdx/internal/fdxerr"
	"fdx/internal/linalg"
	"fdx/internal/obs"
)

// TransformOptions configures the tuple-pair transformation (paper Alg. 2).
// The shuffle seed and the telemetry sinks are the pipeline's (Options.Seed
// and Options.Obs).
type TransformOptions struct {
	// MaxRows caps the number of input tuples used (0 = all). When the
	// input is larger, a uniform row sample is taken first; the paper
	// notes sampling as the remedy for the transform's self-join cost on
	// large instances (§5.4).
	MaxRows int
	// NumericTol is the relative tolerance for numeric approximate
	// equality, as a fraction of the column's value scale (default 1e-9,
	// i.e. effectively exact).
	NumericTol float64
	// TextSimilarity enables Jaccard 3-gram similarity ≥ textThreshold as
	// the text difference operator; otherwise text compares exactly.
	TextSimilarity bool
	// Workers sets the number of goroutines processing attribute blocks,
	// and of the batch count covariance over the resulting bit store
	// (0 = GOMAXPROCS, 1 = sequential). Each attribute's sorted block is
	// independent, so the output is identical at any worker count.
	Workers int
}

// textThreshold is the 3-gram Jaccard similarity at or above which two text
// values are considered equal under TextSimilarity.
const textThreshold = 0.9

// defaults fills unset fields. (fdx:numeric-kernel: the exact zero value is
// the "unset" sentinel on option fields, never a computed float.)
func (o *TransformOptions) defaults() {
	if o.NumericTol == 0 {
		o.NumericTol = 1e-9
	}
}

// TransformContext is the float view of TransformBitsContext at seed 0
// with no telemetry — the bit store unpacked into an n·k × k sample block
// (PairBits.Dense) — for callers that bring their own float estimators;
// the pipeline itself consumes the bits. No production path calls it: it
// stays exported for the benchmark's traced run.
func TransformContext(ctx context.Context, rel *dataset.Relation, opts TransformOptions) (*linalg.Dense, error) {
	pb, err := TransformBitsContext(ctx, rel, Options{Transform: opts})
	if err != nil {
		return nil, err
	}
	return pb.Dense(), nil
}

// TransformBitsContext implements Algorithm 2 into the bit-packed sample
// store (see PairBits) under opts.Transform, shuffling with opts.Seed and
// reporting to opts.Obs: for every attribute, sort the (shuffled) relation
// by that attribute, pair each tuple with its successor under a circular
// shift, and record per pair which attributes agree — k strata of n pairs.
//
// Missing cells never match anything (including other missing cells): an
// unknown value gives no evidence that the pair agrees. Workers poll the
// context between attribute blocks and every few thousand pair rows, and
// a wrapped ctx.Err() is returned promptly on expiry.
func TransformBitsContext(ctx context.Context, rel *dataset.Relation, opts Options) (*PairBits, error) {
	opts.Transform.defaults()
	n, k := transformDims(rel, &opts.Transform)
	pb := newPairBits(n, k, nil)
	if n == 0 || k == 0 {
		return pb, nil
	}
	if err := transformInto(ctx, rel, opts, pb); err != nil {
		return nil, err
	}
	return pb, nil
}

// transformDims returns the shape of the transform's sample block: the
// effective tuple count after MaxRows sampling and the attribute count.
// The unpacked block is (rows·cols) × cols. opts must have defaults
// applied.
func transformDims(rel *dataset.Relation, opts *TransformOptions) (rows, cols int) {
	rows, cols = rel.NumRows(), rel.NumCols()
	if opts.MaxRows > 0 && rows > opts.MaxRows {
		rows = opts.MaxRows
	}
	return rows, cols
}

// colCtx is the per-attribute comparison context shared by the transform
// workers: the column, its numeric tolerance scale, and — for text
// columns under TextSimilarity — per-dictionary-code 3-gram sets built
// once up front, so the pair loop never allocates.
type colCtx struct {
	col   *dataset.Column
	scale float64
	grams *textGrams
}

// pollPairs is the transform's cancellation cadence: workers check the
// context every pollPairs pairs of an attribute block. A multiple of 64,
// so every poll falls on a word boundary of the bit store.
const pollPairs = 4096

// transformInto is the core of the pair transform, writing the bit-packed
// sample block into out (shape per transformDims; every word is written,
// so recycled buffers need no zeroing). opts.Transform must have defaults
// applied.
func transformInto(ctx context.Context, rel *dataset.Relation, opts Options, out *PairBits) error {
	tsp := opts.Obs.StartStage("transform")
	defer tsp.End()
	n := rel.NumRows()
	k := rel.NumCols()
	rng := rand.New(rand.NewSource(opts.Seed))

	bufs := dtPool.Get().(*dtBuf)
	defer dtPool.Put(bufs)
	rows := grow(&bufs.ints, n)
	for i := range rows {
		rows[i] = i
	}
	rng.Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	if m := opts.Transform.MaxRows; m > 0 && n > m {
		rows = rows[:m]
		n = m
	}

	// Pre-compute the per-column comparison contexts — numeric scales for
	// approximate equality, 3-gram sets per distinct text value — and a
	// row-major copy of the sampled tuples' codes: position i (tuple
	// rows[i]) holds its k codes contiguously, so a pair reads both
	// tuples from two short runs instead of 2k scattered column cells.
	ps := &pairScan{k: k, rows: rows, codes: grow(&bufs.codes, n*k), ctxs: make([]colCtx, k), opts: &opts.Transform, out: out}
	maxCard := 0
	for j, col := range rel.Columns {
		// Building a text column's 3-gram sets scans every distinct value;
		// honor cancellation between columns.
		if err := ctx.Err(); err != nil {
			return fdxerr.Cancelled(err)
		}
		ps.ctxs[j].col = col
		if col.Type == dataset.Numeric {
			ps.ctxs[j].scale = numericScale(col, rows)
			ps.approx = append(ps.approx, j)
		}
		if col.Type == dataset.Text && opts.Transform.TextSimilarity {
			ps.ctxs[j].grams = buildTextGrams(col)
			ps.approx = append(ps.approx, j)
		}
		if c := col.Cardinality(); c > maxCard {
			maxCard = c
		}
		codes := col.Codes()
		for i, r := range rows {
			ps.codes[i*k+j] = codes[r]
		}
	}

	workers := min(resolveWorkers(opts.Transform.Workers), k)
	tsp.Attr("rows", n)
	tsp.Attr("attrs", k)
	tsp.Attr("workers", workers)
	var wg sync.WaitGroup
	attrCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One span per worker, on its own viewer track so parallel
			// workers fan out as lanes in the trace.
			wsp := tsp.Child("worker")
			wsp.SetTrack(w + 2)
			defer wsp.End()
			wbufs := dtPool.Get().(*dtBuf)
			defer dtPool.Put(wbufs)
			sorted := grow(&wbufs.ints, n)
			keys := grow(&wbufs.codes, n)
			counts := grow(&wbufs.counts, maxCard+1)
			acc := grow(&wbufs.words, k)
			for attr := range attrCh {
				// Cancelled: keep draining the channel so the feeder never
				// blocks, but stop doing work.
				if ctx.Err() != nil {
					continue
				}
				bsp := wsp.Child("block")
				bsp.Attr("attr", rel.Columns[attr].Name)
				faults.Sleep(faults.SlowStage)
				for i := range keys {
					keys[i] = ps.codes[i*k+attr]
				}
				sortByCode(sorted, keys, counts[:rel.Columns[attr].Cardinality()+1])
				for j0 := 0; j0 < n; j0 += pollPairs {
					if ctx.Err() != nil {
						break
					}
					ps.block(attr, sorted, j0, min(j0+pollPairs, n), acc)
				}
				bsp.End()
			}
		}(w)
	}
	for attr := 0; attr < k; attr++ {
		attrCh <- attr
	}
	close(attrCh)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return fdxerr.Cancelled(err)
	}
	opts.Obs.Count(obs.MTransformPairs, uint64(n)*uint64(k))
	return nil
}

// dtPool recycles the transform's working memory — the streaming path
// transforms every batch, and with it pooled its steady state allocates
// little beyond each batch's delta. Every buffer is fully rewritten before
// it is read, so recycled ones need no zeroing (counts and the word
// accumulators are reset where they are used).
var dtPool = sync.Pool{New: func() any { return new(dtBuf) }}

// dtBuf is one user's working memory for a transform: the coordinator's
// sampled rows and row-major codes, a worker's sort order, sort keys,
// counting-sort counts and word accumulators, or Absorb's bit store.
type dtBuf struct {
	ints, counts []int
	codes        []int32
	words        []uint64
}

// grow returns (*buf)[:n], reallocating *buf when it is too short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// pairScan is the read-only state the transform workers share: the
// sampled tuples (rows) and their row-major codes, the comparison
// contexts, the attributes whose unequal codes may still match (numeric
// tolerance, text similarity), and the output store.
type pairScan struct {
	k      int
	rows   []int
	codes  []int32
	ctxs   []colCtx
	approx []int
	opts   *TransformOptions
	out    *PairBits
}

// block writes stratum attr's bits for pairs [j0, j1), where pair j joins
// sorted positions j and j+1 (circularly). j0 is a multiple of 64, so
// the block covers whole words of every column (the last one zero-padded
// past the stratum's end); acc is a length-k scratch of word
// accumulators. Panics if acc is not length k.
func (ps *pairScan) block(attr int, sorted []int, j0, j1 int, acc []uint64) {
	k, n := ps.k, len(sorted)
	if len(acc) != k {
		panic("core: pairScan.block accumulator is not length k")
	}
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
			ra := ps.codes[pa*k : pa*k+k]
			rb := ps.codes[pb*k : pb*k+k]
			rb, acc := rb[:len(ra)], acc[:len(ra)]
			sh := uint(j-w0) & 63
			for l, ca := range ra {
				// Branch-free: 1 iff the codes are equal and not Missing
				// (−1, the only negative code).
				same := (uint64(uint32(ca^rb[l])) - 1) >> 63
				present := ^uint64(int64(ca)) >> 63
				acc[l] |= (same & present) << sh
			}
			for _, l := range ps.approx {
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

// sortByCode writes the positions 0..len(keys)-1 into dst stably ordered
// by their dictionary codes in keys, Missing (−1) first: a counting sort
// over code+1, producing exactly the permutation sort.SliceStable gives
// under keys[a] < keys[b]. counts needs one slot per code+1 (the column's
// cardinality plus one). Panics if dst and keys differ in length.
func sortByCode(dst []int, keys []int32, counts []int) {
	if len(dst) != len(keys) {
		panic("core: sortByCode destination and keys differ in length")
	}
	for i := range counts {
		counts[i] = 0
	}
	for _, c := range keys {
		counts[c+1]++
	}
	pos := 0
	for i, c := range counts {
		counts[i] = pos
		pos += c
	}
	for i, c := range keys {
		dst[counts[c+1]] = i
		counts[c+1]++
	}
}

// numericScale returns a robust per-column value scale (max−min over the
// sampled rows) used for relative numeric tolerance.
// (fdx:numeric-kernel: max == min is the degenerate constant-column
// sentinel; any genuinely tiny range is still a valid scale.)
func numericScale(col *dataset.Column, rows []int) float64 {
	min, max := math.Inf(1), math.Inf(-1)
	for _, i := range rows {
		v := col.Float(i)
		if math.IsNaN(v) {
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if math.IsInf(min, 1) || max == min {
		return 1
	}
	return max - min
}

// cellsEqual is the per-type difference operator of §4.1 on tuples a and
// b with codes ca and cb: exact code equality for categorical data,
// tolerance-based equality for numeric data, optional q-gram similarity
// for text (against the precomputed per-code gram sets in cc).
func cellsEqual(cc *colCtx, a, b int, ca, cb int32, opts *TransformOptions) bool {
	if ca == dataset.Missing || cb == dataset.Missing {
		return false
	}
	if ca == cb {
		return true
	}
	col := cc.col
	switch col.Type {
	case dataset.Numeric:
		fa, fb := col.Float(a), col.Float(b)
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return false
		}
		return math.Abs(fa-fb) <= opts.NumericTol*cc.scale
	case dataset.Text:
		if cc.grams == nil {
			return false
		}
		return cc.grams.jaccard(ca, cb) >= textThreshold
	default:
		return false
	}
}

// textGrams caches, per dictionary code of one text column, the
// case-folded value and its 3-gram set (nil for values shorter than one
// gram). Built once per transform so the pair loop compares precomputed
// sets instead of re-deriving them per pair.
type textGrams struct {
	lower []string
	grams []map[string]bool
}

func buildTextGrams(col *dataset.Column) *textGrams {
	card := col.Cardinality()
	tg := &textGrams{lower: make([]string, card), grams: make([]map[string]bool, card)}
	for c := 0; c < card; c++ {
		s := strings.ToLower(col.DictValue(int32(c)))
		tg.lower[c] = s
		if len(s) >= 3 {
			tg.grams[c] = gramSet(s)
		}
	}
	return tg
}

// jaccard returns the Jaccard similarity of the 3-gram sets of two
// dictionary codes' case-folded values: short values fall back to exact
// (case-folded) comparison.
func (tg *textGrams) jaccard(ca, cb int32) float64 {
	ga, gb := tg.grams[ca], tg.grams[cb]
	if ga == nil || gb == nil {
		if tg.lower[ca] == tg.lower[cb] {
			return 1
		}
		return 0
	}
	inter := 0
	for g := range ga {
		if gb[g] {
			inter++
		}
	}
	union := len(ga) + len(gb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func gramSet(s string) map[string]bool {
	out := make(map[string]bool, len(s))
	for i := 0; i+3 <= len(s); i++ {
		out[s[i:i+3]] = true
	}
	return out
}
