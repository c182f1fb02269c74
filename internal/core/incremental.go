package core

import (
	"context"
	"fmt"

	"fdx/internal/dataset"
	"fdx/internal/fdxerr"
	"fdx/internal/linalg"
	"fdx/internal/obs"
)

// Accumulator maintains the sufficient statistics of the FDX pair model
// across appended batches of tuples, so dependencies can be re-derived
// after every batch without retransforming history — the dynamic-data
// direction the paper's related work (DynFD) motivates.
//
// Each batch is transformed on its own (Alg. 2 within the batch) and its
// sample counts are folded into running integer sums; the per-stratum
// covariances are then pooled exactly as in batch discovery. Pairs never
// span batches, so the estimate is an approximation of the full recompute
// that converges as batches grow; Discover on the concatenation remains
// the reference semantics.
//
// The samples are 0/1 and every stratum holds the same number of pairs N,
// so the pooled stratified covariance
//
//	(1/k)·Σ_s [C_s/N − m_s m_sᵀ] = ΣC_s/(kN) − (1/k)·Σ_s m_s m_sᵀ, m_s = S_s/N,
//
// needs only N, each stratum's column sums S_s and the co-occurrence
// counts C_s summed over strata — k² + k(k+1)/2 integers, not k outer
// products.
type Accumulator struct {
	names []string
	opts  Options

	// pairs is the pair count of every stratum; sums is k×k, row s holding
	// stratum s's column sums; co is the packed upper triangle (triIndex)
	// of the co-occurrence counts summed over strata.
	pairs uint64
	sums  []uint64
	co    []uint64

	rows    int
	batches int
	// ranges is the accumulator's batch coverage: the sorted, disjoint,
	// coalesced set of half-open global-batch intervals it has absorbed.
	// A plain sequential stream covers [0, batches); a shard covers its
	// assigned span. Merge refuses overlapping coverage — the same global
	// batch folded twice would silently double its statistics.
	ranges []BatchRange
}

// BatchRange is a half-open interval [Lo, Hi) of global batch indices.
// The global index identifies a batch's position in the full stream's
// batch grid: it seeds the batch's transform (Options.Seed + index), so
// any shard assignment of the same grid produces bit-identical deltas.
type BatchRange struct {
	Lo, Hi int
}

// rangesCovered reports whether global batch g lies inside the coverage.
func rangesCovered(rs []BatchRange, g int) bool {
	for _, r := range rs {
		if g < r.Lo {
			return false
		}
		if g < r.Hi {
			return true
		}
	}
	return false
}

// rangesInsert adds the single batch [g, g+1) to the coverage, keeping it
// sorted, disjoint, and coalesced. The caller has already checked g is not
// covered.
func rangesInsert(rs []BatchRange, g int) []BatchRange {
	i := 0
	for i < len(rs) && rs[i].Hi < g {
		i++
	}
	// rs[i] is the first range with Hi >= g (if any).
	switch {
	case i < len(rs) && rs[i].Hi == g:
		rs[i].Hi = g + 1
		if i+1 < len(rs) && rs[i+1].Lo == g+1 {
			rs[i].Hi = rs[i+1].Hi
			rs = append(rs[:i+1], rs[i+2:]...)
		}
		return rs
	case i < len(rs) && rs[i].Lo == g+1:
		rs[i].Lo = g
		return rs
	default:
		rs = append(rs, BatchRange{})
		copy(rs[i+1:], rs[i:])
		rs[i] = BatchRange{Lo: g, Hi: g + 1}
		return rs
	}
}

// rangesUnion merges two coverages into canonical form, reporting whether
// they intersect anywhere.
func rangesUnion(a, b []BatchRange) (union []BatchRange, overlap bool) {
	merged := make([]BatchRange, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var next BatchRange
		if j >= len(b) || (i < len(a) && a[i].Lo <= b[j].Lo) {
			next = a[i]
			i++
		} else {
			next = b[j]
			j++
		}
		if n := len(merged); n > 0 && next.Lo <= merged[n-1].Hi {
			if next.Lo < merged[n-1].Hi {
				overlap = true
			}
			if next.Hi > merged[n-1].Hi {
				merged[n-1].Hi = next.Hi
			}
			continue
		}
		merged = append(merged, next)
	}
	return merged, overlap
}

// rangesContainAll reports whether coverage a contains every batch of b.
func rangesContainAll(a, b []BatchRange) bool {
	i := 0
	for _, r := range b {
		for i < len(a) && a[i].Hi <= r.Lo {
			i++
		}
		if i >= len(a) || r.Lo < a[i].Lo || r.Hi > a[i].Hi {
			return false
		}
	}
	return true
}

// rangesBatches sums the coverage's batch count.
func rangesBatches(rs []BatchRange) int {
	n := 0
	for _, r := range rs {
		n += r.Hi - r.Lo
	}
	return n
}

// validRanges reports whether rs is canonical: sorted, disjoint,
// coalesced (no two adjacent intervals touch), with non-negative bounds.
func validRanges(rs []BatchRange) bool {
	prev := -1
	for _, r := range rs {
		if r.Lo < 0 || r.Hi <= r.Lo || r.Lo <= prev {
			return false
		}
		prev = r.Hi
	}
	return true
}

// NewAccumulator creates an accumulator for relations with the given
// attribute names.
func NewAccumulator(attrNames []string, opts Options) *Accumulator {
	k := len(attrNames)
	return &Accumulator{
		names: append([]string(nil), attrNames...),
		opts:  opts,
		sums:  make([]uint64, k*k),
		co:    make([]uint64, k*(k+1)/2),
	}
}

// Rows returns the total number of tuples absorbed.
func (a *Accumulator) Rows() int { return a.rows }

// Batches returns the number of Add calls absorbed.
func (a *Accumulator) Batches() int { return a.batches }

// BatchDelta is the statistics contribution of one absorbed batch — the
// unit the durable-streaming WAL (internal/checkpoint) logs and replays.
// Applying a snapshot's state and then each logged delta in sequence
// reproduces the accumulator bit-for-bit, because Absorb folds the live
// batch through the identical ApplyDelta path.
type BatchDelta struct {
	// Seq is the accumulator's batch count after applying this delta
	// (1-based); deltas apply strictly in sequence.
	Seq int
	// Global is the batch's 0-based index in the full stream's batch grid.
	// It seeded the batch's transform (Options.Seed + Global) and extends
	// the accumulator's coverage; for an unsharded stream it is Seq-1.
	Global int
	// Rows is the batch's tuple count. Every stratum gains one pair per
	// tuple the transform used: Rows, capped at Transform.MaxRows.
	Rows int
	// Sums is k×k: row s holds the batch's column sums in stratum s.
	Sums []uint64
	// Co is the packed upper triangle of the batch's co-occurrence counts,
	// summed over strata: k(k+1)/2 entries, row by row.
	Co []uint64
}

// Add transforms one batch of tuples and folds its statistics in. The
// batch must have the accumulator's schema (same attribute names, in
// order) and at least two rows (a single row forms no pairs).
func (a *Accumulator) Add(rel *dataset.Relation) error {
	_, err := a.Absorb(rel)
	return err
}

// Absorb is Add returning the batch's statistics delta, so durable callers
// can log exactly what was folded in and replay it after a crash. The
// batch lands at the next uncovered global index (NextGlobal), which for a
// plain sequential stream is simply the batch count.
func (a *Accumulator) Absorb(rel *dataset.Relation) (*BatchDelta, error) {
	return a.AbsorbAt(rel, a.NextGlobal())
}

// NextGlobal returns the global batch index Absorb would assign next: one
// past the accumulator's last covered batch (0 when empty). A shard
// worker resuming its span continues at its span's start plus its batch
// count, which is exactly this value once the first span batch lands.
func (a *Accumulator) NextGlobal() int {
	if len(a.ranges) == 0 {
		return 0
	}
	return a.ranges[len(a.ranges)-1].Hi
}

// Coverage returns a copy of the accumulator's batch coverage: the
// sorted, disjoint global-batch intervals it has absorbed.
func (a *Accumulator) Coverage() []BatchRange {
	return append([]BatchRange(nil), a.ranges...)
}

// AbsorbAt is Absorb at an explicit global batch index — the sharding
// entry point. The transform seed is Options.Seed + global, a function of
// the batch's position in the full stream's grid and nothing else, so the
// delta is bit-identical no matter which shard absorbs the batch. The
// index must not already be covered.
func (a *Accumulator) AbsorbAt(rel *dataset.Relation, global int) (*BatchDelta, error) {
	if rel == nil {
		return nil, fdxerr.BadInput("core: nil batch")
	}
	if global < 0 {
		return nil, fdxerr.BadInput("core: negative global batch index %d", global)
	}
	if rangesCovered(a.ranges, global) {
		return nil, fdxerr.BadInput("core: global batch %d is already absorbed", global)
	}
	k := len(a.names)
	if rel.NumCols() != k {
		return nil, fdxerr.BadInput("core: batch has %d attributes, accumulator has %d", rel.NumCols(), k)
	}
	for i, n := range rel.AttrNames() {
		if n != a.names[i] {
			return nil, fdxerr.BadInput("core: batch attribute %d is %q, want %q", i, n, a.names[i])
		}
	}
	n := rel.NumRows()
	if n < 2 {
		return nil, fdxerr.BadInput("core: batch needs at least 2 rows, got %d", n)
	}
	// Each batch is its own trace tree: the stream loop may absorb
	// thousands, so they stay roots rather than children of one giant span.
	bsp := a.opts.Obs.Start("absorb-batch")
	defer bsp.End()
	bsp.Attr("seq", a.batches+1)
	bsp.Attr("global", global)
	bsp.Attr("rows", n)
	h := a.opts.Obs.Under(bsp)
	bopts := a.opts
	bopts.Transform.defaults()
	bopts.Seed += int64(global)
	bopts.Obs = h
	sn, _ := transformDims(rel, &bopts.Transform)
	// The bit store's buffer is recycled through dtPool.
	db := dtPool.Get().(*dtBuf)
	pb := newPairBits(sn, k, db.words)
	db.words = pb.bits
	if err := transformInto(context.Background(), rel, bopts, pb); err != nil {
		return nil, err
	}
	d := &BatchDelta{Seq: a.batches + 1, Global: global, Rows: n}
	asp := h.StartStage("accumulate")
	d.Sums, d.Co = pb.moments(1)
	dtPool.Put(db)
	asp.End()
	if err := a.ApplyDelta(d); err != nil {
		return nil, err
	}
	h.Count(obs.MRowsAbsorbed, uint64(n))
	h.Count(obs.MBatchesAbsorbed, 1)
	return d, nil
}

// ApplyDelta folds a batch's statistics delta into the running sums — the
// WAL replay path. The delta must be the next one in sequence (Seq equal
// to Batches()+1) and match the accumulator's dimensionality.
func (a *Accumulator) ApplyDelta(d *BatchDelta) error {
	k := len(a.names)
	if d == nil {
		return fdxerr.BadInput("core: nil batch delta")
	}
	if d.Seq != a.batches+1 {
		return fdxerr.BadInput("core: batch delta seq %d, accumulator expects %d", d.Seq, a.batches+1)
	}
	if d.Global < 0 {
		return fdxerr.BadInput("core: batch delta has negative global index %d", d.Global)
	}
	if rangesCovered(a.ranges, d.Global) {
		return fdxerr.BadInput("core: batch delta global %d is already absorbed", d.Global)
	}
	if d.Rows < 2 {
		return fdxerr.BadInput("core: batch delta covers %d rows, need at least 2", d.Rows)
	}
	// MaxRows is part of the checkpoint fingerprint, so a replayed delta is
	// counted under the cap its statistics were taken with.
	pairs := d.Rows
	if m := a.opts.Transform.MaxRows; m > 0 && pairs > m {
		pairs = m
	}
	if err := checkCounts(k, uint64(pairs), d.Sums, d.Co); err != nil {
		return fdxerr.BadInput("core: batch delta: %v", err)
	}
	a.add(uint64(pairs), d.Sums, d.Co)
	a.rows += d.Rows
	a.batches++
	a.ranges = rangesInsert(a.ranges, d.Global)
	return nil
}

// AccumulatorState is the complete serializable state of an Accumulator —
// everything a snapshot must capture so a restored accumulator continues
// the stream bit-for-bit.
type AccumulatorState struct {
	Names   []string
	Rows    int
	Batches int
	// Pairs, Sums and Co are the accumulator's counts: the pair count of
	// every stratum, the k×k per-stratum column sums (row s = stratum s),
	// and the packed upper triangle of the co-occurrence counts summed
	// over strata (see BatchDelta).
	Pairs uint64
	Sums  []uint64
	Co    []uint64
	// Ranges is the batch coverage in canonical form. Nil means the state
	// predates sharding (a version-1 snapshot without a ranges section)
	// and defaults to the sequential coverage [0, Batches).
	Ranges []BatchRange
}

// State returns a deep copy of the accumulator's serializable state.
func (a *Accumulator) State() *AccumulatorState {
	return &AccumulatorState{
		Names:   append([]string(nil), a.names...),
		Rows:    a.rows,
		Batches: a.batches,
		Pairs:   a.pairs,
		Sums:    append([]uint64(nil), a.sums...),
		Co:      append([]uint64(nil), a.co...),
		Ranges:  append([]BatchRange(nil), a.ranges...),
	}
}

// Options returns a copy of the accumulator's pipeline configuration.
func (a *Accumulator) Options() Options { return a.opts }

// NewAccumulatorFromState reconstructs an accumulator from a snapshot
// state, validating its internal consistency. The state is deep-copied.
func NewAccumulatorFromState(st *AccumulatorState, opts Options) (*Accumulator, error) {
	if st == nil {
		return nil, fdxerr.BadInput("core: nil accumulator state")
	}
	k := len(st.Names)
	if st.Rows < 0 || st.Batches < 0 || (st.Rows > 0 && st.Batches == 0) || (st.Batches > 0 && st.Rows < 2*st.Batches) {
		return nil, fdxerr.BadInput("core: state has impossible counters rows=%d batches=%d", st.Rows, st.Batches)
	}
	ranges := st.Ranges
	if ranges == nil && st.Batches > 0 {
		// Pre-sharding state: sequential coverage.
		ranges = []BatchRange{{Lo: 0, Hi: st.Batches}}
	}
	if !validRanges(ranges) {
		return nil, fdxerr.BadInput("core: state batch coverage %v is not sorted, disjoint, and coalesced", ranges)
	}
	if rangesBatches(ranges) != st.Batches {
		return nil, fdxerr.BadInput("core: state coverage spans %d batches, counters say %d", rangesBatches(ranges), st.Batches)
	}
	if st.Pairs > uint64(st.Rows) {
		return nil, fdxerr.BadInput("core: state has %d pairs per stratum for %d rows", st.Pairs, st.Rows)
	}
	if err := checkCounts(k, st.Pairs, st.Sums, st.Co); err != nil {
		return nil, fdxerr.BadInput("core: state: %v", err)
	}
	a := NewAccumulator(st.Names, opts)
	a.add(st.Pairs, st.Sums, st.Co)
	a.rows = st.Rows
	a.batches = st.Batches
	a.ranges = append([]BatchRange(nil), ranges...)
	return a, nil
}

// Merge folds another accumulator's statistics into this one — the scale-
// out path: shards absorb disjoint spans of the batch grid independently
// and merge into the full-stream state. Requirements (checked before any
// mutation, so a failed merge changes neither side):
//
//   - identical attribute schemas, else ErrShardMismatch;
//   - batch coverages must not partially overlap, else ErrShardMismatch
//     (the same batch folded twice would double its statistics).
//
// A donor whose coverage this accumulator already contains entirely is a
// duplicate delivery — Merge reports applied=false and changes nothing,
// making shard shipping idempotent. Every accumulated statistic is an
// integer count and the fold is integer addition, so the merged state is
// identical to absorbing the same batches sequentially, in any merge
// order. Options fingerprints are the caller's to check (the fdx root
// layer does) — core cannot see the checkpoint fingerprint without an
// import cycle. The donor is never modified.
func (a *Accumulator) Merge(other *Accumulator) (applied bool, err error) {
	if other == nil {
		return false, fdxerr.BadInput("core: nil merge donor")
	}
	if len(other.names) != len(a.names) {
		return false, fdxerr.ShardMismatch("core: merge donor has %d attributes, accumulator has %d", len(other.names), len(a.names))
	}
	for i, n := range other.names {
		if n != a.names[i] {
			return false, fdxerr.ShardMismatch("core: merge donor attribute %d is %q, want %q", i, n, a.names[i])
		}
	}
	if rangesContainAll(a.ranges, other.ranges) {
		return false, nil // duplicate delivery; already folded in
	}
	union, overlap := rangesUnion(a.ranges, other.ranges)
	if overlap {
		return false, fdxerr.ShardMismatch("core: merge coverage %v overlaps %v", other.ranges, a.ranges)
	}
	a.add(other.pairs, other.sums, other.co)
	a.rows += other.rows
	a.batches += other.batches
	a.ranges = union
	return true, nil
}

// Covariance returns the pooled per-stratum covariance estimate built from
// the absorbed batches.
func (a *Accumulator) Covariance() (*linalg.Dense, error) {
	return a.covariance(a.opts.Obs)
}

// covariance is Covariance reporting under the given telemetry context,
// so the stage span can nest under a caller's "discover" root. It
// evaluates ΣC_s/(kN) − (1/k)·Σ_s m_s m_sᵀ (see Accumulator) with the
// diagonal clamped at zero, as stats.CenteredMoment does.
func (a *Accumulator) covariance(h obs.Hooks) (*linalg.Dense, error) {
	k := len(a.names)
	if a.rows == 0 {
		return nil, fdxerr.BadInput("core: accumulator has no data")
	}
	sp := h.StartStage("covariance")
	defer sp.End()
	sp.Attr("dim", k)
	sp.Attr("batches", a.batches)
	out := linalg.NewDense(k, k)
	if a.pairs == 0 {
		return out, nil
	}
	n := float64(a.pairs)
	// means holds m_s transposed: row p is column p's mean in every
	// stratum, so the sum over strata is one contiguous dot product.
	means := make([]float64, k*k)
	for s := 0; s < k; s++ {
		for p := 0; p < k; p++ {
			means[p*k+s] = float64(a.sums[s*k+p]) / n
		}
	}
	invK := 1 / float64(k)
	for p := 0; p < k; p++ {
		mp := means[p*k : (p+1)*k]
		for q := p; q < k; q++ {
			v := (float64(a.co[triIndex(k, p, q)])/n - linalg.Dot(mp, means[q*k:(q+1)*k])) * invK
			if q == p && v < 0 {
				v = 0
			}
			out.Set(p, q, v)
			out.Set(q, p, v)
		}
	}
	return out, nil
}

// add folds counts into the running sums.
func (a *Accumulator) add(pairs uint64, sums, co []uint64) {
	a.pairs += pairs
	for i, v := range sums {
		a.sums[i] += v
	}
	for i, v := range co {
		a.co[i] += v
	}
}

// checkCounts verifies the shape and the invariants of k-attribute counts
// over pairs pairs per stratum that every absorbed batch satisfies: no
// column sum exceeds pairs, each diagonal co-occurrence count is its
// column's sum over strata, and no off-diagonal count exceeds either of
// its columns' diagonal counts.
func checkCounts(k int, pairs uint64, sums, co []uint64) error {
	if len(sums) != k*k || len(co) != k*(k+1)/2 {
		return fmt.Errorf("%d sums and %d co-occurrence counts, want %d and %d", len(sums), len(co), k*k, k*(k+1)/2)
	}
	for p := 0; p < k; p++ {
		var total uint64
		for s := 0; s < k; s++ {
			v := sums[s*k+p]
			if v > pairs {
				return fmt.Errorf("stratum %d column %d sums to %d over %d pairs", s, p, v, pairs)
			}
			total += v
		}
		if d := co[triIndex(k, p, p)]; d != total {
			return fmt.Errorf("column %d co-occurs with itself %d times, its sums total %d", p, d, total)
		}
		for q := p + 1; q < k; q++ {
			if c := co[triIndex(k, p, q)]; c > co[triIndex(k, p, p)] || c > co[triIndex(k, q, q)] {
				return fmt.Errorf("columns %d and %d co-occur %d times, more than either alone", p, q, c)
			}
		}
	}
	return nil
}

// Discover derives the current model from the accumulated statistics.
func (a *Accumulator) Discover() (*Model, error) {
	return a.DiscoverContext(context.Background())
}

// DiscoverContext is Discover with cancellation (see DiscoverContext at the
// package level for where the context is checked).
func (a *Accumulator) DiscoverContext(ctx context.Context) (*Model, error) {
	run := a.opts.Obs.Start("discover")
	defer run.End()
	h := a.opts.Obs.Under(run)
	h.Count(obs.MDiscoverRuns, 1)
	s, err := a.covariance(h)
	if err != nil {
		return nil, err
	}
	opts := a.opts
	opts.Obs = h
	m, err := DiscoverFromCovarianceContext(ctx, s, a.names, opts)
	if err != nil {
		return nil, err
	}
	run.End()
	m.Trace = run
	return m, nil
}
