package core

import (
	"context"

	"fdx/internal/dataset"
	"fdx/internal/fdxerr"
	"fdx/internal/linalg"
	"fdx/internal/obs"
	"fdx/internal/par"
)

// Accumulator maintains the sufficient statistics of the FDX pair model
// across appended batches of tuples, so dependencies can be re-derived
// after every batch without retransforming history — the dynamic-data
// direction the paper's related work (DynFD) motivates.
//
// Each batch is transformed on its own (Alg. 2 within the batch) and its
// per-stratum first and second moments are folded into running sums; the
// per-stratum covariances are then pooled exactly as in batch discovery.
// Pairs never span batches, so the estimate is an approximation of the
// full recompute that converges as batches grow; Discover on the
// concatenation remains the reference semantics.
type Accumulator struct {
	names []string
	opts  Options

	// Per stratum (= per attribute): observation count, per-column sums,
	// and the sum of outer products.
	count []int
	sums  [][]float64
	outer []*linalg.Dense

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
	a := &Accumulator{
		names: append([]string(nil), attrNames...),
		opts:  opts,
		count: make([]int, k),
		sums:  make([][]float64, k),
		outer: make([]*linalg.Dense, k),
	}
	for s := 0; s < k; s++ {
		a.sums[s] = make([]float64, k)
		a.outer[s] = linalg.NewDense(k, k)
	}
	return a
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
	// Sums[s] is the batch's per-stratum sum of transformed sample rows.
	Sums [][]float64
	// Outer[s] is the batch's per-stratum sum of outer products.
	Outer []*linalg.Dense
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
	topts := a.opts.Transform
	topts.defaults()
	topts.Obs = h
	topts.Seed = a.opts.Seed + int64(global)
	sn, _ := transformDims(rel, &topts)
	// The bit store's buffer is recycled through dtPool.
	db := dtPool.Get().(*dtBuf)
	pb := newPairBits(sn, k, db.words)
	db.words = pb.bits
	if err := transformInto(context.Background(), rel, topts, pb); err != nil {
		return nil, err
	}
	d := &BatchDelta{
		Seq:    a.batches + 1,
		Global: global,
		Rows:   n,
		Sums:   make([][]float64, k),
		Outer:  make([]*linalg.Dense, k),
	}
	asp := h.StartStage("accumulate")
	// Per-stratum moments of this batch alone, as popcount counts over
	// stratum s's column bitsets. Strata are independent — stratum s owns
	// d.Sums[s] and d.Outer[s] — so they fan out across the worker pool;
	// results are identical at any worker count.
	workers := a.opts.Workers
	if workers > k {
		workers = k
	}
	pool := par.New(workers)
	pool.For(k, 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			csp := asp.Child("absorb.chunk")
			csp.Attr("stratum", s)
			sums := make([]float64, k)
			out := linalg.NewDense(k, k)
			pb.stratumMoments(s, sums, out)
			d.Sums[s] = sums
			d.Outer[s] = out
			csp.End()
		}
	})
	pool.Close()
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
	if len(d.Sums) != k || len(d.Outer) != k {
		return fdxerr.BadInput("core: batch delta has %d/%d strata, accumulator has %d", len(d.Sums), len(d.Outer), k)
	}
	for s := 0; s < k; s++ {
		if len(d.Sums[s]) != k {
			return fdxerr.BadInput("core: batch delta stratum %d has %d sums, want %d", s, len(d.Sums[s]), k)
		}
		if d.Outer[s] == nil {
			return fdxerr.BadInput("core: batch delta stratum %d has nil outer product", s)
		}
		if r, c := d.Outer[s].Dims(); r != k || c != k {
			return fdxerr.BadInput("core: batch delta stratum %d outer is %dx%d, want %dx%d", s, r, c, k, k)
		}
	}
	// MaxRows is part of the checkpoint fingerprint, so a replayed delta is
	// counted under the cap its statistics were taken with.
	pairs := d.Rows
	if m := a.opts.Transform.MaxRows; m > 0 && pairs > m {
		pairs = m
	}
	for s := 0; s < k; s++ {
		a.count[s] += pairs
		sums := a.sums[s]
		for p, v := range d.Sums[s] {
			sums[p] += v
		}
		dst := a.outer[s].Data()
		for i, v := range d.Outer[s].Data() {
			dst[i] += v
		}
	}
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
	Count   []int
	Sums    [][]float64
	Outer   []*linalg.Dense
	// Ranges is the batch coverage in canonical form. Nil means the state
	// predates sharding (a version-1 snapshot without a ranges section)
	// and defaults to the sequential coverage [0, Batches).
	Ranges []BatchRange
}

// State returns a deep copy of the accumulator's serializable state.
func (a *Accumulator) State() *AccumulatorState {
	k := len(a.names)
	st := &AccumulatorState{
		Names:   append([]string(nil), a.names...),
		Rows:    a.rows,
		Batches: a.batches,
		Count:   append([]int(nil), a.count...),
		Sums:    make([][]float64, k),
		Outer:   make([]*linalg.Dense, k),
		Ranges:  append([]BatchRange(nil), a.ranges...),
	}
	for s := 0; s < k; s++ {
		st.Sums[s] = append([]float64(nil), a.sums[s]...)
		st.Outer[s] = a.outer[s].Clone()
	}
	return st
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
	if len(st.Count) != k || len(st.Sums) != k || len(st.Outer) != k {
		return nil, fdxerr.BadInput("core: state has %d/%d/%d strata, want %d", len(st.Count), len(st.Sums), len(st.Outer), k)
	}
	a := NewAccumulator(st.Names, opts)
	for s := 0; s < k; s++ {
		if st.Count[s] < 0 || st.Count[s] > st.Rows {
			return nil, fdxerr.BadInput("core: state stratum %d count %d out of range [0, %d]", s, st.Count[s], st.Rows)
		}
		if len(st.Sums[s]) != k {
			return nil, fdxerr.BadInput("core: state stratum %d has %d sums, want %d", s, len(st.Sums[s]), k)
		}
		if st.Outer[s] == nil {
			return nil, fdxerr.BadInput("core: state stratum %d has nil outer product", s)
		}
		if r, c := st.Outer[s].Dims(); r != k || c != k {
			return nil, fdxerr.BadInput("core: state stratum %d outer is %dx%d, want %dx%d", s, r, c, k, k)
		}
		a.count[s] = st.Count[s]
		copy(a.sums[s], st.Sums[s])
		copy(a.outer[s].Data(), st.Outer[s].Data())
	}
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
// making shard shipping idempotent. The transform emits only 0/1 samples,
// so every accumulated statistic is an integer-valued float64 and the
// fold is exact: the merged state is bit-identical to absorbing the same
// batches sequentially, in any merge order. Options fingerprints are the
// caller's to check (the fdx root layer does) — core cannot see the
// checkpoint fingerprint without an import cycle. The donor is never
// modified.
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
	k := len(a.names)
	for s := 0; s < k; s++ {
		a.count[s] += other.count[s]
		sums := a.sums[s]
		for p, v := range other.sums[s] {
			sums[p] += v
		}
		dst := a.outer[s].Data()
		for i, v := range other.outer[s].Data() {
			dst[i] += v
		}
	}
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
// so the stage span can nest under a caller's "discover" root.
// (fdx:numeric-kernel: a stratum's count is an integer held in float64;
// exactly zero means the stratum absorbed no rows and is skipped.)
func (a *Accumulator) covariance(h obs.Hooks) (*linalg.Dense, error) {
	k := len(a.names)
	if a.rows == 0 {
		return nil, fdxerr.BadInput("core: accumulator has no data")
	}
	sp := h.StartStage("covariance")
	defer sp.End()
	sp.Attr("dim", k)
	sp.Attr("batches", a.batches)
	acc := linalg.NewDense(k, k)
	for s := 0; s < k; s++ {
		n := float64(a.count[s])
		if n == 0 {
			continue
		}
		for p := 0; p < k; p++ {
			mp := a.sums[s][p] / n
			for q := 0; q < k; q++ {
				mq := a.sums[s][q] / n
				cov := a.outer[s].At(p, q)/n - mp*mq
				acc.Add(p, q, cov)
			}
		}
	}
	acc.Scale(1 / float64(k))
	acc.Symmetrize()
	return acc, nil
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
