package fdx_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"fdx"
	"fdx/internal/core"
	"fdx/internal/linalg"
	"fdx/internal/obs"
	"fdx/internal/stats"
)

// discoverTwice runs Discover twice with identical options and returns both
// results.
func discoverTwice(t *testing.T, opts fdx.Options) (*fdx.Result, *fdx.Result) {
	t.Helper()
	rel := noisyAddressRelation(rand.New(rand.NewSource(11)), 400, 0.03)
	a, err := fdx.Discover(rel, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fdx.Discover(rel, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// assertIdentical compares two results element-wise: same FD list (order,
// attributes, scores) and bit-identical autoregression matrices.
func assertIdentical(t *testing.T, a, b *fdx.Result) {
	t.Helper()
	if len(a.FDs) != len(b.FDs) {
		t.Fatalf("FD counts differ: %d vs %d\n%v\n%v", len(a.FDs), len(b.FDs), a.FDs, b.FDs)
	}
	for i := range a.FDs {
		x, y := a.FDs[i], b.FDs[i]
		if x.String() != y.String() || x.Score != y.Score {
			t.Errorf("FD %d differs: %v (score %v) vs %v (score %v)", i, x, x.Score, y, y.Score)
		}
	}
	for i := range a.B {
		for j := range a.B[i] {
			if a.B[i][j] != b.B[i][j] {
				t.Errorf("B[%d][%d] differs: %v vs %v", i, j, a.B[i][j], b.B[i][j])
			}
		}
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Errorf("Order[%d] differs: %d vs %d", i, a.Order[i], b.Order[i])
		}
	}
}

// TestDiscoverDeterministic checks that two runs with the same options and
// data agree exactly — the property the maporder/floatcmp analyzers guard.
func TestDiscoverDeterministic(t *testing.T) {
	a, b := discoverTwice(t, fdx.Options{Seed: 7})
	assertIdentical(t, a, b)
}

// discoverWorkers runs the core pipeline with the pair transform and its
// count covariance at the given worker count — a stage setting the
// public options do not carry — and returns the fields assertIdentical
// compares.
func discoverWorkers(t *testing.T, rel *fdx.Relation, opts core.Options, workers int) *fdx.Result {
	t.Helper()
	opts.Transform.Workers = workers
	m, err := core.Discover(rel, opts)
	if err != nil {
		t.Fatal(err)
	}
	return resultOf(m, rel.AttrNames())
}

// TestDiscoverDeterministicParallel checks that the parallel transform does
// not perturb results: 4 workers must match both itself and a sequential
// run exactly.
func TestDiscoverDeterministicParallel(t *testing.T) {
	rel := noisyAddressRelation(rand.New(rand.NewSource(11)), 400, 0.03)
	p1 := discoverWorkers(t, rel, core.Options{Seed: 7}, 4)
	assertIdentical(t, p1, discoverWorkers(t, rel, core.Options{Seed: 7}, 4))
	assertIdentical(t, discoverWorkers(t, rel, core.Options{Seed: 7}, 1), p1)
}

// TestDiscoverDeterministicAcrossWorkerCounts sweeps the transform and
// count-covariance worker count and demands element-wise identical FDs and
// bit-for-bit identical B at 1, 4, and 8 workers, run to run and against
// the public Discover at its default (GOMAXPROCS): chunk boundaries and
// reduction orders depend only on problem sizes, never on the worker
// count (see internal/par).
func TestDiscoverDeterministicAcrossWorkerCounts(t *testing.T) {
	rel := noisyAddressRelation(rand.New(rand.NewSource(11)), 400, 0.03)
	base := discoverWorkers(t, rel, core.Options{Seed: 7}, 1)
	for _, workers := range []int{4, 8} {
		got := discoverWorkers(t, rel, core.Options{Seed: 7}, workers)
		assertIdentical(t, got, discoverWorkers(t, rel, core.Options{Seed: 7}, workers))
		assertIdentical(t, base, got)
	}
	public, _ := discoverTwice(t, fdx.Options{Seed: 7})
	assertIdentical(t, base, public)
}

// TestAccumulatorDeterministicAcrossWorkerCounts is the streaming variant:
// batched absorption with the transform at 1, 4, and 8 workers must
// produce bit-for-bit identical accumulated statistics, and therefore
// identical discovery results.
func TestAccumulatorDeterministicAcrossWorkerCounts(t *testing.T) {
	rel := noisyAddressRelation(rand.New(rand.NewSource(11)), 400, 0.03)
	base := accumulateWorkers(t, rel, 100, 1)
	for _, workers := range []int{4, 8} {
		assertIdentical(t, base, accumulateWorkers(t, rel, 100, workers))
	}
}

// accumulateWorkers absorbs rel in batches of batch rows through a core
// accumulator (seed 7) whose transform runs at the given worker count,
// then discovers.
func accumulateWorkers(t *testing.T, rel *fdx.Relation, batch, workers int) *fdx.Result {
	t.Helper()
	acc := core.NewAccumulator(rel.AttrNames(), core.Options{Seed: 7, Transform: core.TransformOptions{Workers: workers}})
	for lo := 0; lo < rel.NumRows(); lo += batch {
		if err := acc.Add(rel.Slice(lo, min(lo+batch, rel.NumRows()))); err != nil {
			t.Fatal(err)
		}
	}
	m, err := acc.Discover()
	if err != nil {
		t.Fatal(err)
	}
	return resultOf(m, rel.AttrNames())
}

// groupedRelation builds a wide relation of g independent attribute
// pairs, each with a planted FD a_i -> b_i and value spaces disjoint
// across groups: between-group pair-equality correlations are near zero,
// so a screened discovery at a moderate λ splits the schema into one
// block per group.
func groupedRelation(rng *rand.Rand, groups, rows int, noise float64) *fdx.Relation {
	attrs := make([]string, 0, 2*groups)
	for g := 0; g < groups; g++ {
		attrs = append(attrs, fmt.Sprintf("a%d", g), fmt.Sprintf("b%d", g))
	}
	rel := fdx.NewRelation("grouped", attrs...)
	row := make([]string, 2*groups)
	for i := 0; i < rows; i++ {
		for g := 0; g < groups; g++ {
			v := rng.Intn(6)
			row[2*g] = fmt.Sprintf("a%d_%d", g, v)
			b := v
			if rng.Float64() < noise {
				b = rng.Intn(6)
			}
			row[2*g+1] = fmt.Sprintf("b%d_%d", g, b)
		}
		rel.AppendRow(append([]string(nil), row...))
	}
	return rel
}

// TestDiscoverWideScreenedDeterministic runs discovery on a wide
// block-structured relation where the covariance screening pass
// genuinely splits the solve, and demands element-wise identical FDs and
// bit-identical B against the float sample path at transform worker
// counts 1 and 8. The block fan-out's own worker sweep is
// glasso.TestSolveBlocksBitIdenticalAcrossWorkers: no pipeline path runs
// it in parallel.
func TestDiscoverWideScreenedDeterministic(t *testing.T) {
	rel := groupedRelation(rand.New(rand.NewSource(31)), 6, 300, 0.02)
	base, err := fdx.Discover(rel, fdx.Options{Seed: 7, Lambda: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if base.Diagnostics.GlassoBlocks < 2 {
		t.Fatalf("GlassoBlocks = %d: screening found nothing, the blocked path is not exercised",
			base.Diagnostics.GlassoBlocks)
	}
	if len(base.FDs) == 0 {
		t.Fatal("no FDs discovered on a relation with planted dependencies")
	}
	for _, workers := range []int{1, 8} {
		ref := floatReference(t, rel, core.Options{Seed: 7, Lambda: 0.3, Transform: core.TransformOptions{Workers: workers}})
		assertIdentical(t, base, ref)
		if ref.Diagnostics.GlassoBlocks != base.Diagnostics.GlassoBlocks {
			t.Fatalf("bit store changed the screening partition: %d vs %d blocks",
				base.Diagnostics.GlassoBlocks, ref.Diagnostics.GlassoBlocks)
		}
	}
}

// resultOf converts a core model to the public result fields
// assertIdentical compares.
func resultOf(m *core.Model, names []string) *fdx.Result {
	res := &fdx.Result{Attributes: names, Order: append([]int(nil), m.Order...)}
	res.Diagnostics.GlassoBlocks = m.Diagnostics.GlassoBlocks
	k := len(names)
	res.B = make([][]float64, k)
	for i := range res.B {
		res.B[i] = append([]float64(nil), m.B.Row(i)...)
	}
	for _, fd := range m.FDs {
		out := fdx.FD{RHS: names[fd.RHS], Score: fd.Score}
		for _, x := range fd.LHS {
			out.LHS = append(out.LHS, names[x])
		}
		res.FDs = append(res.FDs, out)
	}
	return res
}

// floatReference runs discovery from the float sample path: the unpacked
// sample block (core.TransformBitsContext, then PairBits.Dense), its
// stratified covariance (stats.StratifiedCovariance, one stratum per
// attribute), then the model stage (core.DiscoverFromCovarianceContext).
// The pipeline computes the same covariance from popcount counts over the
// bit store; the two must agree bit for bit.
func floatReference(t *testing.T, rel *fdx.Relation, opts core.Options) *fdx.Result {
	t.Helper()
	pb, err := core.TransformBitsContext(context.Background(), rel, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := stats.StratifiedCovariance(pb.Dense(), rel.NumCols())
	m, err := core.DiscoverFromCovarianceContext(context.Background(), s, rel.AttrNames(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return resultOf(m, rel.AttrNames())
}

// TestDiscoverDeterministicCompactTransform checks the compact
// (bit-packed, one bit per cell) sample store's headline contract on the
// standard test relation: identical FDs and bit-identical B versus the
// float sample path, at multiple worker counts.
func TestDiscoverDeterministicCompactTransform(t *testing.T) {
	rel := noisyAddressRelation(rand.New(rand.NewSource(11)), 400, 0.03)
	for _, workers := range []int{1, 2, 4} {
		got := discoverWorkers(t, rel, core.Options{Seed: 7}, workers)
		assertIdentical(t, got, discoverWorkers(t, rel, core.Options{Seed: 7}, workers))
		assertIdentical(t, floatReference(t, rel, core.Options{Seed: 7, Transform: core.TransformOptions{Workers: workers}}), got)
	}
}

// TestAccumulatorDeterministicCompactTransform is the streaming variant:
// batched absorption through the bit store's popcount moments
// accumulates the statistics a float accumulation of the unpacked samples
// gives, so discovery matches it exactly at every worker count.
func TestAccumulatorDeterministicCompactTransform(t *testing.T) {
	rel := noisyAddressRelation(rand.New(rand.NewSource(11)), 400, 0.03)
	const batch = 100
	k := rel.NumCols()
	// The float reference: each batch's per-stratum column sums and its
	// outer products summed over strata, accumulated in float64 from the
	// unpacked sample rows and folded in through the WAL replay path.
	ref := core.NewAccumulator(rel.AttrNames(), core.Options{Seed: 7})
	for g, lo := 0, 0; lo < rel.NumRows(); g, lo = g+1, lo+batch {
		b := rel.Slice(lo, min(lo+batch, rel.NumRows()))
		pb, err := core.TransformBitsContext(context.Background(), b, core.Options{Seed: 7 + int64(g)})
		if err != nil {
			t.Fatal(err)
		}
		dt := pb.Dense()
		sn := dt.Rows() / k
		sums := make([]float64, k*k)
		outer := linalg.NewDense(k, k)
		for s := 0; s < k; s++ {
			for i := s * sn; i < (s+1)*sn; i++ {
				row := dt.Row(i)
				for p := range row {
					sums[s*k+p] += row[p]
					for q := range row {
						outer.Add(p, q, row[p]*row[q])
					}
				}
			}
		}
		d := &core.BatchDelta{Seq: g + 1, Global: g, Rows: b.NumRows(), Sums: make([]uint64, k*k)}
		for i, v := range sums {
			d.Sums[i] = uint64(v)
		}
		for p := 0; p < k; p++ {
			for q := p; q < k; q++ {
				d.Co = append(d.Co, uint64(outer.At(p, q)))
			}
		}
		if err := ref.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	m, err := ref.Discover()
	if err != nil {
		t.Fatal(err)
	}
	want := resultOf(m, rel.AttrNames())
	for _, workers := range []int{1, 2, 4} {
		assertIdentical(t, want, accumulateWorkers(t, rel, batch, workers))
	}
}

// TestDiscoverDeterministicWithTelemetry checks that attaching a tracer and
// metrics registry changes nothing about the results: same FD list
// (element-wise) and bit-identical B as a bare run, with both the parallel
// and the sequential transform.
func TestDiscoverDeterministicWithTelemetry(t *testing.T) {
	rel := noisyAddressRelation(rand.New(rand.NewSource(11)), 400, 0.03)
	hooks := obs.Hooks{Tracer: obs.New(), Metrics: obs.NewRegistry()}
	for _, workers := range []int{4, 1} {
		bare := discoverWorkers(t, rel, core.Options{Seed: 7}, workers)
		traced := discoverWorkers(t, rel, core.Options{Seed: 7, Obs: hooks}, workers)
		assertIdentical(t, bare, traced)
	}
	bare, _ := discoverTwice(t, fdx.Options{Seed: 7})
	traced, _ := discoverTwice(t, fdx.Options{Seed: 7, Tracer: fdx.NewTracer(), Metrics: fdx.NewMetrics()})
	assertIdentical(t, bare, traced)
}
