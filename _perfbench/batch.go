package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"fdx"
	"fdx/internal/core"
	"fdx/internal/dataset"
	"fdx/internal/glasso"
	"fdx/internal/linalg"
	"fdx/internal/ordering"
	"fdx/internal/stats"
)

const (
	// setupRuns is how many cold discovers set-up times: the process's
	// first, then each after the heap was returned to the OS.
	setupRuns = 3
	// minIters is the fewest measured operations in any phase.
	minIters = 3
	// coverageFloor is the share of the traced discover the four layer
	// spans must cover on wide and tall; crossFloor the share of the
	// untraced discover_s next to it (see traceBatch).
	coverageFloor, crossFloor = 0.95, 0.8
	// The model stage's defaults (core.Options), repeated by modelParts.
	threshold, relFraction, graphTol, shrink = 0.05, 0.4, 1e-4, 0.05
)

// discoverCSV is the wide and tall workloads' operation: CSV bytes in, FD
// list out, through the public API with default options.
func discoverCSV(in *batchInput) (*fdx.Result, error) {
	rel, err := fdx.ReadCSV("bench", bytes.NewReader(in.csv))
	if err != nil {
		return nil, err
	}
	return fdx.Discover(rel, fdx.Options{})
}

// runBatch measures the wide or tall workload.
func runBatch(r *run) error {
	in, err := genBatch(r.workload, r.seed)
	if err != nil {
		return err
	}
	ref, err := reference(r.workload, r.seed)
	if err != nil {
		return err
	}
	var f1 float64
	// op runs one checked discover and returns its wall time in seconds
	// and the bytes it allocated. Each starts from a collected heap, as a
	// discover in a fresh process does, so the previous one's garbage
	// neither adds collection time nor lifts the RSS peak by chance.
	op := func() (float64, float64) {
		runtime.GC()
		a0 := totalAlloc()
		t0 := time.Now()
		res, err := discoverCSV(in)
		d := time.Since(t0).Seconds()
		a := float64(totalAlloc() - a0)
		if err == nil {
			o := resultOutcome(res, in.truth)
			f1 = o.F1
			err = compare("discover", o, ref)
		}
		r.check(err)
		return d, a
	}
	if r.trace {
		return traceBatch(r, in, ref, op)
	}
	var setup []float64
	for i := 0; i < setupRuns; i++ {
		debug.FreeOSMemory()
		d, _ := op()
		setup = append(setup, d)
	}
	op() // the heap grows back to its steady size
	var durs, allocs, peaks []float64
	reset := true
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for len(durs) < minIters || time.Now().Before(deadline) {
		reset = resetPeakRSS() && reset
		d, a := op()
		rss, err := peakRSS()
		if err != nil {
			return err
		}
		durs = append(durs, d)
		allocs = append(allocs, a)
		peaks = append(peaks, rss)
	}
	if !reset {
		r.note("the kernel refused to reset the RSS high-water mark: peak_rss_mb includes earlier discovers")
	}
	r.set("discover_s", median(durs))
	r.set("rows_per_s", float64(in.rows)/median(durs))
	r.set("alloc_mb", median(allocs)/1e6)
	r.set("peak_rss_mb", median(peaks)/1e6)
	r.set("setup_s", median(setup))
	r.note("discover_s is the median of %d discovers %.4g s; setup_s the median of %d cold ones %.4g s", len(durs), durs, len(setup), setup)
	r.note("f1 %.4f: FD recovery against the planted truth (the reference pins it per variant)", f1)
	r.note("peak RSS per discover %.4g MB", scale(peaks, 1e-6))
	r.note("input %d rows x %d attributes, %d CSV bytes, variant %d; %d FDs", in.rows, len(in.attrs), len(in.csv), variant(r.seed), ref.N)
	return nil
}

// traceBatch is the traced run of wide or tall. It alternates the
// untraced public path with the same pipeline as four module calls inside
// spans (parse, transform, covariance, model), each followed by the model
// stage repeated call by call (modelParts), so that the machine's drift
// reaches both sides of each pair alike; then it times the worker
// speed-ups.
func traceBatch(r *run, in *batchInput, ref outcome, op func() (float64, float64)) error {
	tr := newTracer(fmt.Sprintf("%s-seed%d", r.workload, r.seed))
	op() // warm-up
	ctx := context.Background()
	names := in.attrs
	k := len(names)
	var (
		untraced []float64
		pairs    int
		parts    *partsOut
		s        *linalg.Dense
	)
	for deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second))); len(untraced) < minIters || time.Now().Before(deadline); {
		d, _ := op()
		untraced = append(untraced, d)
		var (
			rel *dataset.Relation
			dt  *linalg.Dense
			m   *core.Model
			err error
		)
		runtime.GC()
		root := tr.start("discover", 0)
		tr.timed("dataset.parse", root, func() { rel, err = dataset.ReadCSV("bench", bytes.NewReader(in.csv)) })
		if err == nil {
			tr.timed("core.transform", root, func() { dt, err = core.TransformContext(ctx, rel, core.TransformOptions{}) })
		}
		if err == nil {
			tr.timed("stats.covariance", root, func() { s = stats.StratifiedCovariance(dt, k) })
			tr.timed("core.model", root, func() { m, err = core.DiscoverFromCovarianceContext(ctx, s, names, core.Options{}) })
		}
		tr.end(root)
		if err == nil {
			pairs = dt.Rows()
			err = compare("traced discover", modelOutcome(m, in.truth), ref)
		}
		if err == nil {
			parts, err = modelParts(tr, s, names)
		}
		if err == nil {
			err = sameFDs(names, parts.fds, m.FDs)
		}
		r.check(err)
		if err != nil {
			return tr.write(r.out)
		}
	}

	roots := tr.byRoot("discover")
	parse := medianSelf(roots, "dataset.parse")
	transform := medianSelf(roots, "core.transform")
	cov := medianSelf(roots, "stats.covariance")
	model := medianSelf(roots, "core.model")
	r.set("dataset.parse_s", parse)
	r.set("dataset.parse_mb_per_s", float64(len(in.csv))/1e6/parse)
	r.set("core.transform_s", transform)
	r.set("core.transform_pairs", float64(pairs))
	r.set("core.transform_mb", float64(pairs*k*8)/1e6)
	gflop := float64(pairs) * float64(k) * float64(k+1) / 1e9
	r.set("stats.covariance_s", cov)
	r.set("stats.covariance_gflop", gflop)
	r.set("stats.covariance_gflops", gflop/cov)
	r.set("core.model_s", model)
	setParts(r, tr.byRoot("model-parts"), parts)

	// Coverage, per interleaved pair: the four layers' share of the
	// traced discover they make up, and of the untraced discover next to
	// it. The first must reach coverageFloor. The second also carries the
	// machine's noise, and tracing's cost, so it is gated only at
	// crossFloor, which still catches a pipeline that misses a stage.
	durs := tr.rootDurations("discover")
	var inTrace, cross, overhead []float64
	for i, root := range roots {
		layers := 0.0
		for _, n := range []string{"dataset.parse", "core.transform", "stats.covariance", "core.model"} {
			layers += root[n].self
		}
		inTrace = append(inTrace, layers/durs[i])
		cross = append(cross, layers/untraced[i])
		overhead = append(overhead, durs[i]/untraced[i]-1)
	}
	whole := median(untraced)
	attributed := parse + transform + cov + model
	r.set("unattributed_s", whole-attributed)
	r.set("attributed_ratio", median(cross))
	r.set("trace.overhead_ratio", median(overhead))
	r.note("coverage: parse+transform+covariance+model = %.4g s, %.4f of the traced discover and %.4f of discover_s %.4g s (medians of %d interleaved pairs)",
		attributed, median(inTrace), median(cross), whole, len(untraced))
	if c := median(inTrace); c < coverageFloor {
		r.check(fmt.Errorf("traced layers cover %.3f of the traced discover, want >= %.2f", c, coverageFloor))
	}
	if c := median(cross); c < crossFloor {
		r.check(fmt.Errorf("traced layers cover %.3f of the untraced discover_s, want >= %.2f", c, crossFloor))
	}
	checkParts(r, tr.byRoot("model-parts"), model)
	r.note("core.model_s is %.2f%% of discover_s", 100*model/whole)

	if err := workerSpeedups(r, in, s); err != nil {
		return err
	}
	for _, n := range ingestLayers {
		r.set(n, 0)
	}
	return tr.write(r.out)
}

// ingestLayers are the per-layer metrics only the ingest workload's path
// calls.
var ingestLayers = []string{
	"core.absorb_ms", "core.discover_ms", "checkpoint.wal_append_ms", "checkpoint.wal_bytes",
	"checkpoint.save_ms", "checkpoint.snapshot_bytes", "serve.decode_ms", "serve.clone_ms", "serve.unattributed_ms",
}

// workerSpeedups times the transform and the blocked glasso solve at 1
// and 2 workers (best of two each, each from a collected heap) and
// records Workers=1 over Workers=2.
func workerSpeedups(r *run, in *batchInput, s *linalg.Dense) error {
	rel, err := dataset.ReadCSV("bench", bytes.NewReader(in.csv))
	if err != nil {
		return err
	}
	p := prepare(s)
	ctx := context.Background()
	best := func(f func() error) (float64, error) {
		t := 0.0
		for i := 0; i < 2; i++ {
			runtime.GC()
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			if d := time.Since(t0).Seconds(); i == 0 || d < t {
				t = d
			}
		}
		return t, nil
	}
	var ts, gs [2]float64
	for w := 1; w <= 2; w++ {
		if ts[w-1], err = best(func() error {
			_, err := core.TransformContext(ctx, rel, core.TransformOptions{Workers: w})
			return err
		}); err != nil {
			return err
		}
		if gs[w-1], err = best(func() error {
			_, err := glasso.SolveBlocksContext(ctx, p, glasso.Options{Workers: w})
			return err
		}); err != nil {
			return err
		}
	}
	r.set("core.transform_workers_speedup", ts[0]/ts[1])
	r.set("glasso.solve_workers_speedup", gs[0]/gs[1])
	r.note("workers 1 vs 2: transform %.4g s / %.4g s, glasso solve %.4g s / %.4g s", ts[0], ts[1], gs[0], gs[1])
	return nil
}

// partsOut is what modelParts computed besides its spans.
type partsOut struct {
	fds      []core.FD
	sweeps   int
	blocks   int
	screened float64
	fill     int
}

// prepare repeats the model stage's preparation of the covariance:
// correlation, then light shrinkage, on a copy.
func prepare(s *linalg.Dense) *linalg.Dense {
	p := s.Clone()
	stats.CorrelationInPlace(p)
	stats.ShrinkInPlace(p, shrink)
	return p
}

// modelParts repeats the model stage (core.DiscoverFromCovarianceContext
// with default options) as the calls it is made of, on the covariance the
// stage saw, each inside a span under a "model-parts" root: prepare, the
// glasso screen and blocked solve, then per block the fill-reducing order,
// the UDUᵀ factorization and FD generation. glasso.screen is timed on its
// own for its share; the blocked solve screens again inside.
func modelParts(tr *tracer, s *linalg.Dense, names []string) (*partsOut, error) {
	ctx := context.Background()
	root := tr.start("model-parts", 0)
	defer tr.end(root)
	var p *linalg.Dense
	tr.timed("core.prepare", root, func() { p = prepare(s) })
	var part *glasso.Partition
	tr.timed("glasso.screen", root, func() { part = glasso.Screen(p, 0) })
	var (
		br  *glasso.BlockedResult
		err error
	)
	tr.timed("glasso.solve", root, func() { br, err = glasso.SolveBlocksContext(ctx, p, glasso.Options{}) })
	if err != nil {
		return nil, err
	}
	if !br.Converged() {
		return nil, errors.New("glasso did not converge without regularization; the model stage's fallback ladder is not repeated here")
	}
	out := &partsOut{sweeps: br.Iterations(), blocks: br.Part.NumBlocks(), screened: part.ScreenedRatio()}
	for c, blk := range br.Blocks {
		verts := br.Part.Block(c)
		if len(verts) == 1 {
			continue
		}
		var (
			g    *ordering.Graph
			perm linalg.Permutation
			bP   *linalg.Dense
		)
		tr.timed("ordering.order", root, func() {
			g = ordering.FromPrecision(blk.Precision, graphTol)
			perm, err = ordering.Order(ordering.Heuristic, g, 0)
		})
		if err != nil {
			return nil, err
		}
		out.fill += ordering.Fill(g, perm)
		tr.timed("linalg.udu", root, func() { bP, err = autoregress(blk.Precision, perm) })
		if err != nil {
			return nil, err
		}
		tr.timed("core.generate", root, func() {
			global := make([]int, len(perm))
			for i, local := range perm {
				global[i] = verts[local]
			}
			out.fds = append(out.fds, core.GenerateFDs(bP, global, threshold, relFraction)...)
		})
	}
	tr.timed("core.generate", root, func() { core.SortFDs(out.fds) })
	return out, nil
}

// autoregress is B = I − U of the permuted precision's UDUᵀ factors, with
// the model stage's one nearest-SPD retry.
func autoregress(theta *linalg.Dense, perm linalg.Permutation) (*linalg.Dense, error) {
	thetaP := linalg.PermuteSym(theta, perm)
	u, _, err := linalg.UDU(thetaP)
	if errors.Is(err, linalg.ErrNotPositiveDefinite) {
		fixed, ferr := linalg.NearestSPD(thetaP, 1e-8)
		if ferr != nil {
			return nil, ferr
		}
		u, _, err = linalg.UDU(fixed)
	}
	if err != nil {
		return nil, err
	}
	return linalg.Sub(linalg.Identity(thetaP.Rows()), u), nil
}

// setParts records the model-parts metrics.
func setParts(r *run, roots []map[string]layerTime, p *partsOut) {
	r.set("core.prepare_s", medianSelf(roots, "core.prepare"))
	r.set("glasso.screen_s", medianSelf(roots, "glasso.screen"))
	r.set("glasso.solve_s", medianSelf(roots, "glasso.solve"))
	r.set("ordering.order_s", medianSelf(roots, "ordering.order"))
	r.set("linalg.udu_s", medianSelf(roots, "linalg.udu"))
	r.set("core.generate_s", medianSelf(roots, "core.generate"))
	r.set("core.fds", float64(len(p.fds)))
	r.set("glasso.sweeps", float64(p.sweeps))
	r.set("glasso.blocks", float64(p.blocks))
	r.set("glasso.screened_ratio", p.screened)
	r.set("ordering.fill", float64(p.fill))
}

// checkParts compares the model parts' summed time with the model stage
// they repeat. Where the stage takes long enough to time reliably, the sum
// must land within [2/3, 3/2] of it, or the parts are not what the stage
// does.
func checkParts(r *run, roots []map[string]layerTime, model float64) {
	sum := 0.0
	for _, n := range []string{"core.prepare", "glasso.solve", "ordering.order", "linalg.udu", "core.generate"} {
		sum += medianSelf(roots, n)
	}
	r.note("model parts: prepare+solve+order+udu+generate = %.4g s, %.3f x the model stage's %.4g s", sum, sum/model, model)
	if model >= 0.05 && (sum/model < 2.0/3 || sum/model > 1.5) {
		r.check(fmt.Errorf("model parts sum to %.3f x the model stage, want within [0.67, 1.5]", sum/model))
	}
}

// sameFDs reports whether two FD lists over names are element-wise equal.
func sameFDs(names []string, got, want []core.FD) error {
	str := func(fds []core.FD) []string {
		out := make([]string, len(fds))
		for i, fd := range fds {
			out[i] = fdString(names, fd)
		}
		return out
	}
	if g, w := str(got), str(want); !slices.Equal(g, w) {
		return fmt.Errorf("model parts produced %d FDs, the model stage %d, and they differ", len(g), len(w))
	}
	return nil
}
