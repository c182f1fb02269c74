package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"fdx/internal/dataset"
	"fdx/internal/faults"
	"fdx/internal/fdxerr"
	"fdx/internal/glasso"
	"fdx/internal/linalg"
	"fdx/internal/obs"
	"fdx/internal/ordering"
	"fdx/internal/stats"
)

// Options configures the FDX discovery pipeline.
type Options struct {
	// Lambda is the Graphical Lasso sparsity penalty (paper Table 8 sweeps
	// {0, .002, …, .01}).
	Lambda float64
	// Threshold is the absolute floor on |B| coefficients for an edge to
	// enter an FD (0 = default 0.05). It combines with RelFraction into
	// the per-column rule: keep coefficient b_ij iff
	//
	//	b_ij ≠ 0 and |b_ij| ≥ max(Threshold, RelFraction·max_i |b_ij|).
	//
	// The relative part adapts to each data set's coefficient scale —
	// under the soft-logic relaxation (paper Eq. 3) a determinant set of
	// size m carries coefficients ≈ 1/m, but the overall scale shrinks
	// with noise and with large value domains. A negative Threshold sets
	// no floor: every non-zero coefficient that passes the relative rule
	// enters (paper Alg. 3 takes the non-zero entries), and with the
	// relative rule disabled too, all of them do.
	Threshold float64
	// RelFraction is the relative per-column threshold fraction
	// (default 0.4); set negative to disable the relative rule and use
	// Threshold alone.
	RelFraction float64
	// Ordering names the column-ordering heuristic (see internal/ordering);
	// default "heuristic" (minimum degree), the paper's default.
	Ordering string
	// PooledCovariance disables the stratified (per-sort-block) covariance
	// estimator and pools all pair samples into one covariance, as a naive
	// reading of Alg. 2 would. Pooling lets the blocks' different marginal
	// means leak into the estimate as spurious negative correlations; the
	// flag exists for the ablation benchmark.
	PooledCovariance bool
	// RequireConvergence makes a Graphical Lasso estimate that still has
	// not converged after the full regularization fallback ladder a hard
	// ErrNotConverged failure. By default such an estimate is accepted as
	// a degraded result with Diagnostics.GlassoConverged == false.
	RequireConvergence bool
	// Seed drives the transform shuffle.
	Seed int64
	// Transform holds the pair-transformation options.
	Transform TransformOptions
	// Obs carries the optional telemetry sinks (tracer span context and
	// metrics registry). The zero value disables instrumentation at
	// effectively no cost; see internal/obs. Telemetry never affects
	// results or checkpoint compatibility.
	Obs obs.Hooks
}

// graphTol is the |Θ| cutoff when building the sparsity graph fed to the
// ordering heuristic.
const graphTol = 1e-4

// defaults fills unset fields. (fdx:numeric-kernel: the exact zero value is
// the "unset" sentinel on option fields, never a computed float.)
func (o *Options) defaults() {
	if o.Threshold == 0 {
		o.Threshold = 0.05
	}
	if o.RelFraction == 0 {
		o.RelFraction = 0.4
	}
	// Negative RelFraction (the "disabled" sentinel) is preserved here —
	// defaults() runs once per pipeline layer, and clamping the sentinel
	// would let a later layer re-default it to 0.4. columnThreshold treats
	// any non-positive fraction as disabled.
	if o.Ordering == "" {
		o.Ordering = ordering.Heuristic
	}
}

// Validate returns an ErrBadInput-wrapped error naming the first option
// outside the range the model gives it: Lambda is the Graphical Lasso
// penalty, finite and ≥ 0 (paper Table 8); Ordering is empty or a method
// internal/ordering dispatches; RelFraction ≤ 1 and Threshold finite
// (negative turns either rule off); MaxRows ≥ 0; NumericTol finite and
// ≥ 0. Every entry that runs a stage calls it before the first span
// opens. It never rewrites the options, so stored ones keep their
// checkpoint fingerprint.
func (o Options) Validate() error {
	switch {
	case !(o.Lambda >= 0) || math.IsInf(o.Lambda, 1):
		return fdxerr.BadInput("core: lambda %v must be finite and >= 0", o.Lambda)
	case math.IsNaN(o.Threshold) || math.IsInf(o.Threshold, 0):
		return fdxerr.BadInput("core: threshold %v must be finite", o.Threshold)
	case !(o.RelFraction <= 1):
		return fdxerr.BadInput("core: relative fraction %v must be at most 1 (negative disables it)", o.RelFraction)
	case o.Transform.MaxRows < 0:
		return fdxerr.BadInput("core: max rows %d must be >= 0 (0 uses every row)", o.Transform.MaxRows)
	case !(o.Transform.NumericTol >= 0) || math.IsInf(o.Transform.NumericTol, 1):
		return fdxerr.BadInput("core: numeric tolerance %v must be finite and >= 0", o.Transform.NumericTol)
	}
	if o.Ordering != "" {
		if err := ordering.Check(o.Ordering); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// Model is the fitted FDX model: the estimated precision matrix, the
// autoregression matrix in original attribute coordinates, the global
// attribute order used, and the generated FDs.
type Model struct {
	AttrNames []string
	// Theta is the sparse precision estimate of the pair model.
	Theta *linalg.Dense
	// B is the autoregression matrix in original coordinates: B[i][j] is
	// the coefficient of attribute i in the linear equation of attribute j.
	B *linalg.Dense
	// Order is the global attribute order used by the factorization:
	// Order[position] = attribute index.
	Order linalg.Permutation
	// FDs are the discovered dependencies.
	FDs []FD
	// Diagnostics records how the run degraded (fallbacks taken, solver
	// convergence, sanitized columns); see the Diagnostics type.
	Diagnostics Diagnostics
	// Trace is the root telemetry span of the run that produced the model
	// (nil when no tracer was attached). Its StageTimings break the fit
	// down per stage.
	Trace *obs.Span
	// TransformDuration and ModelDuration split the run's wall time into
	// the pair transform and structure learning, from the covariance on
	// (paper Fig. 6). The accumulator's transform ran batch by batch as
	// the data arrived, so its TransformDuration is zero.
	TransformDuration, ModelDuration time.Duration
}

// ValidateRelation checks that a relation is structurally sound for
// discovery: non-nil, unique attribute names, equal column lengths, and
// in-range dictionary codes. Violations return ErrBadInput-wrapped errors.
func ValidateRelation(rel *dataset.Relation) error {
	if rel == nil {
		return fdxerr.BadInput("core: nil relation")
	}
	seen := make(map[string]bool, rel.NumCols())
	for _, name := range rel.AttrNames() {
		if seen[name] {
			return fdxerr.BadInput("core: duplicate attribute name %q", name)
		}
		seen[name] = true
	}
	if err := rel.Validate(); err != nil {
		return fmt.Errorf("%w: %w", err, fdxerr.ErrBadInput)
	}
	return nil
}

// Discover runs the full FDX pipeline on a relation (paper Alg. 1).
func Discover(rel *dataset.Relation, opts Options) (*Model, error) {
	return DiscoverContext(context.Background(), rel, opts)
}

// DiscoverContext is Discover with cancellation: the context is checked in
// the transform worker loop, each Graphical Lasso outer sweep, every rung
// of the fallback ladder, and each block's ordering, and a wrapped ctx.Err()
// is returned promptly on expiry.
func DiscoverContext(ctx context.Context, rel *dataset.Relation, opts Options) (*Model, error) {
	if err := ValidateRelation(rel); err != nil {
		return nil, err
	}
	names := rel.AttrNames()
	var pb *PairBits
	transform := func(opts Options) (err error) {
		pb, err = TransformBitsContext(ctx, rel, opts)
		return err
	}
	return drive(opts, transform, func(opts Options) (*Model, error) {
		if len(names) == 0 {
			return &Model{Theta: linalg.NewDense(0, 0), B: linalg.NewDense(0, 0), Diagnostics: Diagnostics{GlassoConverged: true}}, nil
		}
		// The covariance comes from popcount co-occurrence counts (fanned
		// out over Transform.Workers), bit-identical to the float
		// estimators in internal/stats on the unpacked block.
		csp := opts.Obs.StartStage("covariance")
		var s *linalg.Dense
		if opts.PooledCovariance {
			s = pb.Covariance(opts.Transform.Workers)
		} else {
			s = pb.StratifiedCovariance(opts.Transform.Workers)
		}
		csp.Attr("dim", len(names))
		csp.End()
		return DiscoverFromCovarianceContext(ctx, s, names, opts)
	})
}

// drive is the one discover driver, behind DiscoverContext and
// Accumulator.DiscoverContext. It rejects bad options before any span
// opens, then opens the root "discover" span, counts the run, and times
// its two phases into the Model: transform (nil when the samples are
// already counted) and model, which builds the covariance and fits it.
func drive(opts Options, transform func(Options) error, model func(Options) (*Model, error)) (*Model, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.defaults()
	// End is deferred for error paths and idempotent on success.
	run := opts.Obs.Start("discover")
	defer run.End()
	opts.Obs = opts.Obs.Under(run)
	opts.Obs.Count(obs.MDiscoverRuns, 1)
	//fdx:lint-ignore detsource wall-clock timing metadata (Model.TransformDuration); never feeds FD scores
	t0 := time.Now()
	t1 := t0
	if transform != nil {
		if err := transform(opts); err != nil {
			return nil, err
		}
		//fdx:lint-ignore detsource wall-clock timing metadata (Model.TransformDuration); never feeds FD scores
		t1 = time.Now()
	}
	m, err := model(opts)
	if err != nil {
		return nil, err
	}
	//fdx:lint-ignore detsource wall-clock timing metadata (Model.ModelDuration); never feeds FD scores
	t2 := time.Now()
	run.End()
	m.Trace = run
	m.TransformDuration = t1.Sub(t0)
	m.ModelDuration = t2.Sub(t1)
	return m, nil
}

// DiscoverFromCovarianceContext runs structure learning + FD generation on
// a pre-computed covariance estimate of the pair model — the entry point
// for incremental discovery, where the covariance is maintained as running
// sufficient statistics instead of recomputed from samples. Non-finite
// covariance entries are sanitized (recorded in Diagnostics) rather than
// propagated, and failures of the Graphical Lasso or the UDUᵀ
// factorization walk a deterministic regularization fallback ladder
// before being reported.
func DiscoverFromCovarianceContext(ctx context.Context, s *linalg.Dense, names []string, opts Options) (*Model, error) {
	opts.defaults()
	k := len(names)
	if r, c := s.Dims(); r != k || c != k {
		return nil, fdxerr.BadInput("core: covariance is %dx%d, want %dx%d", r, c, k, k)
	}

	// One working copy of the caller's covariance up front: the fault
	// poison, sanitization, correlation, and shrinkage below all operate
	// on it in place with no further cloning.
	s = s.Clone()

	// Fault injection: poison one covariance entry (sanitization test) or
	// blow up inside the core (public panic-guard test).
	if k > 0 && faults.Fire(faults.CovarianceNaN) {
		s.Set(0, k-1, math.NaN())
		s.Set(k-1, 0, math.NaN())
	}
	if faults.Fire(faults.InternalPanic) {
		//fdx:lint-ignore nakedpanic armed-fault injection exercising the public panic guards
		panic("faults: injected panic (internal-panic)")
	}

	diag := Diagnostics{}

	// Quarantine non-finite statistics instead of letting NaN/Inf propagate
	// through the solvers as opaque failures.
	psp := opts.Obs.StartStage("prepare")
	diag.SanitizedColumns = sanitizeCovariance(s)

	stats.CorrelationInPlace(s)
	// Light shrinkage keeps the estimate well-conditioned when columns are
	// (nearly) collinear — exact FDs make Z columns exactly dependent.
	stats.ShrinkInPlace(s, 0.05)
	psp.Attr("sanitized", len(diag.SanitizedColumns))
	psp.End()
	opts.Obs.Count(obs.MSanitizedColumns, uint64(len(diag.SanitizedColumns)))

	fsp := opts.Obs.StartStage("fit")
	lopts := opts
	lopts.Obs = opts.Obs.Under(fsp)
	fit, err := fitLadder(ctx, s, &diag, lopts)
	fsp.Attr("sweeps", diag.GlassoSweeps)
	fsp.Attr("fallbacks", len(diag.Fallbacks))
	fsp.End()
	if err != nil {
		return nil, err
	}
	theta := fit.br.DensePrecision()
	perm := fit.globalPerm()

	gsp := opts.Obs.StartStage("generate")
	// Remap and generate per block, never touching the off-block entries:
	// they are exact zeros by the screening theorem (and b starts zeroed).
	// Generating on the dense assembly would give the same FDs, because
	// GenerateFDs admits only non-zero coefficients, so cross-block entries
	// can neither enter an FD nor raise a per-column relative maximum.
	b := linalg.NewDense(k, k)
	var fds []FD
	off := 0
	//fdx:lint-ignore ctxflow O(Σ|block|²) index remap of a finished result; bounded glue with no kernel work
	for c, bPc := range fit.bPs {
		n := len(fit.br.Part.Block(c))
		bperm := perm[off : off+n]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Set(bperm[i], bperm[j], bPc.At(i, j))
			}
		}
		fds = append(fds, GenerateFDs(bPc, bperm, opts.Threshold, opts.RelFraction)...)
		off += n
	}
	SortFDs(fds)
	gsp.Attr("fds", len(fds))
	gsp.End()
	opts.Obs.Count(obs.MFDsGenerated, uint64(len(fds)))
	return &Model{
		AttrNames:   names,
		Theta:       theta,
		B:           b,
		Order:       perm,
		FDs:         fds,
		Diagnostics: diag,
	}, nil
}

// fallbackEpsilons is the deterministic regularization ladder: when the
// Graphical Lasso fails (or does not converge) or the UDUᵀ factorization
// hits a non-positive pivot, the solve is retried on S + εI with these
// escalating diagonal shrinkages. Ridge shrinkage is the principled
// degradation of the same estimator (cf. Guo & Rekatsinas, "Learning
// Functional Dependencies with Sparse Regression"): it trades a little bias
// for conditioning without changing the sparsity structure sought.
var fallbackEpsilons = []float64{1e-8, 1e-6, 1e-4, 1e-2}

// blockFit is the screened fit the ladder accepted: the blocked glasso
// result plus one fill-reducing order and autoregression matrix per
// block. Nothing here is densified; the caller assembles Model.Theta and
// Model.B from the blocks.
type blockFit struct {
	br    *glasso.BlockedResult
	perms []linalg.Permutation // per-block orders, position → local index
	bPs   []*linalg.Dense      // per-block autoregression, local permuted coords
}

// globalPerm concatenates the per-block orders into one global attribute
// order: blocks in partition order (ascending smallest member), each
// internally in its fill-reducing order. For a block-diagonal precision
// estimate the within-block relative order is all that matters to the
// factorization and the FDs — cross-block coefficients are exact zeros
// under any interleaving.
func (f *blockFit) globalPerm() linalg.Permutation {
	perm := make(linalg.Permutation, 0, f.br.Part.K())
	for c, p := range f.perms {
		verts := f.br.Part.Block(c)
		for _, local := range p {
			perm = append(perm, verts[local])
		}
	}
	return perm
}

// fitLadder estimates the precision matrix and factorizes it, walking the
// regularization fallback ladder on failure. It returns the accepted
// blocked fit — per-block precision, order, and autoregression matrices —
// recording every fallback in diag.
func fitLadder(ctx context.Context, s *linalg.Dense, diag *Diagnostics, opts Options) (*blockFit, error) {
	var (
		lastErr error
		best    *glasso.BlockedResult // best-effort non-converged estimate, most regularized
	)
	// escalate records the fallback about to be taken after a failure at
	// rung i (a no-op on the final rung, where there is nothing to escalate
	// to).
	escalate := func(i int, stage, reason string) {
		if i < len(fallbackEpsilons) {
			diag.Fallbacks = append(diag.Fallbacks, Fallback{Stage: stage, Epsilon: fallbackEpsilons[i], Reason: reason})
			opts.Obs.Count(obs.MFallbacks, 1)
		}
	}
	for rung := 0; rung <= len(fallbackEpsilons); rung++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fdxerr.Cancelled(cerr)
		}
		trial := s
		eps := 0.0
		if rung > 0 {
			eps = fallbackEpsilons[rung-1]
			trial = addDiag(s, eps)
		}
		rsp := opts.Obs.Start("ladder-rung")
		rsp.Attr("rung", rung)
		rsp.Attr("epsilon", eps)
		ropts := opts
		ropts.Obs = opts.Obs.Under(rsp)
		res, err := glasso.SolveBlocksContext(ctx, trial, glasso.Options{Lambda: opts.Lambda, Obs: ropts.Obs})
		if err != nil {
			rsp.End()
			if errors.Is(err, fdxerr.ErrCancelled) {
				return nil, err
			}
			lastErr = fmt.Errorf("core: graphical lasso: %w", err)
			escalate(rung, "glasso", err.Error())
			continue
		}
		if !res.Converged() {
			rsp.End()
			best = res
			lastErr = fmt.Errorf("core: graphical lasso exhausted %d sweeps: %w", res.Iterations(), fdxerr.ErrNotConverged)
			escalate(rung, "glasso", fmt.Sprintf("not converged after %d sweeps", res.Iterations()))
			continue
		}
		fit, err := orderAndFactorizeBlocks(ctx, res, diag, ropts)
		rsp.End()
		if err != nil {
			if !errors.Is(err, fdxerr.ErrNonPositivePivot) {
				return nil, err
			}
			lastErr = err
			escalate(rung, "factorize", err.Error())
			continue
		}
		diag.GlassoConverged = true
		diag.GlassoSweeps = res.Iterations()
		diag.GlassoBlocks = res.Part.NumBlocks()
		return fit, nil
	}
	// Ladder exhausted. A non-converged estimate is still a usable (if
	// degraded) structure estimate unless the caller demanded strictness.
	if best != nil && !opts.RequireConvergence {
		fit, err := orderAndFactorizeBlocks(ctx, best, diag, opts)
		if err == nil {
			diag.GlassoConverged = false
			diag.GlassoSweeps = best.Iterations()
			diag.GlassoBlocks = best.Part.NumBlocks()
			return fit, nil
		}
		if !errors.Is(err, fdxerr.ErrNonPositivePivot) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// orderAndFactorizeBlocks runs the fill-reducing ordering and UDUᵀ
// factorization independently on every screened block. Singleton blocks
// are closed-form (order [0], B = 0). Any block's non-positive pivot
// fails the whole rung — the ladder's diagonal shrinkage applies to the
// full matrix, so per-block retries would diverge from the dense path.
func orderAndFactorizeBlocks(ctx context.Context, br *glasso.BlockedResult, diag *Diagnostics, opts Options) (*blockFit, error) {
	fit := &blockFit{
		br:    br,
		perms: make([]linalg.Permutation, len(br.Blocks)),
		bPs:   make([]*linalg.Dense, len(br.Blocks)),
	}
	for c, blk := range br.Blocks {
		if len(br.Part.Block(c)) == 1 {
			// 1×1: θ = [t], t > 0 by construction; U = [1], B = I − U = [0].
			fit.perms[c] = linalg.Permutation{0}
			fit.bPs[c] = linalg.NewDense(1, 1)
			continue
		}
		perm, bP, err := orderAndFactorize(ctx, blk.Precision, diag, opts)
		if err != nil {
			return nil, err
		}
		fit.perms[c] = perm
		fit.bPs[c] = bP
	}
	return fit, nil
}

// orderAndFactorize computes the fill-reducing order for theta and
// factorizes it into the autoregression matrix, recording a nearest-SPD
// repair in diag when one was needed.
func orderAndFactorize(ctx context.Context, theta *linalg.Dense, diag *Diagnostics, opts Options) (linalg.Permutation, *linalg.Dense, error) {
	if cerr := ctx.Err(); cerr != nil {
		return nil, nil, fdxerr.Cancelled(cerr)
	}
	g := ordering.FromPrecision(theta, graphTol)
	perm, err := ordering.OrderObs(opts.Ordering, g, opts.Seed, opts.Obs)
	if err != nil {
		// Already ErrBadInput-wrapped by the ordering package.
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	usp := opts.Obs.StartStage("udu")
	bP, repaired, err := autoregress(theta, perm)
	usp.End()
	if err != nil {
		return nil, nil, err
	}
	if repaired {
		diag.Fallbacks = append(diag.Fallbacks, Fallback{Stage: "spd-repair", Reason: "nearest-SPD diagonal shift before UDU"})
	}
	return perm, bP, nil
}

// autoregress factorizes the permuted precision matrix and returns the
// autoregression matrix B = I − U in permuted coordinates (paper Alg. 1),
// plus whether a nearest-SPD repair was needed to factorize.
func autoregress(theta *linalg.Dense, perm linalg.Permutation) (*linalg.Dense, bool, error) {
	k, _ := theta.Dims()
	thetaP := linalg.PermuteSym(theta, perm)
	u, _, err := linalg.UDU(thetaP)
	repaired := false
	if errors.Is(err, linalg.ErrNotPositiveDefinite) {
		// Numerical slack: nudge the spectrum and retry once.
		fixed, ferr := linalg.NearestSPD(thetaP, 1e-8)
		if ferr != nil {
			return nil, false, ferr
		}
		u, _, err = linalg.UDU(fixed)
		repaired = err == nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("core: UDU factorization: %w", err)
	}
	return linalg.Sub(linalg.Identity(k), u), repaired, nil
}

// columnThreshold computes the per-column cutoff of the adaptive rule:
// max(floor, frac · max_i |b_ij|) for column j restricted to rows above
// the diagonal.
func columnThreshold(bP *linalg.Dense, j int, floor, frac float64) float64 {
	if frac <= 0 {
		return floor
	}
	max := 0.0
	for i := 0; i < j; i++ {
		if v := math.Abs(bP.At(i, j)); v > max {
			max = v
		}
	}
	if t := frac * max; t > floor {
		return t
	}
	return floor
}

// GenerateFDs implements Algorithm 3 on a permuted autoregression matrix:
// for each column j, the rows i<j whose B[i,j] is non-zero and passes the
// adaptive threshold rule (floor and per-column relative fraction) form
// the determinant set of an FD for attribute perm[j]. An exact zero never
// enters, whatever the floor. Indices in the returned FDs are original
// attribute indices.
// Panics if perm's length differs from bP's dimension.
func GenerateFDs(bP *linalg.Dense, perm linalg.Permutation, floor, frac float64) []FD {
	k, _ := bP.Dims()
	if len(perm) != k {
		panic(fmt.Sprintf("core: GenerateFDs permutation length %d != matrix dimension %d", len(perm), k))
	}
	var fds []FD
	for j := 0; j < k; j++ {
		th := columnThreshold(bP, j, floor, frac)
		var lhs []int
		score := 0.0
		for i := 0; i < j; i++ {
			if v := math.Abs(bP.At(i, j)); v > 0 && v >= th {
				lhs = append(lhs, perm[i])
				if v > score {
					score = v
				}
			}
		}
		if len(lhs) > 0 {
			fd := FD{LHS: lhs, RHS: perm[j], Score: score}
			fd.Normalize()
			fds = append(fds, fd)
		}
	}
	SortFDs(fds)
	return fds
}
