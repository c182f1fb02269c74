package glasso

import (
	"context"
	"fmt"

	"fdx/internal/fdxerr"
	"fdx/internal/linalg"
	"fdx/internal/obs"
	"fdx/internal/par"
)

// BlockDiag records one screened block's solve outcome. It is the
// per-block entry behind Result.Diagnostics: worst-case convergence wins
// at the aggregate level, and this keeps the losing block identifiable.
type BlockDiag struct {
	// Vertices holds the block's variable indices in the full matrix,
	// sorted ascending. The slice aliases the screening partition's
	// storage; callers must treat it as read-only.
	Vertices []int
	// Iterations is the block's outer sweep count (0 for singleton
	// blocks, which are solved in closed form).
	Iterations int
	// Converged reports whether this block met the sweep tolerance
	// within MaxIter.
	Converged bool
}

// BlockedResult is the screened solver's native output: the component
// partition plus one independent glasso Result per component, in
// partition order. Callers that can consume blocks directly (core's
// per-block factorization) avoid ever densifying Θ; Dense() assembles
// the classical full-matrix Result with exact zeros off-block.
type BlockedResult struct {
	// Part is the screening partition the blocks were solved under.
	Part *Partition
	// Blocks holds one Result per component, indexed like Part's
	// components (ascending smallest member). Singleton components get
	// 1×1 closed-form results.
	Blocks []*Result
}

// Iterations returns the worst-case (maximum) sweep count across blocks —
// the quantity comparable to a dense solve's Iterations, since blocks run
// independently.
func (br *BlockedResult) Iterations() int {
	m := 0
	for _, b := range br.Blocks {
		if b.Iterations > m {
			m = b.Iterations
		}
	}
	return m
}

// Converged reports whether every block converged: worst case wins, so a
// single stuck block marks the whole solve non-converged exactly like the
// dense solver would.
func (br *BlockedResult) Converged() bool {
	for _, b := range br.Blocks {
		if !b.Converged {
			return false
		}
	}
	return true
}

// Diagnostics returns the per-block outcome list in partition order.
func (br *BlockedResult) Diagnostics() []BlockDiag {
	d := make([]BlockDiag, len(br.Blocks))
	for c, b := range br.Blocks {
		d[c] = BlockDiag{Vertices: br.Part.Block(c), Iterations: b.Iterations, Converged: b.Converged}
	}
	return d
}

// DensePrecision assembles the full k×k precision matrix Θ: block
// solutions scattered into place, exact zeros everywhere off-block (the
// screening theorem guarantees those entries are zero in the true
// solution, so no arithmetic is involved in producing them).
func (br *BlockedResult) DensePrecision() *linalg.Dense {
	theta := linalg.NewDense(br.Part.K(), br.Part.K())
	for c, b := range br.Blocks {
		linalg.ScatterSym(theta, b.Precision, br.Part.Block(c))
	}
	return theta
}

// DenseCovariance assembles the full k×k covariance estimate W, exact
// zeros off-block (Θ block-diagonal ⇒ W = Θ⁻¹ block-diagonal).
func (br *BlockedResult) DenseCovariance() *linalg.Dense {
	w := linalg.NewDense(br.Part.K(), br.Part.K())
	for c, b := range br.Blocks {
		linalg.ScatterSym(w, b.Covariance, br.Part.Block(c))
	}
	return w
}

// Dense assembles the classical full-matrix Result. With a single
// component the block's Result is returned directly (no copy) — that
// path is bit-identical to the historical dense solver, because a
// whole-matrix block is solved on the original backing without a gather.
func (br *BlockedResult) Dense() *Result {
	if br.Part.K() == 0 {
		return &Result{Covariance: linalg.NewDense(0, 0), Precision: linalg.NewDense(0, 0), Converged: true}
	}
	diags := br.Diagnostics()
	if br.Part.NumBlocks() == 1 {
		r := br.Blocks[0]
		r.Diagnostics = diags
		return r
	}
	return &Result{
		Covariance:  br.DenseCovariance(),
		Precision:   br.DensePrecision(),
		Iterations:  br.Iterations(),
		Converged:   br.Converged(),
		Diagnostics: diags,
	}
}

// SolveBlocks is SolveBlocksContext with a background context.
func SolveBlocks(s *linalg.Dense, opts Options) (*BlockedResult, error) {
	return SolveBlocksContext(context.Background(), s, opts)
}

// SolveBlocksContext runs the screened Graphical Lasso: threshold |S_ij|
// at λ, split S into the connected components of the surviving graph, and
// solve each component as an independent glasso problem. The
// decomposition is exact (Witten/Mazumder block screening), not an
// approximation. Components fan out across a deterministic internal/par
// pool sized by opts.Workers; every block is an independent problem
// touching disjoint state, so results are bit-for-bit identical at any
// worker count. With opts.NoScreen the whole matrix becomes one block —
// the dense reference path — sharing the same arithmetic.
func SolveBlocksContext(ctx context.Context, s *linalg.Dense, opts Options) (res *BlockedResult, err error) {
	opts.defaults()
	sp := opts.Obs.StartStage("glasso")
	defer func() {
		if res != nil {
			sp.Attr("sweeps", res.Iterations())
			sp.Attr("converged", res.Converged())
			sp.Attr("blocks", res.Part.NumBlocks())
		}
		sp.End()
	}()
	opts.Obs = opts.Obs.Under(sp)
	k, cols := s.Dims()
	if k != cols {
		return nil, fdxerr.BadInput("glasso: covariance must be square, got %dx%d", k, cols)
	}
	if !s.IsSymmetric(1e-8) {
		return nil, fdxerr.BadInput("glasso: covariance must be symmetric")
	}

	part := &Partition{}
	if opts.NoScreen {
		trivialPartition(part, k)
	} else {
		ScreenInto(part, s, opts.Lambda)
	}
	n := part.NumBlocks()
	opts.Obs.SetGauge(obs.MGlassoBlocks, float64(n))
	opts.Obs.SetGauge(obs.MGlassoScreenedRatio, part.ScreenedRatio())

	blocks := make([]*Result, n)
	errs := make([]error, n)
	blockOpts := opts
	blockOpts.Workers = 0 // parallelism lives at block granularity only

	pool := par.New(opts.Workers)
	defer pool.Close()
	pool.For(n, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			idx := part.Block(c)
			bsp := opts.Obs.Start("glasso.block")
			bsp.Attr("block", c)
			bsp.Attr("size", len(idx))
			bo := blockOpts
			bo.Obs = opts.Obs.Under(bsp)
			r, berr := solveBlock(ctx, s, idx, bo)
			if berr != nil {
				errs[c] = berr
			} else {
				blocks[c] = r
				bsp.Attr("sweeps", r.Iterations)
				bsp.Attr("converged", r.Converged)
			}
			bsp.End()
		}
	})
	// Deterministic error selection: lowest block index wins regardless
	// of scheduling. A cancelled ctx reports as itself rather than as
	// whichever block happened to observe it first.
	for c, berr := range errs {
		if berr == nil {
			continue
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, fdxerr.Cancelled(cerr)
		}
		if n == 1 {
			return nil, berr
		}
		return nil, fmt.Errorf("glasso: screened block %d (%d vars): %w", c, len(part.Block(c)), berr)
	}
	return &BlockedResult{Part: part, Blocks: blocks}, nil
}

// solveBlock solves one component. Singletons are closed-form; a block
// spanning the whole matrix is solved directly on s (no gather), which
// keeps the single-component path bit-identical to the historical dense
// solver; every other block is gathered into a compact submatrix first.
func solveBlock(ctx context.Context, s *linalg.Dense, idx []int, opts Options) (*Result, error) {
	b := len(idx)
	if b == 1 {
		v := idx[0]
		w := s.At(v, v) + opts.Lambda
		if w <= 0 {
			return nil, fdxerr.BadInput("glasso: non-positive variance %g", w)
		}
		return &Result{
			Covariance: linalg.NewDenseData(1, 1, []float64{w}),
			Precision:  linalg.NewDenseData(1, 1, []float64{1 / w}),
			Iterations: 0,
			Converged:  true,
		}, nil
	}
	sub := s
	if k, _ := s.Dims(); b != k {
		sub = linalg.NewDense(b, b)
		linalg.GatherSym(sub, s, idx)
	}
	// W = S_block + λI is the initial covariance estimate.
	w := sub.Clone()
	w.Symmetrize()
	//fdx:lint-ignore ctxflow O(b) diagonal shift before the cancellable solve; bounded glue
	for i := 0; i < b; i++ {
		w.Add(i, i, opts.Lambda)
	}
	return solveFrom(ctx, sub, w, opts)
}
