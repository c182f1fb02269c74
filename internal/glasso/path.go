package glasso

import (
	"context"
	"sort"

	"fdx/internal/linalg"
	"fdx/internal/par"
)

// PathResult is the solution at one penalty of a regularization path.
type PathResult struct {
	Lambda float64
	Result *Result
}

// Path solves the Graphical Lasso for a sequence of penalties. The
// largest penalty — whose sparse solution converges fastest — is solved
// first as the anchor; every remaining penalty warm-starts from the
// anchor's covariance estimate. Because the anchor is the shared warm
// start (rather than each solve chaining off its neighbor), the remaining
// solves are independent and fan out across opts.Workers goroutines, and
// the result at every penalty is identical at any worker count. Results
// are returned in the caller's original order. No pipeline path calls it:
// the sparsity sweep of the paper's Table 8 (experiments.Table8) runs one
// full discovery per penalty.
func Path(s *linalg.Dense, lambdas []float64, opts Options) ([]PathResult, error) {
	type indexed struct {
		lambda float64
		pos    int
	}
	order := make([]indexed, len(lambdas))
	for i, l := range lambdas {
		order[i] = indexed{lambda: l, pos: i}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].lambda > order[j].lambda })

	out := make([]PathResult, len(lambdas))
	if len(order) == 0 {
		return out, nil
	}

	anchorOpts := opts
	anchorOpts.Lambda = order[0].lambda
	anchor, err := Solve(s, anchorOpts)
	if err != nil {
		return nil, err
	}
	out[order[0].pos] = PathResult{Lambda: order[0].lambda, Result: anchor}

	rest := order[1:]
	if len(rest) == 0 {
		return out, nil
	}
	workers := opts.Workers
	if workers > len(rest) {
		workers = len(rest)
	}
	pool := par.New(workers)
	errs := make([]error, len(rest))
	pool.For(len(rest), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := opts
			o.Lambda = rest[i].lambda
			// Parallelism is spent on the penalty fan-out here; the
			// block-level fan-out inside each solve stays serial so the
			// two levels do not multiply.
			o.Workers = 1
			res, err := solveWarm(s, anchor.Covariance, o)
			if err != nil {
				errs[i] = err
				continue
			}
			out[rest[i].pos] = PathResult{Lambda: rest[i].lambda, Result: res}
		}
	})
	pool.Close()
	// Report the first failure in penalty order, independent of scheduling.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// solveWarm is Solve with an initial covariance estimate. The initial W is
// re-centred so its diagonal matches S+λI (the glasso invariant), keeping
// the warm start feasible. The warm matrix w0 is cloned, never mutated,
// so one anchor estimate can seed many concurrent solves.
func solveWarm(s, w0 *linalg.Dense, opts Options) (*Result, error) {
	opts.defaults()
	k, _ := s.Dims()
	if k <= 1 || w0 == nil {
		return Solve(s, opts)
	}
	r0, c0 := w0.Dims()
	if r0 != k || c0 != k {
		return Solve(s, opts)
	}
	w := w0.Clone()
	for i := 0; i < k; i++ {
		w.Set(i, i, s.At(i, i)+opts.Lambda)
	}
	return solveFrom(context.Background(), s, w, opts)
}
