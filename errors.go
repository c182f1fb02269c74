package fdx

import (
	"fdx/internal/core"
	"fdx/internal/fdxerr"
)

// The typed failure taxonomy of the discovery pipeline. Every error
// returned by Discover, DiscoverContext, and the Accumulator wraps exactly
// one of these sentinels, so callers can classify failures with errors.Is
// instead of parsing message strings:
//
//	res, err := fdx.DiscoverContext(ctx, rel, opts)
//	switch {
//	case errors.Is(err, fdx.ErrBadInput):
//		// malformed relation or options: fix the input, don't retry
//	case errors.Is(err, fdx.ErrNotConverged):
//		// only with Options.RequireConvergence: relax it or add data
//	case errors.Is(err, context.DeadlineExceeded):
//		// cancelled: also matches errors.Is(err, fdx.ErrCancelled)
//	case errors.Is(err, fdx.ErrInternal):
//		// recovered internal panic: a bug in fdx, please report
//	}
//
// Numerical failures (ErrSingularCovariance, ErrNonPositivePivot) are only
// returned after the regularization fallback ladder is exhausted; a run
// that recovered via the ladder succeeds and records what happened in
// Result.Diagnostics instead.
var (
	// ErrBadInput marks malformed caller input: duplicate attribute
	// names, mismatched schemas or dimensions, an unknown ordering method.
	ErrBadInput = fdxerr.ErrBadInput
	// ErrSingularCovariance marks a covariance estimate whose precision
	// could not be recovered even with maximal fallback shrinkage.
	ErrSingularCovariance = fdxerr.ErrSingularCovariance
	// ErrNonPositivePivot marks a factorization that hit a non-positive
	// pivot on every rung of the fallback ladder.
	ErrNonPositivePivot = fdxerr.ErrNonPositivePivot
	// ErrNotConverged marks an iterative solve that exhausted its budget
	// under Options.RequireConvergence.
	ErrNotConverged = fdxerr.ErrNotConverged
	// ErrCancelled marks work abandoned on context cancellation; the
	// error also matches the context's own sentinel.
	ErrCancelled = fdxerr.ErrCancelled
	// ErrInternal marks an internal invariant panic recovered at the
	// public API boundary.
	ErrInternal = fdxerr.ErrInternal
	// ErrCorruptCheckpoint marks a checkpoint snapshot or WAL that failed
	// validation on restore (bad magic, CRC mismatch, impossible
	// dimensions, mid-log torn record) or could not be durably written
	// (short write, failed fsync or rename). The in-memory accumulator is
	// still good; the on-disk checkpoint must not be trusted.
	ErrCorruptCheckpoint = fdxerr.ErrCorruptCheckpoint
	// ErrCheckpointVersion marks a checkpoint written by an incompatible
	// format version: the bytes are intact but this build cannot interpret
	// them.
	ErrCheckpointVersion = fdxerr.ErrCheckpointVersion
	// ErrShardMismatch marks two shard states that cannot be merged: their
	// options fingerprints or attribute schemas differ, or their batch
	// coverage partially overlaps (the same batch absorbed by both sides).
	// Both states are individually intact; the merge request is wrong.
	ErrShardMismatch = fdxerr.ErrShardMismatch
)

// Fallback records one degradation step the pipeline took instead of
// failing: the stage that failed ("glasso", "factorize", "spd-repair"),
// the diagonal shrinkage ε applied on the retry, and the reason.
type Fallback = core.Fallback

// Diagnostics reports how a discovery run degraded. A fully healthy run
// has GlassoConverged true and every slice empty; anything else means the
// result is valid but was obtained through graceful degradation.
type Diagnostics struct {
	// GlassoSweeps is the number of outer sweeps of the accepted
	// Graphical Lasso solve.
	GlassoSweeps int
	// GlassoConverged reports whether that solve met its tolerance within
	// its iteration budget. False means the estimate is the best iterate
	// after the full fallback ladder still failed to converge. For a
	// screened (block-diagonal) solve every block must converge.
	GlassoConverged bool
	// GlassoBlocks is the number of connected components the covariance
	// screening pass split the accepted solve into (1 = screening found
	// nothing and the solve ran dense).
	GlassoBlocks int
	// Fallbacks lists the regularization fallbacks applied, in order.
	Fallbacks []Fallback
	// SanitizedColumns names the attributes whose covariance statistics
	// were non-finite (NaN/±Inf) and were quarantined before structure
	// learning; dependencies involving them may be missing.
	SanitizedColumns []string
}

// Degraded reports whether the run deviated from the healthy path in any
// recorded way.
func (d *Diagnostics) Degraded() bool {
	return !d.GlassoConverged || len(d.Fallbacks) > 0 || len(d.SanitizedColumns) > 0
}

// guard converts a panic escaping the discovery internals into an
// ErrInternal-wrapped error at the public API boundary, so one poisoned
// input cannot take down a whole serving process. Deferred by every
// exported entry point that runs the pipeline.
func guard(stage string, err *error) {
	if r := recover(); r != nil {
		*err = fdxerr.Recovered(stage, r)
	}
}
