// Package rfi implements the Reliable Fraction of Information FD scoring
// and search of Mandros, Boley, Vreeken ("Discovering Reliable Approximate
// Functional Dependencies", KDD 2017): for each target attribute Y it
// searches determinant sets X maximizing the bias-corrected score
//
//	F̂(X;Y) = (I(X;Y) − E₀[I(X;Y)]) / H(Y),
//
// where E₀ is the expected mutual information under the permutation null
// model. The search is branch-and-bound with an admissible optimistic bound
// and an α-approximation knob: a branch is pruned when α times its bound
// cannot beat the incumbent, giving results within factor α of optimal
// (α = 1 means exact search). As in the FDX paper's setup (§5.1), the
// discovery keeps the top-1 FD per attribute.
package rfi

import (
	"sort"
	"time"

	"fdx/internal/attrset"
	"fdx/internal/core"
	"fdx/internal/dataset"
	"fdx/internal/stats"
)

// Options configures the RFI search.
type Options struct {
	// Alpha is the approximation parameter in (0, 1]; 1 = exact search
	// (paper evaluates α ∈ {0.3, 0.5, 1}).
	Alpha float64
	// MinScore is the smallest reliable fraction of information for an FD
	// to be reported (default 0.05, filtering noise-level scores).
	MinScore float64
	// MaxLHS caps the determinant size (default 4).
	MaxLHS int
	// MaxVisitsPerRHS bounds scored candidates per target (default 2000),
	// a safety valve — the real RFI has no such cap and the paper shows it
	// timing out on wide data.
	MaxVisitsPerRHS int
	// Deadline, when non-zero, stops the search with partial results once
	// the wall clock passes it.
	Deadline time.Time
}

// defaults fills unset fields. (fdx:numeric-kernel: the exact zero value is
// the "unset" sentinel on option fields, never a computed float.)
func (o *Options) defaults() {
	if o.Alpha == 0 {
		o.Alpha = 1
	}
	if o.MinScore == 0 {
		o.MinScore = 0.05
	}
	if o.MaxLHS == 0 {
		o.MaxLHS = 4
	}
	if o.MaxVisitsPerRHS == 0 {
		o.MaxVisitsPerRHS = 2000
	}
}

// Discover returns at most one FD per attribute: the highest-scoring
// reliable determinant set found for that attribute.
func Discover(rel *dataset.Relation, opts Options) []core.FD {
	opts.defaults()
	k := rel.NumCols()
	n := rel.NumRows()
	if k < 2 || n == 0 {
		return nil
	}
	labels := make([][]int, k)
	for j := 0; j < k; j++ {
		labels[j] = columnLabels(rel.Columns[j])
	}
	var fds []core.FD
	for rhs := 0; rhs < k; rhs++ {
		if !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
			break
		}
		set, score := searchTarget(labels, rhs, &opts)
		if score >= opts.MinScore && !set.IsEmpty() {
			fd := core.FD{LHS: set.Members(), RHS: rhs, Score: score}
			fd.Normalize()
			fds = append(fds, fd)
		}
	}
	core.SortFDs(fds)
	return fds
}

// searchTarget runs the branch-and-bound search for one RHS attribute.
func searchTarget(labels [][]int, rhs int, opts *Options) (attrset.Set, float64) {
	k := len(labels)
	y := labels[rhs]

	type frame struct {
		set    attrset.Set
		joint  []int
		bound  float64
		maxExt int // extensions limited to attributes > maxExt for canonical enumeration
	}

	var best attrset.Set
	bestScore := 0.0
	visits := 0

	var agenda []frame
	for a := 0; a < k; a++ {
		if a == rhs {
			continue
		}
		agenda = append(agenda, frame{set: attrset.New(a), joint: labels[a], bound: 1, maxExt: a})
	}

	for len(agenda) > 0 && visits < opts.MaxVisitsPerRHS {
		if visits%8 == 0 && !opts.Deadline.IsZero() && time.Now().After(opts.Deadline) {
			break
		}
		// Depth-first with best-bound ordering at each expansion keeps
		// memory small; pop the most promising frame.
		bestIdx := 0
		for i := range agenda {
			if agenda[i].bound > agenda[bestIdx].bound {
				bestIdx = i
			}
		}
		fr := agenda[bestIdx]
		agenda = append(agenda[:bestIdx], agenda[bestIdx+1:]...)

		// α-pruning: the branch cannot α-beat the incumbent.
		if opts.Alpha*fr.bound <= bestScore {
			continue
		}
		visits++
		c := stats.NewContingency(fr.joint, y)
		score := stats.ReliableFractionOfInformation(c)
		//fdx:lint-ignore floatcmp exact-tie check prefers the smaller determinant set; a tolerance would make the preference order-dependent
		if score > bestScore || (score == bestScore && fr.set.Len() < best.Len()) {
			bestScore = score
			best = fr.set
		}
		bound := stats.RFIUpperBound(c)
		if fr.set.Len() >= opts.MaxLHS || opts.Alpha*bound <= bestScore {
			continue
		}
		for a := fr.maxExt + 1; a < k; a++ {
			if a == rhs || fr.set.Has(a) {
				continue
			}
			agenda = append(agenda, frame{
				set:    fr.set.With(a),
				joint:  stats.JointLabels(fr.joint, labels[a]),
				bound:  bound,
				maxExt: a,
			})
		}
	}
	return best, bestScore
}

// columnLabels converts a column to integer labels; NULLs share a single
// label (RFI treats missingness as a value, matching its use on data with
// naturally-missing cells).
func columnLabels(col *dataset.Column) []int {
	out := make([]int, col.Len())
	for i := range out {
		code := col.Code(i)
		if code == dataset.Missing {
			out[i] = -1
		} else {
			out[i] = int(code)
		}
	}
	return out
}

// RankedFDs returns every target's best FD sorted by descending score (the
// presentation of the paper's Figure 4).
func RankedFDs(rel *dataset.Relation, opts Options) []core.FD {
	fds := Discover(rel, opts)
	sort.Slice(fds, func(i, j int) bool { return fds[i].Score > fds[j].Score })
	return fds
}
