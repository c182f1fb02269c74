package core

import (
	"math/rand"
	"sort"

	"fdx/internal/dataset"
)

// StabilityOptions configures stability selection for FD edges.
type StabilityOptions struct {
	// Runs is the number of resampled discovery runs (default 20).
	Runs int
	// MinFrequency is the fraction of runs an edge must appear in to be
	// kept (default 0.7).
	MinFrequency float64
	// SampleFraction is the fraction of tuples drawn (without
	// replacement) for each run (default 0.8).
	SampleFraction float64
	// Seed drives resampling.
	Seed int64
}

// defaults fills unset fields. (fdx:numeric-kernel: the exact zero value is
// the "unset" sentinel on option fields, never a computed float.)
func (o *StabilityOptions) defaults() {
	if o.Runs == 0 {
		o.Runs = 20
	}
	if o.MinFrequency == 0 {
		o.MinFrequency = 0.7
	}
	if o.SampleFraction == 0 {
		o.SampleFraction = 0.8
	}
}

// EdgeFrequency is the stability of one dependency edge.
type EdgeFrequency struct {
	LHS, RHS  int
	Frequency float64
}

// StabilitySelection runs discovery on repeated subsamples of the relation
// and keeps the edges that recur in at least MinFrequency of the runs —
// a robustness wrapper in the spirit of Meinshausen & Bühlmann's stability
// selection for the lasso, which the structure-learning literature the
// paper builds on recommends for controlling false discoveries.
//
// It returns the stable FDs (edges regrouped per RHS, scored by their
// frequency) and the full per-edge frequency table.
func StabilitySelection(rel *dataset.Relation, opts Options, sopts StabilityOptions) ([]FD, []EdgeFrequency, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	sopts.defaults()
	rng := rand.New(rand.NewSource(sopts.Seed))
	counts := map[[2]int]int{}
	for run := 0; run < sopts.Runs; run++ {
		sub := subsample(rel, rng, sopts.SampleFraction)
		o := opts
		o.Seed = sopts.Seed + int64(run+1)
		m, err := Discover(sub, o)
		if err != nil {
			return nil, nil, err
		}
		for _, fd := range m.FDs {
			for _, e := range fd.Edges() {
				counts[e]++
			}
		}
	}
	var freqs []EdgeFrequency
	for e, c := range counts {
		freqs = append(freqs, EdgeFrequency{
			LHS: e[0], RHS: e[1],
			Frequency: float64(c) / float64(sopts.Runs),
		})
	}
	sort.Slice(freqs, func(i, j int) bool {
		//fdx:lint-ignore floatcmp frequencies are count ratios c/Runs; the exact compare keeps the comparator transitive, which a tolerance would break
		if freqs[i].Frequency != freqs[j].Frequency {
			return freqs[i].Frequency > freqs[j].Frequency
		}
		if freqs[i].RHS != freqs[j].RHS {
			return freqs[i].RHS < freqs[j].RHS
		}
		return freqs[i].LHS < freqs[j].LHS
	})

	// Regroup stable edges into per-RHS FDs.
	byRHS := map[int][]int{}
	score := map[int]float64{}
	for _, f := range freqs {
		if f.Frequency >= sopts.MinFrequency {
			byRHS[f.RHS] = append(byRHS[f.RHS], f.LHS)
			if f.Frequency > score[f.RHS] {
				score[f.RHS] = f.Frequency
			}
		}
	}
	var fds []FD
	for rhs, lhs := range byRHS {
		fd := FD{LHS: lhs, RHS: rhs, Score: score[rhs]}
		fd.Normalize()
		if len(fd.LHS) > 0 {
			fds = append(fds, fd)
		}
	}
	SortFDs(fds)
	return fds, freqs, nil
}

// subsample draws a fraction of the rows without replacement, kept in
// their original order.
func subsample(rel *dataset.Relation, rng *rand.Rand, fraction float64) *dataset.Relation {
	n := rel.NumRows()
	take := int(float64(n) * fraction)
	if take < 2 {
		take = n
	}
	idx := rng.Perm(n)[:take]
	sort.Ints(idx)
	return rel.Gather(idx)
}
