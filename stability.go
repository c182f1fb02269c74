package fdx

import (
	"fmt"

	"fdx/internal/core"
)

// StabilityOptions configures DiscoverStable.
type StabilityOptions struct {
	// Runs is the number of resampled discovery runs (default 20).
	Runs int
	// MinFrequency is the fraction of runs an edge must recur in to be
	// kept (default 0.7).
	MinFrequency float64
	// SampleFraction is the fraction of tuples drawn per run (default 0.8).
	SampleFraction float64
	// Seed drives resampling.
	Seed int64
}

// EdgeStability reports how often a dependency edge recurred across the
// resampled runs.
type EdgeStability struct {
	LHS, RHS  string
	Frequency float64
}

// DiscoverStable runs FDX on repeated subsamples of the relation and keeps
// only the dependency edges that recur in at least MinFrequency of the
// runs — stability selection in the sense of Meinshausen & Bühlmann,
// trading a small amount of recall for strong false-discovery control on
// very noisy data. It returns the stable FDs and the full per-edge
// frequency table (sorted by descending frequency).
// Like Discover, it returns ErrBadInput or ErrInternal errors, never panics.
func DiscoverStable(rel *Relation, opts Options, sopts StabilityOptions) (fds []FD, freqs []EdgeStability, err error) {
	defer guard("fdx: DiscoverStable", &err)
	if verr := core.ValidateRelation(rel); verr != nil {
		return nil, nil, fmt.Errorf("fdx: %w", verr)
	}
	stable, edges, err := core.StabilitySelection(rel, coreOptions(opts), core.StabilityOptions{
		Runs:           sopts.Runs,
		MinFrequency:   sopts.MinFrequency,
		SampleFraction: sopts.SampleFraction,
		Seed:           sopts.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	names := rel.AttrNames()
	for _, fd := range stable {
		fds = append(fds, fdFromCore(fd, names))
	}
	for _, f := range edges {
		freqs = append(freqs, EdgeStability{
			LHS: names[f.LHS], RHS: names[f.RHS], Frequency: f.Frequency,
		})
	}
	return fds, freqs, nil
}
