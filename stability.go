package fdx

import (
	"fmt"

	"fdx/internal/core"
)

// StabilityOptions configures DiscoverStable: Runs resampled discovery
// runs (default 20), each on a SampleFraction of the tuples drawn without
// replacement (default 0.8) with resampling driven by Seed, keeping the
// edges that recur in at least MinFrequency of the runs (default 0.7).
type StabilityOptions = core.StabilityOptions

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
	stable, edges, err := core.StabilitySelection(rel, coreOptions(opts), sopts)
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
