package fdx

import (
	"fdx/internal/cfd"
)

// TableauPattern is one row of a conditional-FD tableau: a constant LHS
// assignment (LHSValues, in the FD's LHS order), its dominant RHS value,
// the number of tuples matching the assignment (Support) and the fraction
// of them agreeing with RHSValue (Confidence).
type TableauPattern = cfd.Pattern

// Tableau refines an approximate FD into its conditional form: per
// LHS-pattern support and confidence, separating the subdomains where the
// dependency holds exactly from those carrying violations.
type Tableau struct {
	FD       FD
	Patterns []TableauPattern
	// GlobalConfidence is the support-weighted mean confidence; 1 iff the
	// FD holds exactly wherever its determinant is fully present.
	GlobalConfidence float64
}

// TableauOptions configures BuildTableau. MinSupport drops patterns with
// fewer matching tuples (default 2), MinConfidence drops patterns below
// that confidence (default 0: keep all), and MaxPatterns caps the tableau
// size, keeping the highest-support patterns (default 64).
type TableauOptions = cfd.Options

// BuildTableau computes the conditional refinement of a discovered FD —
// the pattern-tableau reading of conditional functional dependencies.
func BuildTableau(rel *Relation, fd FD, opts TableauOptions) (*Tableau, error) {
	cf, err := fdToCore(fd, rel)
	if err != nil {
		return nil, err
	}
	t := cfd.Build(rel, cf, opts)
	return &Tableau{FD: fd, Patterns: t.Patterns, GlobalConfidence: t.GlobalConfidence}, nil
}

// CleanPatterns returns the patterns holding exactly (confidence 1).
func (t *Tableau) CleanPatterns() []TableauPattern {
	var out []TableauPattern
	for _, p := range t.Patterns {
		//fdx:lint-ignore floatcmp confidence is a count ratio; it is exactly 1 iff the pattern holds on every supporting tuple
		if p.Confidence == 1 {
			out = append(out, p)
		}
	}
	return out
}

// DirtyPatterns returns patterns carrying violations, most-violated first.
func (t *Tableau) DirtyPatterns() []TableauPattern {
	var out []TableauPattern
	for _, p := range t.Patterns {
		if p.Confidence < 1 {
			out = append(out, p)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Confidence > out[j].Confidence; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
