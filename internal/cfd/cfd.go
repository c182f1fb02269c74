// Package cfd refines approximate FDs into conditional functional
// dependencies: an FD X→Y that only holds approximately over the whole
// relation often holds exactly on subdomains of X. The tableau lists, per
// X-pattern, the dominant Y value, its support and confidence — the
// pattern-tableau form of Bohannon et al.'s CFDs that the FDX paper's
// related work surveys ([4], [13]).
package cfd

import (
	"fmt"
	"sort"
	"strings"

	"fdx/internal/core"
	"fdx/internal/dataset"
)

// Pattern is one tableau row: a constant LHS assignment with its dominant
// RHS value.
type Pattern struct {
	// LHSValues holds the constant values of the FD's determinant
	// attributes, in the FD's LHS order.
	LHSValues []string
	// RHSValue is the dominant determined value under this pattern.
	RHSValue string
	// Support is the number of tuples matching the LHS pattern.
	Support int
	// Confidence is the fraction of matching tuples agreeing with
	// RHSValue.
	Confidence float64
}

// Tableau is the conditional refinement of one FD.
type Tableau struct {
	FD       core.FD
	Patterns []Pattern
	// GlobalConfidence is the support-weighted mean pattern confidence —
	// 1 iff the FD holds exactly wherever its LHS is fully present.
	GlobalConfidence float64
}

// Options configures tableau construction.
type Options struct {
	// MinSupport drops patterns with fewer matching tuples (default 2).
	MinSupport int
	// MinConfidence drops patterns below this confidence (default 0:
	// keep all, letting the caller split clean from dirty subdomains).
	MinConfidence float64
	// MaxPatterns caps the tableau size, keeping the highest-support
	// patterns (default 64).
	MaxPatterns int
}

func (o *Options) defaults() {
	if o.MinSupport == 0 {
		o.MinSupport = 2
	}
	if o.MaxPatterns == 0 {
		o.MaxPatterns = 64
	}
}

// Build constructs the tableau of the FD over the relation. Tuples with
// missing LHS cells match no pattern; missing RHS cells count against
// confidence only when a dominant value exists.
func Build(rel *dataset.Relation, fd core.FD, opts Options) *Tableau {
	opts.defaults()
	n := rel.NumRows()
	type group struct {
		values []string
		counts map[string]int
		total  int
	}
	groups := map[string]*group{}
	for i := 0; i < n; i++ {
		vals := make([]string, len(fd.LHS))
		ok := true
		for gi, a := range fd.LHS {
			v, present := rel.Columns[a].Value(i)
			if !present {
				ok = false
				break
			}
			vals[gi] = v
		}
		if !ok {
			continue
		}
		key := strings.Join(vals, "\x00")
		g := groups[key]
		if g == nil {
			g = &group{values: vals, counts: map[string]int{}}
			groups[key] = g
		}
		g.total++
		if y, present := rel.Columns[fd.RHS].Value(i); present {
			g.counts[y]++
		}
	}

	t := &Tableau{FD: fd}
	weighted := 0.0
	totalSupport := 0
	// Visit groups in sorted key order: the tableau's pattern order (and
	// the float accumulation below) must not depend on map iteration.
	keys := make([]string, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		g := groups[key]
		if g.total < opts.MinSupport {
			continue
		}
		best, bestCount := "", -1
		for v, c := range g.counts {
			if c > bestCount || (c == bestCount && v < best) {
				best, bestCount = v, c
			}
		}
		if bestCount <= 0 {
			continue
		}
		conf := float64(bestCount) / float64(g.total)
		if conf < opts.MinConfidence {
			continue
		}
		t.Patterns = append(t.Patterns, Pattern{
			LHSValues:  g.values,
			RHSValue:   best,
			Support:    g.total,
			Confidence: conf,
		})
		weighted += conf * float64(g.total)
		totalSupport += g.total
	}
	sort.Slice(t.Patterns, func(i, j int) bool {
		if t.Patterns[i].Support != t.Patterns[j].Support {
			return t.Patterns[i].Support > t.Patterns[j].Support
		}
		return strings.Join(t.Patterns[i].LHSValues, "\x00") < strings.Join(t.Patterns[j].LHSValues, "\x00")
	})
	if len(t.Patterns) > opts.MaxPatterns {
		t.Patterns = t.Patterns[:opts.MaxPatterns]
	}
	if totalSupport > 0 {
		t.GlobalConfidence = weighted / float64(totalSupport)
	}
	return t
}

// Format renders the tableau with attribute names.
func (t *Tableau) Format(names []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  (global confidence %.3f)\n", t.FD.Format(names), t.GlobalConfidence)
	for _, p := range t.Patterns {
		lhs := make([]string, len(t.FD.LHS))
		for i, a := range t.FD.LHS {
			lhs[i] = fmt.Sprintf("%s=%s", names[a], p.LHSValues[i])
		}
		fmt.Fprintf(&sb, "  [%s] -> %s=%s  (support %d, confidence %.3f)\n",
			strings.Join(lhs, ", "), names[t.FD.RHS], p.RHSValue, p.Support, p.Confidence)
	}
	return sb.String()
}
