// Package profile assembles a data-profiling report from the discovery
// primitives: per-column statistics, approximate keys, FDX dependencies,
// and the FD-violation error rate — the data-preparation read-out of the
// paper's §5.5, in one place.
package profile

import (
	"fmt"
	"strings"
	"time"

	"fdx"
	"fdx/internal/dataset"
	"fdx/internal/ind"
	"fdx/internal/ucc"
)

// Options configures report generation.
type Options struct {
	// Discovery holds the FDX options.
	Discovery fdx.Options
	// KeyError is the approximate-key budget (default 0.01).
	KeyError float64
	// MaxKeySize caps key combination size (default 3).
	MaxKeySize int
	// Deadline bounds the (potentially exponential) key search.
	KeyBudget time.Duration
}

// defaults fills unset fields. (fdx:numeric-kernel: the exact zero value is
// the "unset" sentinel on option fields, never a computed float.)
func (o *Options) defaults() {
	if o.KeyError == 0 {
		o.KeyError = 0.01
	}
	if o.MaxKeySize == 0 {
		o.MaxKeySize = 3
	}
	if o.KeyBudget == 0 {
		o.KeyBudget = 10 * time.Second
	}
}

// ColumnProfile summarizes one attribute.
type ColumnProfile struct {
	Name        string
	Type        dataset.Type
	Cardinality int
	MissingRate float64
	InFD        bool
}

// Report is a full profiling result.
type Report struct {
	Name      string
	Rows      int
	Columns   []ColumnProfile
	FDs       []fdx.FD
	AttrNames []string
	Keys      []ucc.UCC
	// ForeignKeys are the unary inclusion dependencies with key-like
	// referenced attributes — join-path candidates.
	ForeignKeys []ind.IND
	// ErrorRate is the fraction of rows violating at least one FD.
	ErrorRate float64
}

// Build profiles the relation.
func Build(rel *dataset.Relation, opts Options) (*Report, error) {
	opts.defaults()
	res, err := fdx.Discover(rel, opts.Discovery)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Name:      rel.Name,
		Rows:      rel.NumRows(),
		FDs:       res.FDs,
		AttrNames: rel.AttrNames(),
	}
	n := rel.NumRows()
	for _, col := range rel.Columns {
		miss := 0.0
		if n > 0 {
			miss = float64(col.MissingCount()) / float64(n)
		}
		rep.Columns = append(rep.Columns, ColumnProfile{
			Name:        col.Name,
			Type:        col.Type,
			Cardinality: col.Cardinality(),
			MissingRate: miss,
			InFD:        res.HasFDWith(col.Name),
		})
	}
	rep.Keys = ucc.Discover(rel, ucc.Options{
		MaxError: opts.KeyError,
		MaxSize:  opts.MaxKeySize,
		MaxUCCs:  16,
		Deadline: time.Now().Add(opts.KeyBudget),
	})
	rep.ForeignKeys = ind.ForeignKeyCandidates(ind.Discover(rel, ind.Options{MaxError: opts.KeyError}))
	if rep.ErrorRate, err = fdx.ErrorRate(rel, res.FDs); err != nil {
		return nil, err
	}
	return rep, nil
}

// String renders the report as a plain-text profile.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile of %s: %d rows, %d attributes\n\n", r.Name, r.Rows, len(r.Columns))
	fmt.Fprintf(&sb, "%-20s %-12s %9s %8s  %s\n", "attribute", "type", "distinct", "missing", "dependencies")
	sb.WriteString(strings.Repeat("-", 72))
	sb.WriteByte('\n')
	for _, c := range r.Columns {
		dep := ""
		if c.InFD {
			dep = "in FD"
		}
		fmt.Fprintf(&sb, "%-20s %-12s %9d %7.1f%%  %s\n",
			c.Name, c.Type, c.Cardinality, 100*c.MissingRate, dep)
	}
	sb.WriteString("\ndiscovered FDs:\n")
	if len(r.FDs) == 0 {
		sb.WriteString("  (none)\n")
	}
	for _, fd := range r.FDs {
		fmt.Fprintf(&sb, "  %s\n", fd)
	}
	sb.WriteString("\napproximate keys:\n")
	if len(r.Keys) == 0 {
		sb.WriteString("  (none within budget)\n")
	}
	for _, k := range r.Keys {
		names := make([]string, len(k.Attrs))
		for i, a := range k.Attrs {
			names[i] = r.AttrNames[a]
		}
		fmt.Fprintf(&sb, "  (%s)  error %.3f\n", strings.Join(names, ", "), k.Error)
	}
	sb.WriteString("\nforeign-key candidates (A \u2286 B, B key-like):\n")
	if len(r.ForeignKeys) == 0 {
		sb.WriteString("  (none)\n")
	}
	for _, d := range r.ForeignKeys {
		fmt.Fprintf(&sb, "  %s \u2286 %s  (coverage %.3f)\n",
			r.AttrNames[d.Dependent], r.AttrNames[d.Referenced], d.Coverage)
	}
	fmt.Fprintf(&sb, "\nFD violation row rate: %.2f%%\n", 100*r.ErrorRate)
	return sb.String()
}
