package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"fdx"
	"fdx/internal/realdata"
	"fdx/internal/rfi"
)

// realWorldNoise is the error budget used by the syntactic methods on the
// real-world replicas (they carry a few percent missing cells).
const realWorldNoise = 0.05

// Table6 reproduces the real-world comparison (paper Table 6): runtime and
// number of discovered FDs per method per data set.
func Table6(cfg Config) *Table {
	t := &Table{
		Title:  "Table 6: runtime (s) and #FDs on real-world data sets",
		Header: append([]string{"Data set", "Measure"}, MethodNames()...),
	}
	for _, name := range realdata.Names() {
		rel, _ := realdata.ByName(name, cfg.Seed)
		if cfg.Fast && rel.NumRows() > 2000 {
			rel = sampleRows(rel, 2000, cfg.Seed)
		}
		timeRow := []string{name, "time (sec)"}
		fdRow := []string{"", "# of FDs"}
		for _, m := range methodRoster(realWorldNoise, cfg.Seed, cfg.Fast) {
			cfg.logf("table6: %s on %s", m.Name(), name)
			r := runWithTimeout(m, rel, cfg.timeout())
			if r.timedOut || r.err != nil {
				timeRow = append(timeRow, "-")
				fdRow = append(fdRow, "-")
				continue
			}
			timeRow = append(timeRow, fmtDur(r.duration))
			fdRow = append(fdRow, strconv.Itoa(len(r.fds)))
		}
		t.Rows = append(t.Rows, timeRow, fdRow)
	}
	return t
}

// sampleRows takes the first n rows of a relation (used only in fast mode).
func sampleRows(rel *fdx.Relation, n int, seed int64) *fdx.Relation {
	out := fdx.NewRelation(rel.Name, rel.AttrNames()...)
	for j, c := range out.Columns {
		c.Type = rel.Columns[j].Type
	}
	if n > rel.NumRows() {
		n = rel.NumRows()
	}
	for i := 0; i < n; i++ {
		out.AppendRow(rel.Row(i))
	}
	return out
}

// Figure3 reproduces the Hospital case study (paper Figure 3): the
// autoregression matrix estimated by FDX rendered as a heatmap plus the
// discovered FDs.
func Figure3(cfg Config) (string, error) {
	rel, _ := realdata.ByName("hospital", cfg.Seed)
	res, err := fdx.Discover(rel, fdx.Options{Seed: cfg.Seed})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 3: FDX autoregression matrix for Hospital\n\n")
	sb.WriteString(res.Heatmap())
	sb.WriteString("\nDiscovered FDs:\n")
	for _, fd := range res.FDs {
		fmt.Fprintf(&sb, "  %s\n", fd)
	}
	return sb.String(), nil
}

// Figure4 reproduces the RFI output on Hospital (paper Figure 4): each
// attribute's best FD with its reliable-fraction-of-information score, in
// descending score order.
func Figure4(cfg Config) (string, error) {
	rel, _ := realdata.ByName("hospital", cfg.Seed)
	visits := 2000
	if cfg.Fast {
		visits = 150
	}
	fds := rfi.RankedFDs(rel, rfi.Options{Alpha: 1.0, MaxLHS: 2, MaxVisitsPerRHS: visits})
	var sb strings.Builder
	sb.WriteString("Figure 4: FDs discovered by RFI for Hospital\n\n")
	names := rel.AttrNames()
	for _, fd := range fds {
		lhs := make([]string, len(fd.LHS))
		for i, x := range fd.LHS {
			lhs[i] = names[x]
		}
		fmt.Fprintf(&sb, "  %s -> %s (%.6f)\n", strings.Join(lhs, ","), names[fd.RHS], fd.Score)
	}
	return sb.String(), nil
}

// Figure5 reproduces the feature-engineering case study (paper Figure 5):
// FDX's autoregression matrices for Australian Credit Approval and
// Mammographic, with the target-attribute dependencies highlighted.
func Figure5(cfg Config) (string, error) {
	var sb strings.Builder
	cases := []struct{ name, target string }{
		{"australian", "A15"},
		{"mammographic", "severity"},
	}
	for _, c := range cases {
		rel, _ := realdata.ByName(c.name, cfg.Seed)
		// Figure 5 profiles small diagnostic tables with binary attributes;
		// a lower edge threshold surfaces the weaker coefficients the
		// paper's heatmaps show.
		res, err := fdx.Discover(rel, fdx.Options{Seed: cfg.Seed, Threshold: 0.08, RelFraction: -1})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "Figure 5 (%s); %s is the goal attribute\n\n", c.name, c.target)
		sb.WriteString(res.Heatmap())
		sb.WriteString("\nFDs involving the goal attribute:\n")
		for _, fd := range res.FDs {
			if fd.RHS == c.target || contains(fd.LHS, c.target) {
				fmt.Fprintf(&sb, "  %s\n", fd)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
