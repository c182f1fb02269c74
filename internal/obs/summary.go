package obs

import (
	"fmt"
	"strings"
	"time"
)

// Summary renders the trace as an indented stage tree. Same-named
// siblings collapse into one line with a ×N count and total/mean/max
// durations, so a 60-sweep glasso fit reads as one line, not sixty:
//
//	discover                 41.2ms
//	  transform              12.1ms
//	    worker ×4            11.8ms total
//	      block ×12          11.0ms total (mean 916µs, max 2.1ms)
//	  covariance              1.3ms
//	  fit                    26.0ms
//	    ladder-rung           26.0ms
//	      glasso             24.2ms
//	        glasso-sweep ×31 23.9ms total (mean 771µs, max 1.2ms)
func (t *Tracer) Summary() string {
	if t == nil {
		return ""
	}
	var sb strings.Builder
	summarizeLevel(&sb, t.Roots(), 0)
	return sb.String()
}

// summarizeLevel groups same-named spans at one tree level and renders
// each group, then recurses into the pooled children of each group.
func summarizeLevel(sb *strings.Builder, spans []*Span, depth int) {
	var (
		order  []string
		groups = map[string][]*Span{}
	)
	for _, s := range spans {
		name := s.Name()
		if _, ok := groups[name]; !ok {
			order = append(order, name)
		}
		groups[name] = append(groups[name], s)
	}
	for _, name := range order {
		group := groups[name]
		writeGroupLine(sb, name, group, depth)
		var kids []*Span
		for _, s := range group {
			kids = append(kids, s.Children()...)
		}
		if len(kids) > 0 {
			summarizeLevel(sb, kids, depth+1)
		}
	}
}

// writeGroupLine renders one summary line for a group of same-named
// sibling spans.
func writeGroupLine(sb *strings.Builder, name string, group []*Span, depth int) {
	indent := strings.Repeat("  ", depth)
	if len(group) == 1 {
		s := group[0]
		fmt.Fprintf(sb, "%s%-*s %10s", indent, 24-2*depth, name, fmtDur(s.Duration()))
		if alloc, ok := s.AllocDelta(); ok {
			fmt.Fprintf(sb, "  %s alloc", fmtBytes(alloc))
		}
		if attrs := s.Attrs(); len(attrs) > 0 {
			var parts []string
			for _, a := range attrs {
				parts = append(parts, fmt.Sprintf("%s=%v", a.Key, a.Value))
			}
			fmt.Fprintf(sb, "  [%s]", strings.Join(parts, " "))
		}
		sb.WriteByte('\n')
		return
	}
	var (
		total, max time.Duration
		alloc      uint64
		hasAlloc   bool
	)
	for _, s := range group {
		d := s.Duration()
		total += d
		if d > max {
			max = d
		}
		if a, ok := s.AllocDelta(); ok {
			alloc += a
			hasAlloc = true
		}
	}
	mean := total / time.Duration(len(group))
	label := fmt.Sprintf("%s ×%d", name, len(group))
	fmt.Fprintf(sb, "%s%-*s %10s total (mean %s, max %s)",
		indent, 24-2*depth, label, fmtDur(total), fmtDur(mean), fmtDur(max))
	if hasAlloc {
		fmt.Fprintf(sb, "  %s alloc", fmtBytes(alloc))
	}
	sb.WriteByte('\n')
}

// fmtDur rounds a duration to a readable precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	}
	return d.Round(100 * time.Nanosecond).String()
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(n uint64) string {
	units := []string{"B", "KiB", "MiB", "GiB"}
	v := float64(n)
	i := 0
	for v >= 1024 && i < len(units)-1 {
		v /= 1024
		i++
	}
	if i == 0 {
		return fmt.Sprintf("%d%s", n, units[0])
	}
	return fmt.Sprintf("%.1f%s", v, units[i])
}
