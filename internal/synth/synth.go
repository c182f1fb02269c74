// Package synth implements the FDX paper's synthetic data generator
// (§5.1, "Synthetic Data Generation"): a schema's attributes are put in a
// global order and split into consecutive groups of two to four attributes
// (X, Y). Half of the groups get a true FD X→Y (each X-combination mapped
// to a uniformly random Y value); the other half get a strong-but-not-
// functional correlation P(Y=r₀|X=l)=ρ with ρ ~ U[0, 0.85]. Noise flips
// cells of FD-participating attributes to random other domain values.
package synth

import (
	"fmt"
	"math/rand"
	"strconv"

	"fdx/internal/core"
	"fdx/internal/dataset"
)

// Config mirrors the paper's Table 2 settings.
type Config struct {
	// Tuples is the number of rows t (paper: 1,000 or 100,000).
	Tuples int
	// Attributes is the number of columns r (paper: 8–16 or 40–80).
	Attributes int
	// DomainCardinality is the target cardinality d of an FD's LHS domain
	// (paper: 64–216 or 1,000–1,728). Each LHS attribute gets
	// ⌈d^(1/|X|)⌉ values so the cartesian product is ≈ d.
	DomainCardinality int
	// NoiseRate is the fraction of FD-participating cells flipped to a
	// random different value (paper: 1% or 30%).
	NoiseRate float64
	// Seed drives generation.
	Seed int64
}

// Setting labels a (t, r, d, n) combination like the paper's figures, e.g.
// "t=large r=small d=large n=high".
type Setting struct {
	TLarge, RLarge, DLarge, NHigh bool
}

// Config returns the paper's parameter values for the setting. Large tuple
// counts are scaled to 20,000 (from the paper's 100,000) so the full suite
// runs in CI time; the contrast between settings is what the experiments
// compare.
func (s Setting) Config(seed int64) Config {
	c := Config{Seed: seed, Tuples: 1000, Attributes: 12, DomainCardinality: 144, NoiseRate: 0.01}
	if s.TLarge {
		c.Tuples = 20000
	}
	if s.RLarge {
		c.Attributes = 48
	}
	if s.DLarge {
		c.DomainCardinality = 1331
	}
	if s.NHigh {
		c.NoiseRate = 0.30
	}
	return c
}

// Name renders the paper's figure-label form.
func (s Setting) Name() string {
	b := func(v bool, big, small string) string {
		if v {
			return big
		}
		return small
	}
	return fmt.Sprintf("t=%s r=%s d=%s n=%s",
		b(s.TLarge, "large", "small"), b(s.RLarge, "large", "small"),
		b(s.DLarge, "large", "small"), b(s.NHigh, "high", "low"))
}

// Instance is a generated data set with its ground truth.
type Instance struct {
	Relation *dataset.Relation
	// TrueFDs are the planted dependencies (one per FD group).
	TrueFDs []core.FD
	// Correlated lists the non-FD correlated groups (for diagnostics).
	Correlated []core.FD
}

// Generate builds one synthetic instance.
func Generate(cfg Config) *Instance {
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := cfg.Attributes
	names := make([]string, r)
	for i := range names {
		names[i] = "A" + strconv.Itoa(i)
	}
	rel := dataset.New(fmt.Sprintf("synth-t%d-r%d-d%d-n%g", cfg.Tuples, r, cfg.DomainCardinality, cfg.NoiseRate), names...)

	// Split the global attribute order into consecutive groups of size
	// 2–4: |X| ∈ {1,2,3} plus the determined attribute Y.
	type group struct {
		lhs []int
		rhs int
		fd  bool
	}
	var groups []group
	pos := 0
	makeFD := true // alternate FD / correlation groups
	for pos+2 <= r {
		size := 2 + rng.Intn(3) // group size in [2,4]
		if pos+size > r {
			size = r - pos
		}
		if size < 2 {
			break
		}
		lhs := make([]int, size-1)
		for i := range lhs {
			lhs[i] = pos + i
		}
		groups = append(groups, group{lhs: lhs, rhs: pos + size - 1, fd: makeFD})
		makeFD = !makeFD
		pos += size
	}
	// Leftover attributes become independent columns.

	inst := &Instance{Relation: rel}

	// Per-attribute domain sizes: LHS attributes share the cardinality
	// budget; independent attributes get a moderate domain.
	domain := make([]int, r)
	for i := range domain {
		domain[i] = 16 + rng.Intn(16)
	}
	type mapping struct {
		table map[string]int
		rho   float64
		ydom  int
	}
	mappings := make([]*mapping, len(groups))
	for gi, g := range groups {
		per := intRoot(cfg.DomainCardinality, len(g.lhs))
		for _, a := range g.lhs {
			domain[a] = per
		}
		ydom := cfg.DomainCardinality
		if ydom > 4096 {
			ydom = 4096
		}
		m := &mapping{table: map[string]int{}, ydom: ydom}
		if !g.fd {
			m.rho = rng.Float64() * 0.85
		}
		mappings[gi] = m
		fd := core.FD{LHS: append([]int(nil), g.lhs...), RHS: g.rhs}
		fd.Normalize()
		if g.fd {
			inst.TrueFDs = append(inst.TrueFDs, fd)
		} else {
			inst.Correlated = append(inst.Correlated, fd)
		}
	}

	// Generate rows.
	row := make([]int, r)
	vals := make([]string, r)
	for t := 0; t < cfg.Tuples; t++ {
		for a := 0; a < r; a++ {
			row[a] = rng.Intn(domain[a])
		}
		for gi, g := range groups {
			m := mappings[gi]
			key := ""
			for _, a := range g.lhs {
				key += strconv.Itoa(row[a]) + "|"
			}
			y, ok := m.table[key]
			if !ok {
				y = rng.Intn(m.ydom)
				m.table[key] = y
			}
			if g.fd {
				row[g.rhs] = y
			} else {
				// P(Y=y|X) = ρ, otherwise uniform over the rest.
				if rng.Float64() < m.rho {
					row[g.rhs] = y
				} else {
					other := rng.Intn(m.ydom - 1)
					if other >= y {
						other++
					}
					row[g.rhs] = other
				}
			}
		}
		for a := 0; a < r; a++ {
			vals[a] = "v" + strconv.Itoa(row[a])
		}
		rel.AppendRow(vals)
	}

	// Noise: flip cells of FD-participating attributes, column by column in
	// ascending order so the draws land on the same cells for a given seed.
	if cfg.NoiseRate > 0 {
		participating := make([]bool, r)
		for _, fd := range inst.TrueFDs {
			participating[fd.RHS] = true
			for _, a := range fd.LHS {
				participating[a] = true
			}
		}
		for a, ok := range participating {
			if !ok {
				continue
			}
			col := rel.Columns[a]
			card := int32(col.Cardinality())
			if card < 2 {
				continue
			}
			for i := 0; i < rel.NumRows(); i++ {
				if rng.Float64() < cfg.NoiseRate {
					cur := col.Code(i)
					next := int32(rng.Intn(int(card) - 1))
					if next >= cur {
						next++
					}
					col.SetCode(i, next)
				}
			}
		}
	}
	core.SortFDs(inst.TrueFDs)
	return inst
}

// intRoot returns ⌈d^(1/k)⌉ (at least 2).
func intRoot(d, k int) int {
	if k <= 1 {
		return maxInt(2, d)
	}
	lo, hi := 2, d
	for lo < hi {
		mid := (lo + hi) / 2
		if pow(mid, k) >= d {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
		if out > 1<<30 {
			return 1 << 30
		}
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Figure2Settings returns the 8 settings plotted in the paper's Figure 2,
// in subfigure order (a)–(h).
func Figure2Settings() []Setting {
	return []Setting{
		{TLarge: true, RLarge: true, DLarge: true, NHigh: true},     // (a)
		{TLarge: true, RLarge: true, DLarge: true, NHigh: false},    // (b)
		{TLarge: true, RLarge: false, DLarge: true, NHigh: true},    // (c)
		{TLarge: true, RLarge: false, DLarge: true, NHigh: false},   // (d)
		{TLarge: false, RLarge: false, DLarge: true, NHigh: true},   // (e)
		{TLarge: false, RLarge: false, DLarge: true, NHigh: false},  // (f)
		{TLarge: false, RLarge: false, DLarge: false, NHigh: true},  // (g)
		{TLarge: false, RLarge: false, DLarge: false, NHigh: false}, // (h)
	}
}
