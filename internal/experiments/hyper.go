package experiments

import (
	"fmt"
	"strconv"
	"time"

	"fdx"
	"fdx/internal/bayesnet"
	"fdx/internal/core"
	"fdx/internal/dataset"
	"fdx/internal/metrics"
	"fdx/internal/ordering"
	"fdx/internal/synth"
)

// discoverWithPooling runs the core pipeline with the chosen covariance
// estimator and returns index-space FDs.
func discoverWithPooling(rel *dataset.Relation, seed int64, pooled bool) ([]core.FD, error) {
	m, err := core.Discover(rel, core.Options{Seed: seed, PooledCovariance: pooled})
	if err != nil {
		return nil, err
	}
	return m.FDs, nil
}

// Table8 reproduces the sparsity sweep (paper Table 8): FDX's precision,
// recall, F1 and FD count on the benchmark networks across Graphical Lasso
// penalties λ ∈ {0, .002, …, .01}.
func Table8(cfg Config) *Table {
	lambdas := []float64{0, 0.002, 0.004, 0.006, 0.008, 0.010}
	t := &Table{
		Title:  "Table 8: FDX under different sparsity (lambda) settings",
		Header: []string{"Data set", "Metric"},
	}
	for _, l := range lambdas {
		t.Header = append(t.Header, fmt.Sprintf("%.3f", l))
	}
	rows := benchmarkSampleRows(cfg.Fast)
	for _, name := range bayesnet.Names() {
		net, _ := bayesnet.ByName(name)
		rel := net.Sample(rows, benchmarkNoise, cfg.Seed)
		truth := net.TrueFDs()
		pRow := []string{name, "Precision"}
		rRow := []string{"", "Recall"}
		fRow := []string{"", "F1-score"}
		nRow := []string{"", "# of FDs"}
		for _, lambda := range lambdas {
			res, err := fdx.Discover(rel, fdx.Options{Seed: cfg.Seed, Lambda: lambda})
			if err != nil {
				pRow, rRow, fRow, nRow = append(pRow, "-"), append(rRow, "-"), append(fRow, "-"), append(nRow, "-")
				continue
			}
			m := metrics.Evaluate(truth, namedFDsToCore(res.FDs, rel), true)
			pRow = append(pRow, fmt3(m.Precision))
			rRow = append(rRow, fmt3(m.Recall))
			fRow = append(fRow, fmt3(m.F1))
			nRow = append(nRow, strconv.Itoa(len(res.FDs)))
		}
		t.Rows = append(t.Rows, pRow, rRow, fRow, nRow)
		cfg.logf("table8: finished %s", name)
	}
	return t
}

// Table9 reproduces the column-ordering study (paper Table 9): FDX's
// accuracy under the different fill-reducing orderings.
func Table9(cfg Config) *Table {
	t := &Table{
		Title:  "Table 9: FDX under different column ordering methods",
		Header: append([]string{"Data set", "Metric"}, ordering.Methods...),
	}
	rows := benchmarkSampleRows(cfg.Fast)
	for _, name := range bayesnet.Names() {
		net, _ := bayesnet.ByName(name)
		rel := net.Sample(rows, benchmarkNoise, cfg.Seed)
		truth := net.TrueFDs()
		pRow := []string{name, "P"}
		rRow := []string{"", "R"}
		fRow := []string{"", "F1"}
		for _, method := range ordering.Methods {
			res, err := fdx.Discover(rel, fdx.Options{Seed: cfg.Seed, Ordering: method})
			if err != nil {
				pRow, rRow, fRow = append(pRow, "-"), append(rRow, "-"), append(fRow, "-")
				continue
			}
			m := metrics.Evaluate(truth, namedFDsToCore(res.FDs, rel), true)
			pRow = append(pRow, fmt3(m.Precision))
			rRow = append(rRow, fmt3(m.Recall))
			fRow = append(fRow, fmt3(m.F1))
		}
		t.Rows = append(t.Rows, pRow, rRow, fRow)
		cfg.logf("table9: finished %s", name)
	}
	return t
}

// Figure6 reproduces the column-wise scalability study (paper Figure 6):
// FDX's total and model-only runtime as the number of attributes grows,
// averaged over several instances per size. The quadratic trend in the
// column count is the series the paper plots.
func Figure6(cfg Config) *Table {
	t := &Table{
		Title:  "Figure 6: column-wise scalability of FDX",
		Header: []string{"# columns", "mean total (s)", "mean model (s)"},
	}
	start, stop, step, reps, tuples := 4, 190, 10, 2, 1000
	if cfg.Fast {
		stop, step, reps, tuples = 40, 12, 1, 400
	}
	for cols := start; cols <= stop; cols += step {
		var total, model time.Duration
		for rep := 0; rep < reps; rep++ {
			inst := synth.Generate(synth.Config{
				Tuples: tuples, Attributes: cols, DomainCardinality: 64,
				NoiseRate: 0.01, Seed: cfg.Seed + int64(rep),
			})
			res, err := fdx.Discover(inst.Relation, fdx.Options{Seed: cfg.Seed})
			if err != nil {
				continue
			}
			total += res.TransformDuration + res.ModelDuration
			model += res.ModelDuration
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(cols),
			fmt.Sprintf("%.3f", total.Seconds()/float64(reps)),
			fmt.Sprintf("%.3f", model.Seconds()/float64(reps)),
		})
		cfg.logf("figure6: finished %d columns", cols)
	}
	return t
}

// OrderFill is an extension experiment quantifying what Table 9's
// orderings optimize: the fill-in each heuristic incurs on the precision
// matrices estimated from the benchmark networks (lower fill = sparser
// UDUᵀ factors = more parsimonious FD candidates).
func OrderFill(cfg Config) *Table {
	t := &Table{
		Title:  "Ordering fill-in on benchmark precision structures (extension)",
		Header: append([]string{"Data set", "graph edges"}, ordering.Methods...),
	}
	rows := benchmarkSampleRows(cfg.Fast)
	for _, name := range bayesnet.Names() {
		net, _ := bayesnet.ByName(name)
		rel := net.Sample(rows, benchmarkNoise, cfg.Seed)
		m, err := core.Discover(rel, core.Options{Seed: cfg.Seed})
		if err != nil {
			continue
		}
		g := ordering.FromPrecision(m.Theta, 1e-4)
		edges := 0
		for v := 0; v < g.N(); v++ {
			edges += g.Degree(v)
		}
		row := []string{name, strconv.Itoa(edges / 2)}
		for _, method := range ordering.Methods {
			perm, err := ordering.Order(method, g, cfg.Seed)
			if err != nil {
				row = append(row, "error")
				continue
			}
			row = append(row, strconv.Itoa(ordering.Fill(g, perm)))
		}
		t.Rows = append(t.Rows, row)
		cfg.logf("orderfill: finished %s", name)
	}
	return t
}

// RowScale is an extension experiment (not in the paper, which only plots
// column scalability): FDX's runtime split as the number of tuples grows
// with the column count fixed. The transform is the linear-in-rows phase;
// the model phase is row-independent once the covariance is formed.
func RowScale(cfg Config) *Table {
	t := &Table{
		Title:  "Row-wise scalability of FDX (extension)",
		Header: []string{"# rows", "mean total (s)", "mean model (s)"},
	}
	sizes := []int{1000, 5000, 10000, 25000, 50000, 100000}
	reps := 2
	if cfg.Fast {
		sizes = []int{500, 1000, 2000}
		reps = 1
	}
	for _, rows := range sizes {
		var total, model time.Duration
		for rep := 0; rep < reps; rep++ {
			inst := synth.Generate(synth.Config{
				Tuples: rows, Attributes: 12, DomainCardinality: 144,
				NoiseRate: 0.01, Seed: cfg.Seed + int64(rep),
			})
			res, err := fdx.Discover(inst.Relation, fdx.Options{Seed: cfg.Seed})
			if err != nil {
				continue
			}
			total += res.TransformDuration + res.ModelDuration
			model += res.ModelDuration
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(rows),
			fmt.Sprintf("%.3f", total.Seconds()/float64(reps)),
			fmt.Sprintf("%.3f", model.Seconds()/float64(reps)),
		})
		cfg.logf("rowscale: finished %d rows", rows)
	}
	return t
}

// Ablation compares FDX's default stratified pair-covariance estimator to
// the naive pooled estimator on the benchmark networks — the design choice
// DESIGN.md calls out (pooling the per-attribute sort blocks leaks their
// mean differences into the covariance as spurious negative correlation).
func Ablation(cfg Config) *Table {
	t := &Table{
		Title:  "Ablation: stratified vs pooled pair-sample covariance",
		Header: []string{"Data set", "stratified P", "stratified R", "stratified F1", "pooled P", "pooled R", "pooled F1"},
	}
	rows := benchmarkSampleRows(cfg.Fast)
	for _, name := range bayesnet.Names() {
		net, _ := bayesnet.ByName(name)
		rel := net.Sample(rows, benchmarkNoise, cfg.Seed)
		truth := net.TrueFDs()
		row := []string{name}
		for _, pooled := range []bool{false, true} {
			m, err := discoverWithPooling(rel, cfg.Seed, pooled)
			if err != nil {
				row = append(row, "-", "-", "-")
				continue
			}
			s := metrics.Evaluate(truth, m, true)
			row = append(row, fmt3(s.Precision), fmt3(s.Recall), fmt3(s.F1))
		}
		t.Rows = append(t.Rows, row)
		cfg.logf("ablation: finished %s", name)
	}
	return t
}
