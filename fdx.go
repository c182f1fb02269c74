// Package fdx discovers functional dependencies in noisy relational data.
//
// It implements FDX (Zhang, Guo, Rekatsinas, SIGMOD 2020), which treats FD
// discovery as structure learning: the input relation is transformed into
// binary tuple-pair equality samples, a sparse inverse covariance matrix of
// those samples is estimated with the Graphical Lasso, and its UDUᵀ
// factorization yields an autoregression matrix whose non-zero entries are
// the discovered dependencies.
//
// Basic usage:
//
//	rel, err := fdx.LoadCSV("hospital.csv")
//	...
//	res, err := fdx.Discover(rel, fdx.Options{})
//	for _, fd := range res.FDs {
//		fmt.Println(fd)
//	}
//
// The exported API is intentionally small; the substrates (linear algebra,
// Graphical Lasso, orderings, baselines' lattice machinery) live under
// internal/.
package fdx

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"fdx/internal/core"
	"fdx/internal/dataset"
	"fdx/internal/obs"
)

// Relation is a typed table with named attributes and explicit missing
// values. Construct one with LoadCSV, ReadCSV, or NewRelation+AppendRow.
type Relation = dataset.Relation

// LoadCSV reads a relation from a CSV file with a header row; column types
// (categorical, numeric, text) are inferred and empty cells become NULLs.
func LoadCSV(path string) (*Relation, error) { return dataset.LoadCSV(path) }

// ReadCSV parses a relation from CSV data.
func ReadCSV(name string, r io.Reader) (*Relation, error) { return dataset.ReadCSV(name, r) }

// LoadJSONL reads a relation from a JSON Lines file (one flat object per
// line; missing keys and nulls become NULL cells).
func LoadJSONL(path string) (*Relation, error) { return dataset.LoadJSONL(path) }

// ReadJSONL parses a relation from JSON Lines data.
func ReadJSONL(name string, r io.Reader) (*Relation, error) { return dataset.ReadJSONL(name, r) }

// NewRelation creates an empty relation with categorical attributes.
func NewRelation(name string, attrs ...string) *Relation { return dataset.New(name, attrs...) }

// FD is a discovered functional dependency over attribute names.
type FD struct {
	// LHS holds the determinant attribute names.
	LHS []string
	// RHS is the determined attribute name.
	RHS string
	// Score is the largest absolute autoregression coefficient on the LHS
	// — a confidence proxy in (0, 1].
	Score float64
}

// String renders the FD as "A,B -> C".
func (fd FD) String() string { return strings.Join(fd.LHS, ",") + " -> " + fd.RHS }

// Options configures discovery. The zero value uses the defaults of the
// paper's configuration: no extra sparsity penalty, minimum-degree column
// ordering, and the adaptive coefficient threshold (absolute floor plus a
// per-column relative rule). Each numeric or named field's comment gives
// its valid range; the other fields accept any value. Validate checks the
// ranges, and every entry point returns ErrBadInput for a value outside
// its range before any stage runs.
type Options struct {
	// Lambda is the Graphical Lasso sparsity penalty (paper Table 8).
	// Valid: finite and ≥ 0.
	Lambda float64
	// Threshold is the absolute floor on |B| coefficients for an FD edge
	// (0 = default 0.05). An edge must also pass the per-column relative
	// rule |b| ≥ RelFraction·(column max), which adapts to the data set's
	// coefficient scale. Only non-zero coefficients ever form an edge
	// (paper Alg. 3), so a negative Threshold means no absolute floor.
	// Valid: any finite value.
	Threshold float64
	// RelFraction is the relative per-column threshold fraction
	// (default 0.4); set negative to disable the relative rule.
	// Valid: ≤ 1 and not NaN.
	RelFraction float64
	// Ordering selects the column-ordering heuristic: "heuristic"
	// (minimum degree, default), "natural", "amd", "colamd", "metis",
	// "nesdis", "reverse", or "random" (paper Table 9).
	// Valid: empty or one of those names.
	Ordering string
	// MaxRows caps the tuples used by the pair transform (0 = all);
	// sampling accelerates large inputs at a small accuracy cost.
	// Valid: ≥ 0.
	MaxRows int
	// NumericTolerance treats numeric values within this fraction of the
	// column range as equal in the pair transform.
	// Valid: finite and ≥ 0.
	NumericTolerance float64
	// TextSimilarity enables 3-gram Jaccard similarity for text columns.
	TextSimilarity bool
	// Seed drives the transform's shuffling (0 is a valid fixed seed).
	Seed int64
	// RequireConvergence makes a Graphical Lasso estimate that still has
	// not converged after the full regularization fallback ladder a hard
	// ErrNotConverged failure. By default such an estimate is accepted as
	// a degraded result with Diagnostics.GlassoConverged == false.
	RequireConvergence bool
	// Tracer, when non-nil, records a span tree of the run — every
	// pipeline stage, each transform worker, each glasso sweep and ladder
	// rung — exportable as Chrome trace-event JSON (Tracer.WriteJSON,
	// loadable in Perfetto) or a text summary (Tracer.Summary). Telemetry
	// never changes results: FDs and B are identical with or without it.
	Tracer *Tracer
	// Metrics, when non-nil, receives run counters (rows absorbed, glasso
	// sweeps, fallback escalations, ...) and per-stage latency
	// histograms, exportable in Prometheus text format or via expvar.
	Metrics *Metrics
	// MetricLabels, when set, are Prometheus-style key/value pairs
	// (alternating) appended to every metric name this run records, so a
	// host sharing one registry across tenants or shards gets separate
	// series — fdx_stage_glasso_seconds{tenant="acme"} — without separate
	// registries. Ignored when Metrics is nil.
	MetricLabels []string
}

// Tracer collects nestable timing spans from an instrumented run; create
// one with NewTracer and attach it via Options.Tracer. See internal/obs
// for the span API.
type Tracer = obs.Tracer

// NewTracer returns an empty tracer whose trace clock starts now.
func NewTracer() *Tracer { return obs.New() }

// Span is one timed region of a trace, returned by Tracer.Find/Spans.
type Span = obs.Span

// Metrics is a concurrent registry of counters, gauges, and fixed-bucket
// histograms; create one with NewMetrics and attach it via
// Options.Metrics. It implements expvar.Var and writes Prometheus text
// format via WritePrometheus. See internal/obs for metric names.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// StageTiming is the aggregated duration of one pipeline stage in
// Result.StageTimings.
type StageTiming = obs.StageTiming

// Result is the outcome of discovery.
type Result struct {
	// Attributes lists the relation's attribute names in order.
	Attributes []string
	// FDs are the discovered dependencies.
	FDs []FD
	// B is the autoregression matrix in attribute order: B[i][j] is the
	// coefficient of attribute i in the linear equation of attribute j
	// (the matrix the paper visualizes in Figures 3 and 5).
	B [][]float64
	// Order is the global attribute order used by the factorization.
	Order []int
	// TransformDuration and ModelDuration split the runtime into the data
	// transformation and the structure-learning phases (paper Figure 6).
	TransformDuration time.Duration
	ModelDuration     time.Duration
	// Diagnostics records how the run degraded, if it did: fallbacks
	// taken by the regularization ladder, Graphical Lasso convergence,
	// and attributes whose statistics were sanitized. Check Degraded()
	// before trusting a result obtained from pathological data.
	Diagnostics Diagnostics
	// StageTimings breaks the run down per pipeline stage (transform,
	// covariance, fit, generate, ...), aggregated from the telemetry
	// root span. Nil unless Options.Tracer or Options.Metrics was set.
	StageTimings []StageTiming
}

// coreOptions maps the public options onto the pipeline configuration.
func coreOptions(opts Options) core.Options {
	return core.Options{
		Lambda:             opts.Lambda,
		Threshold:          opts.Threshold,
		RelFraction:        opts.RelFraction,
		Ordering:           opts.Ordering,
		Seed:               opts.Seed,
		RequireConvergence: opts.RequireConvergence,
		Obs:                obs.Hooks{Tracer: opts.Tracer, Metrics: opts.Metrics, Labels: opts.MetricLabels},
		Transform: core.TransformOptions{
			MaxRows:        opts.MaxRows,
			NumericTol:     opts.NumericTolerance,
			TextSimilarity: opts.TextSimilarity,
		},
	}
}

// Discover runs FDX on the relation.
//
// It never panics: malformed input returns an ErrBadInput-wrapped error,
// numerically degenerate input degrades through the regularization
// fallback ladder (recorded in Result.Diagnostics), and internal invariant
// panics are recovered and returned as ErrInternal-wrapped errors.
func Discover(rel *Relation, opts Options) (*Result, error) {
	return DiscoverContext(context.Background(), rel, opts)
}

// DiscoverContext is Discover with cancellation: the context is checked in
// the transform worker loop, each Graphical Lasso sweep, every rung of the
// fallback ladder, and each block's ordering. On expiry the returned error
// wraps both ctx.Err() and ErrCancelled.
func DiscoverContext(ctx context.Context, rel *Relation, opts Options) (res *Result, err error) {
	defer guard("fdx: Discover", &err)
	model, err := core.DiscoverContext(ctx, rel, coreOptions(opts))
	if err != nil {
		return nil, fmt.Errorf("fdx: %w", err)
	}
	return resultFromModel(model, rel.AttrNames()), nil
}

// Validate reports whether every option lies in its documented range,
// returning an ErrBadInput-wrapped error that names the first field out
// of it. Discover, DiscoverStable and the Accumulator run the same check
// before any stage; callers that persist options before running them (a
// stream's first checkpoint, a server's session manifest) call it first.
func (o Options) Validate() error {
	if err := coreOptions(o).Validate(); err != nil {
		return fmt.Errorf("fdx: %w", err)
	}
	return nil
}

func resultFromModel(model *core.Model, names []string) *Result {
	res := &Result{
		Attributes:        names,
		Order:             append([]int(nil), model.Order...),
		TransformDuration: model.TransformDuration,
		ModelDuration:     model.ModelDuration,
		Diagnostics:       diagnosticsFromCore(model.Diagnostics, names),
		StageTimings:      model.Trace.StageTimings(),
	}
	k := len(names)
	res.B = make([][]float64, k)
	for i := 0; i < k; i++ {
		res.B[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			res.B[i][j] = model.B.At(i, j)
		}
	}
	for _, fd := range model.FDs {
		res.FDs = append(res.FDs, fdFromCore(fd, names))
	}
	return res
}

func diagnosticsFromCore(d core.Diagnostics, names []string) Diagnostics {
	out := Diagnostics{
		GlassoSweeps:    d.GlassoSweeps,
		GlassoConverged: d.GlassoConverged,
		GlassoBlocks:    d.GlassoBlocks,
		Fallbacks:       d.Fallbacks,
	}
	for _, c := range d.SanitizedColumns {
		out.SanitizedColumns = append(out.SanitizedColumns, names[c])
	}
	return out
}

func fdFromCore(fd core.FD, names []string) FD {
	out := FD{RHS: names[fd.RHS], Score: fd.Score}
	for _, x := range fd.LHS {
		out.LHS = append(out.LHS, names[x])
	}
	return out
}

// Heatmap renders |B| as an ASCII heatmap, one row per attribute — the
// textual analogue of the paper's autoregression-matrix figures.
func (r *Result) Heatmap() string {
	width := 0
	for _, n := range r.Attributes {
		if len(n) > width {
			width = len(n)
		}
	}
	if width > 18 {
		width = 18
	}
	ramp := []byte(" .:-=+*#%@")
	var sb strings.Builder
	for i, name := range r.Attributes {
		if len(name) > width {
			name = name[:width]
		}
		fmt.Fprintf(&sb, "%-*s |", width, name)
		for j := range r.Attributes {
			v := r.B[i][j]
			if v < 0 {
				v = -v
			}
			if v > 1 {
				v = 1
			}
			sb.WriteByte(ramp[int(v*float64(len(ramp)-1))])
		}
		sb.WriteString("|\n")
	}
	return sb.String()
}

// HasFDWith reports whether the attribute participates in any discovered FD
// (either side) — the grouping used by the paper's data-preparation study
// (Table 7).
func (r *Result) HasFDWith(attr string) bool {
	for _, fd := range r.FDs {
		if fd.RHS == attr {
			return true
		}
		for _, l := range fd.LHS {
			if l == attr {
				return true
			}
		}
	}
	return false
}
