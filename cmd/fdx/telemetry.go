package main

import (
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"time"

	"fdx"
	"fdx/internal/obs"
	"fdx/internal/obs/flight"
)

// telemetryFlags is the observability flag block shared by both
// subcommands.
type telemetryFlags struct {
	tracePath   *string
	traceMem    *bool
	metricsAddr *string
	flightDir   *string
	flightEvery *time.Duration
	verbose     *bool
}

func addTelemetryFlags(fs *flag.FlagSet) *telemetryFlags {
	return &telemetryFlags{
		tracePath:   fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in Perfetto)"),
		traceMem:    fs.Bool("trace-mem", false, "sample per-span allocation deltas into the trace (implies -trace sinks; slower)"),
		metricsAddr: fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090)"),
		flightDir:   fs.String("flight-dir", "", "flight-recorder capture directory: sample the metrics registry + runtime stats there (see `fdx flight`)"),
		flightEvery: fs.Duration("flight-every", flight.DefaultInterval, "flight-recorder sampling interval"),
		verbose:     fs.Bool("v", false, "print live progress and a stage summary to stderr"),
	}
}

// telemetry holds the sinks built from the flags. tracer and metrics are
// nil when the corresponding flags are off; the library treats nil sinks
// as zero-overhead no-ops.
type telemetry struct {
	tracer    *fdx.Tracer
	metrics   *fdx.Metrics
	flight    *flight.Recorder
	log       *slog.Logger
	tracePath string
	verbose   bool
}

// setup builds the sinks and starts the metrics server if requested.
func (tf *telemetryFlags) setup() (*telemetry, error) {
	t := &telemetry{tracePath: *tf.tracePath, verbose: *tf.verbose}
	if t.tracePath != "" || *tf.traceMem || t.verbose {
		t.tracer = fdx.NewTracer()
		t.tracer.SetMemSampling(*tf.traceMem)
	}
	if *tf.metricsAddr != "" || t.verbose || *tf.flightDir != "" {
		t.metrics = fdx.NewMetrics()
	}
	// Structured supervisor logging mirrors fdxd: warnings always reach
	// stderr, -v turns on the per-event Info lines too.
	level := slog.LevelWarn
	if t.verbose {
		level = slog.LevelInfo
	}
	t.log = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	if dir := *tf.flightDir; dir != "" {
		rec, err := flight.Start(flight.Options{
			Dir:      dir,
			Interval: *tf.flightEvery,
			Metrics:  t.metrics,
			OnError:  func(err error) { t.log.Warn("flight_recorder", "error", err.Error()) },
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %w", err, fdx.ErrBadInput)
		}
		t.flight = rec
	}
	if addr := *tf.metricsAddr; addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("metrics listener: %w: %w", err, fdx.ErrBadInput)
		}
		expvar.Publish("fdx", t.metrics)
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			t.metrics.WritePrometheus(w)
		})
		// Tests (and humans scripting around :0) parse this line to learn
		// the bound address.
		fmt.Fprintf(os.Stderr, "fdx: metrics listening on %s\n", ln.Addr())
		go http.Serve(ln, nil)
	}
	return t, nil
}

// apply threads the sinks into discovery options.
func (t *telemetry) apply(opts *fdx.Options) {
	opts.Tracer = t.tracer
	opts.Metrics = t.metrics
}

// hooks bundles the sinks for code that instruments directly (the shard
// supervisor) rather than through fdx.Options.
func (t *telemetry) hooks() obs.Hooks {
	return obs.Hooks{Tracer: t.tracer, Metrics: t.metrics}
}

// finish writes the trace file (-trace) and the stage summary (-v) after
// the run completes, and seals the flight capture with a final sample.
func (t *telemetry) finish() error {
	if t.flight != nil {
		if err := t.flight.Close(); err != nil {
			t.log.Warn("flight_recorder", "error", err.Error())
		}
		t.flight = nil
	}
	if t.verbose && t.tracer != nil {
		fmt.Fprint(os.Stderr, t.tracer.Summary())
	}
	if t.tracePath == "" {
		return nil
	}
	f, err := os.Create(t.tracePath)
	if err != nil {
		return fmt.Errorf("trace file: %w: %w", err, fdx.ErrBadInput)
	}
	if err := t.tracer.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close trace: %w", err)
	}
	if t.verbose {
		fmt.Fprintf(os.Stderr, "fdx: trace written to %s\n", t.tracePath)
	}
	return nil
}

// counter reads a registry counter by name (0 when metrics are off).
func (t *telemetry) counter(name string) uint64 {
	if t.metrics == nil {
		return 0
	}
	return t.metrics.Counter(name).Value()
}

// sweeps returns the cumulative glasso sweep count.
func (t *telemetry) sweeps() uint64 { return t.counter(obs.MGlassoSweeps) }

// tornTails returns how many torn WAL tail records restores truncated.
func (t *telemetry) tornTails() uint64 { return t.counter(obs.MWALTornTail) }
