// Command fdx discovers functional dependencies in a CSV file.
//
// Usage:
//
//	fdx [flags] data.csv
//	fdx stream -checkpoint state.fdx [flags] data.csv
//	fdx flight decode|tail|summary [flags] DIR
//
// CSV input needs a header row; .jsonl/.ndjson files are read as JSON
// Lines. Empty cells and JSON nulls are treated as missing
// values. The discovered FDs are printed one per line, optionally with the
// autoregression-matrix heatmap the model is derived from.
//
// The stream subcommand feeds the relation through the incremental
// Accumulator in fixed-size batches on -shards supervised local workers
// (default 1). Each worker is its own crash domain with its own scratch
// checkpoint and WAL: it write-ahead-logs every batch and durably
// checkpoints every -every batches, and the worker states merge into the
// main checkpoint by batch coverage when the run ends, bit-identically at
// any shard count. Killed at any point — even mid-write — a rerun at any
// -shards merges the states it finds, re-absorbs only the unsaved
// batches, and produces the same dependencies as an uninterrupted run.
// With -ship URL every state also travels to an fdxd session and
// discovery runs server-side; -trace then
// captures supervisor, worker, and fdxd server spans in one file under one
// trace id.
//
// The flight subcommand decodes the black-box captures that -flight-dir
// (here and on fdxd) records: `decode` dumps samples as JSON or CSV,
// `tail` follows a live capture, `summary` prints the postmortem view.
//
// Exit codes map the error taxonomy: 0 success, 1 internal error, 2 bad
// input (malformed data, flags, or mismatched resume options), 3 corrupt
// or version-incompatible checkpoint, 130 interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"

	"fdx"
	"fdx/internal/profile"
	"fdx/internal/serve"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "stream":
			os.Exit(runStream(args[1:]))
		case "flight":
			os.Exit(runFlight(args[1:]))
		}
	}
	os.Exit(runDiscover(args))
}

// exitCode maps an error onto the command's documented exit codes.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, fdx.ErrCancelled):
		return 130
	case errors.Is(err, fdx.ErrCorruptCheckpoint), errors.Is(err, fdx.ErrCheckpointVersion):
		return 3
	case errors.Is(err, fdx.ErrBadInput), errors.Is(err, fdx.ErrShardMismatch):
		return 2
	default:
		// ErrInternal and anything unclassified.
		return 1
	}
}

// fail prints the error and returns its exit code. The line starts with
// exactly one "fdx: ", whether or not the library already prefixed it.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "fdx:", strings.TrimPrefix(err.Error(), "fdx: "))
	return exitCode(err)
}

// loadRelation reads the input file, classifying I/O and parse failures as
// bad input.
func loadRelation(path string) (*fdx.Relation, error) {
	var (
		rel *fdx.Relation
		err error
	)
	if strings.HasSuffix(path, ".jsonl") || strings.HasSuffix(path, ".ndjson") {
		rel, err = fdx.LoadJSONL(path)
	} else {
		rel, err = fdx.LoadCSV(path)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", err, fdx.ErrBadInput)
	}
	return rel, nil
}

// addDiscoveryFlags binds the discovery options fdx and fdx stream share
// straight into one fdx.Options. pinned is appended to the usage of the
// options that shape the pair transform (stream resumes must repeat them).
func addDiscoveryFlags(fs *flag.FlagSet, pinned string) *fdx.Options {
	opts := new(fdx.Options)
	fs.Float64Var(&opts.Lambda, "lambda", 0, "graphical lasso sparsity penalty")
	fs.Float64Var(&opts.Threshold, "threshold", 0, "minimum |B| coefficient for an FD edge (0 = default 0.05; negative = no absolute floor)")
	fs.StringVar(&opts.Ordering, "ordering", "", "column ordering: heuristic|natural|amd|colamd|metis|nesdis|reverse|random")
	fs.Int64Var(&opts.Seed, "seed", 0, "random seed for the transform shuffle"+pinned)
	fs.BoolVar(&opts.TextSimilarity, "text-similarity", false, "use 3-gram similarity for text columns"+pinned)
	fs.Float64Var(&opts.NumericTolerance, "numeric-tol", 0, "relative tolerance for numeric equality"+pinned)
	return opts
}

func runDiscover(args []string) int {
	fs := flag.NewFlagSet("fdx", flag.ExitOnError)
	opts := addDiscoveryFlags(fs, "")
	fs.IntVar(&opts.MaxRows, "max-rows", 0, "cap on tuples used by the pair transform (0 = all)")
	var (
		heatmap   = fs.Bool("heatmap", false, "print the autoregression matrix heatmap")
		profileIt = fs.Bool("profile", false, "print a full profiling report (columns, keys, FDs, error rate)")
		normalize = fs.Bool("normalize", false, "print candidate keys and a 3NF synthesis from the discovered FDs")
	)
	tflags := addTelemetryFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fdx [flags] data.csv")
		fmt.Fprintln(os.Stderr, "       fdx stream -checkpoint state.fdx [flags] data.csv")
		fs.PrintDefaults()
		return 2
	}
	if err := opts.Validate(); err != nil {
		return fail(err)
	}
	tel, err := tflags.setup()
	if err != nil {
		return fail(err)
	}
	rel, err := loadRelation(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	tel.apply(opts)
	if *profileIt {
		rep, err := profile.Build(rel, profile.Options{Discovery: *opts})
		if err != nil {
			return fail(err)
		}
		fmt.Print(rep.String())
		if err := tel.finish(); err != nil {
			return fail(err)
		}
		return 0
	}
	res, err := fdx.Discover(rel, *opts)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s: %d rows, %d attributes, %d FDs (transform %v, model %v)\n\n",
		rel.Name, rel.NumRows(), rel.NumCols(), len(res.FDs),
		res.TransformDuration.Round(1e6), res.ModelDuration.Round(1e6))
	for _, fd := range res.FDs {
		fmt.Printf("%s   (score %.3f)\n", fd, fd.Score)
	}
	if *heatmap {
		fmt.Println()
		fmt.Print(res.Heatmap())
	}
	if *normalize {
		keys, err := fdx.CandidateKeys(rel, res.FDs)
		if err != nil {
			return fail(err)
		}
		fmt.Println("\ncandidate keys:")
		for _, k := range keys {
			fmt.Printf("  (%s)\n", strings.Join(k, ", "))
		}
		tables, err := fdx.Synthesize3NF(rel, res.FDs)
		if err != nil {
			return fail(err)
		}
		fmt.Println("\n3NF synthesis:")
		for _, tb := range tables {
			fmt.Printf("  %s(%s)  key (%s)\n",
				tb.Name, strings.Join(tb.Attributes, ", "), strings.Join(tb.Key, ", "))
		}
	}
	if err := tel.finish(); err != nil {
		return fail(err)
	}
	return 0
}

func runStream(args []string) int {
	fs := flag.NewFlagSet("fdx stream", flag.ExitOnError)
	opts := addDiscoveryFlags(fs, " (must match across resumes)")
	var (
		ckpt       = fs.String("checkpoint", "", "checkpoint file path (required); the WAL lives at this path + \".wal\"")
		every      = fs.Int("every", 16, "durably snapshot every N batches")
		batchRows  = fs.Int("batch", 512, "rows per accumulator batch")
		heatmap    = fs.Bool("heatmap", false, "print the autoregression matrix heatmap")
		batchDelay = fs.Duration("batch-delay", 0, "sleep this long after each batch (throttle for live inspection)")
		shards     = fs.Int("shards", 1, "fan batches across N supervised local shard workers (1 = one worker); the result is bit-identical at any N")
		shardTries = fs.Int("shard-retries", 3, "restarts allowed per crashed or stalled shard worker")
		shardStall = fs.Duration("shard-stall-timeout", 0, "restart a shard worker that makes no progress for this long (0 = off)")
		ship       = fs.String("ship", "", "ship shard snapshots to this fdxd base URL (e.g. http://127.0.0.1:8080) and discover remotely")
		session    = fs.String("session", "", "fdxd session id for -ship (default: the checkpoint file name)")
		tenant     = fs.String("tenant", "", "X-Fdx-Tenant header for -ship (empty = the server's default tenant)")
	)
	tflags := addTelemetryFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 || *ckpt == "" || *every < 1 || *batchRows < 2 || *shards < 1 || *shardTries < 0 {
		fmt.Fprintln(os.Stderr, "usage: fdx stream -checkpoint state.fdx [-every N] [-batch B] [-shards S] [-ship URL] [flags] data.csv")
		fs.PrintDefaults()
		return 2
	}
	// Checked before the first checkpoint is written, so a bad flag never
	// pins itself into a resumable stream.
	if err := opts.Validate(); err != nil {
		return fail(err)
	}
	if *session == "" {
		*session = filepath.Base(*ckpt)
	}
	tel, err := tflags.setup()
	if err != nil {
		return fail(err)
	}
	tel.apply(opts)

	// SIGTERM asks for a graceful drain (checkpoint, exit 0); SIGINT stays
	// a prompt interrupt (exit 130). Both cancel the context so a running
	// discover stops at its next cancellation point.
	sigs := serve.NotifyDrain()
	defer sigs.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var draining atomic.Bool
	go func() {
		select {
		case <-sigs.Drain():
			draining.Store(true)
			cancel()
		case <-sigs.Interrupt():
			cancel()
		case <-ctx.Done():
		}
	}()

	rel, err := loadRelation(fs.Arg(0))
	if err != nil {
		return fail(err)
	}

	// Resume from the checkpoint when one exists; otherwise start fresh.
	acc, err := fdx.LoadCheckpoint(*ckpt, *opts)
	switch {
	case err == nil:
		if got, want := acc.Attributes(), rel.AttrNames(); !slices.Equal(got, want) {
			return fail(fmt.Errorf("checkpoint schema %v does not match %s schema %v: %w",
				got, fs.Arg(0), want, fdx.ErrBadInput))
		}
		fmt.Fprintf(os.Stderr, "fdx: resuming from %s: %d batches, %d rows already absorbed\n",
			*ckpt, acc.Batches(), acc.Rows())
		if tel.verbose && tel.tornTails() > 0 {
			fmt.Fprintf(os.Stderr, "fdx: warning: truncated a torn WAL tail record (the batch the previous run died appending); resuming one batch earlier\n")
		}
	case errors.Is(err, os.ErrNotExist):
		acc = fdx.NewAccumulator(rel.AttrNames(), *opts)
		// Write the empty-state snapshot up front so a rerun resumes the
		// stream under the options it was started with.
		if err := acc.SaveCheckpoint(*ckpt); err != nil {
			return fail(err)
		}
	default:
		return fail(err)
	}

	// The batch grid is a pure function of the input and -batch, so a
	// resumed run rebuilds the same batches and skips those it covers.
	total := rel.NumRows() / *batchRows
	if tail := rel.NumRows() % *batchRows; tail >= 2 {
		total++
	}
	// Supervised workers absorb the batches the checkpoint lacks into their
	// own scratch checkpoints, which fold into the main one (bit-identical
	// at any shard count). With -ship every state also travels to an fdxd
	// session and discovery runs server-side.
	cfg := shardedConfig{
		ckpt:       *ckpt,
		every:      *every,
		batchRows:  *batchRows,
		rows:       rel.NumRows(),
		total:      total,
		shards:     *shards,
		retries:    *shardTries,
		stall:      *shardStall,
		batchDelay: *batchDelay,
		verbose:    tel.verbose,
		obs:        tel.hooks(),
		log:        tel.log,
		ship:       *ship,
		session:    *session,
		tenant:     *tenant,
	}
	if err := cfg.checkGrid(acc, *ckpt); err != nil {
		return fail(err)
	}
	if *ship != "" {
		err = runShippedStream(ctx, rel, *opts, acc, cfg, tel)
	} else {
		err = runShardedStream(ctx, rel, *opts, acc, cfg)
	}
	if err != nil {
		if draining.Load() && errors.Is(err, fdx.ErrCancelled) {
			fmt.Fprintf(os.Stderr, "fdx: SIGTERM: absorbed batches saved to %s, exiting cleanly; rerun to resume\n", *ckpt)
			return 0
		}
		return fail(err)
	}
	if *ship != "" {
		return 0
	}
	return finishStream(ctx, rel, acc, tel, &draining, *ckpt, *heatmap)
}

// finishStream runs discovery on the merged accumulator and prints the
// dependencies.
func finishStream(ctx context.Context, rel *fdx.Relation, acc *fdx.Accumulator, tel *telemetry, draining *atomic.Bool, ckpt string, heatmap bool) int {
	res, err := acc.DiscoverContext(ctx)
	if err != nil {
		if draining.Load() && errors.Is(err, fdx.ErrCancelled) {
			// The drain hit during discovery; the stream itself is already
			// checkpointed, so stopping here loses nothing.
			fmt.Fprintf(os.Stderr, "fdx: SIGTERM: stream checkpointed to %s, discovery cancelled, exiting cleanly\n", ckpt)
			return 0
		}
		return fail(err)
	}
	if tel.verbose {
		fmt.Fprintf(os.Stderr, "fdx: discover done: %d glasso sweeps total\n", tel.sweeps())
	}
	fmt.Printf("%s: %d rows in %d batches, %d attributes, %d FDs (model %v)\n\n",
		rel.Name, acc.Rows(), acc.Batches(), rel.NumCols(), len(res.FDs),
		res.ModelDuration.Round(1e6))
	for _, fd := range res.FDs {
		fmt.Printf("%s   (score %.3f)\n", fd, fd.Score)
	}
	if heatmap {
		fmt.Println()
		fmt.Print(res.Heatmap())
	}
	if err := tel.finish(); err != nil {
		return fail(err)
	}
	return 0
}

// saveAndReset durably snapshots the accumulator and truncates the WAL the
// snapshot now covers.
func saveAndReset(acc *fdx.Accumulator, path string, wal *fdx.WAL) error {
	if err := acc.SaveCheckpoint(path); err != nil {
		return err
	}
	return wal.Reset()
}
