package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fdx"
	"fdx/internal/faults"
	"fdx/internal/obs"
	"fdx/internal/serve/retry"
)

// Sharded streaming: `fdx stream -shards N` splits the batch grid into N
// contiguous spans and absorbs them concurrently, one supervised worker
// per shard. Each worker is its own crash domain with its own checkpoint
// and WAL (at <checkpoint>.shard-<s>-of-<N>); a worker that crashes or
// stalls is restarted from that state and re-absorbs only its own
// unsaved batches. When every span is absorbed, the shard states are
// folded into the main checkpoint through fdx.MergeShards, whose result
// is bit-identical to the sequential run — every batch keeps its global
// transform seed no matter which shard absorbed it.

// errShardCrash is the simulated kill the ShardCrash fault injects at a
// worker's checkpoint boundary; the supervisor treats it (like any
// undifferentiated worker failure) as retryable.
var errShardCrash = errors.New("injected shard crash at checkpoint boundary")

// errShardStall marks a worker cancelled by the stall watchdog:
// retryable, unlike a parent-context cancellation.
var errShardStall = errors.New("shard made no progress within the stall timeout")

// shardedConfig carries runStream's supervisor knobs.
type shardedConfig struct {
	ckpt      string
	every     int
	batchRows int
	shards    int
	retries   int           // worker restarts / merge re-reads beyond the first attempt
	stall     time.Duration // watchdog: restart a worker silent this long (0 = off)
	verbose   bool
	obs       obs.Hooks    // supervisor telemetry; runShardedStream nests it under the root span
	log       *slog.Logger // structured supervisor events (shard_restart, shard_stall, ...)
	ship      string       // fdxd base URL; "" keeps the merge local
	session   string       // fdxd session id for -ship
	tenant    string       // X-Fdx-Tenant for -ship
}

// shardHooks returns the supervisor hooks with shard s's metric label, so
// restart/stall/ship counters split per shard on /metrics.
func (cfg *shardedConfig) shardHooks(s int) obs.Hooks {
	h := cfg.obs
	h.Labels = []string{"shard", strconv.Itoa(s)}
	return h
}

// shardPath names shard s's private checkpoint; its WAL lives at the
// usual +fdx.WALSuffix. The shard count is part of the name so changing
// -shards never resumes against a span layout the file was not built for.
func (cfg *shardedConfig) shardPath(s int) string {
	return fmt.Sprintf("%s.shard-%d-of-%d", cfg.ckpt, s, cfg.shards)
}

// runShardedStream absorbs the batch grid [base.NextGlobal(), total)
// through supervised shard workers, merges the shard states into base,
// durably saves the result to cfg.ckpt, and returns it. On any error the
// main checkpoint is untouched; shard checkpoints hold whatever their
// workers last saved, so a rerun resumes rather than restarts.
func runShardedStream(ctx context.Context, rel *fdx.Relation, opts fdx.Options, base *fdx.Accumulator, total int, cfg shardedConfig) (*fdx.Accumulator, error) {
	if cov := base.Coverage(); len(cov) == 1 && cov[0].Lo == 0 && cov[0].Hi == total {
		// A previous run already merged the full grid; nothing to absorb.
		return base, nil
	}
	// Root supervisor span: workers fan out beneath it on their own tracks,
	// and it must end before the trace file is written, so no defer-to-exit.
	root := cfg.obs.Start("stream")
	defer root.End()
	root.Attr("shards", cfg.shards)
	cfg.obs = cfg.obs.Under(root)
	cfg.log = supervisorLogger(cfg.log, root)

	spans, err := absorbShards(ctx, rel, opts, base, total, cfg)
	if err != nil {
		return nil, err
	}

	// Phase 2: merge. Each shard snapshot is re-read from disk through the
	// checkpoint decoder — fully validated before it can touch any state —
	// and the shard accumulators fold into base through a fixed reduction
	// tree. A snapshot that reads corrupt is retried (the file may be
	// mid-rewrite or the corruption transient); persistent corruption
	// surfaces the typed error with the main checkpoint unharmed.
	msp := cfg.obs.Start("merge")
	defer msp.End()
	accs := []*fdx.Accumulator{base}
	for s, span := range spans {
		if span.Lo == span.Hi {
			continue
		}
		acc, err := loadShardSnapshot(ctx, rel, opts, cfg.shardPath(s), s, cfg)
		if err != nil {
			return nil, fmt.Errorf("merging shard %d: %w", s, err)
		}
		accs = append(accs, acc)
	}
	merged, err := fdx.MergeShards(accs)
	if err != nil {
		return nil, err
	}
	if err := merged.SaveCheckpoint(cfg.ckpt); err != nil {
		return nil, err
	}
	// The merged snapshot covers everything; clear any stale main WAL so a
	// rerun replays nothing, then drop the shard scratch files (recomputable
	// from the input; best-effort).
	if wal, werr := fdx.OpenWAL(cfg.ckpt + fdx.WALSuffix); werr == nil {
		wal.Reset()
		wal.Close()
	}
	for s, span := range spans {
		if span.Lo == span.Hi {
			continue
		}
		os.Remove(cfg.shardPath(s))
		os.Remove(cfg.shardPath(s) + fdx.WALSuffix)
	}
	msp.Attr("batches", merged.Batches())
	cfg.log.Info("shards_merged", "shards", len(accs)-1, "checkpoint", cfg.ckpt, "batches", merged.Batches())
	if cfg.verbose {
		fmt.Fprintf(os.Stderr, "fdx: merged %d shards into %s (%d batches)\n",
			len(accs)-1, cfg.ckpt, merged.Batches())
	}
	return merged, nil
}

// supervisorLogger binds the run's trace identity onto the supervisor's
// structured log lines, so `grep trace_id=` joins CLI logs with fdxd's.
func supervisorLogger(log *slog.Logger, root *obs.Span) *slog.Logger {
	if log == nil {
		log = slog.Default()
	}
	if tid := root.TraceID(); tid != "" {
		log = log.With("trace_id", tid, "span_id", root.SpanID())
	}
	return log
}

// absorbShards is phase 1 of both sharded paths (local merge and -ship):
// split the unabsorbed remainder of the batch grid into spans and run one
// supervised worker per span, each its own crash domain. On return with a
// nil error every span's shard checkpoint holds its full coverage.
func absorbShards(ctx context.Context, rel *fdx.Relation, opts fdx.Options, base *fdx.Accumulator, total int, cfg shardedConfig) ([]fdx.BatchRange, error) {
	// The main checkpoint may hold a sequential prefix [0, begin) from an
	// earlier unsharded run or drain; shards split only the remainder.
	begin := base.NextGlobal()
	spans := fdx.ShardSpans(total-begin, cfg.shards)
	for i := range spans {
		spans[i].Lo += begin
		spans[i].Hi += begin
	}

	// One supervisor goroutine per non-empty span, each restarting its
	// worker with backoff on crash or stall.
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for s, span := range spans {
		if span.Lo == span.Hi {
			continue
		}
		wg.Add(1)
		go func(s int, span fdx.BatchRange) {
			defer wg.Done()
			errs[s] = superviseShard(ctx, rel, opts, span, s, cfg)
		}(s, span)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Workers past the failure saved their own checkpoints; report
			// the lowest-index failure deterministically.
			return nil, err
		}
	}
	return spans, nil
}

// superviseShard runs one shard's worker, restarting it with jittered
// backoff when it crashes or stalls. Cancellation, bad input, and shard
// mismatches are permanent; everything else gets cfg.retries restarts,
// each resuming from the shard's own checkpoint and WAL.
func superviseShard(ctx context.Context, rel *fdx.Relation, opts fdx.Options, span fdx.BatchRange, s int, cfg shardedConfig) error {
	var progress atomic.Int64
	h := cfg.shardHooks(s)
	pol := retry.Policy{
		Base:        25 * time.Millisecond,
		Cap:         time.Second,
		MaxAttempts: cfg.retries + 1,
		Seed:        int64(s),
		Notify: func(attempt int, wait time.Duration, err error) {
			h.Count(obs.MShardRestarts, 1)
			cfg.log.Info("shard_restart", "shard", s, "attempt", attempt+1, "error", err.Error(), "wait", wait)
			if cfg.verbose {
				fmt.Fprintf(os.Stderr, "fdx: shard %d attempt %d failed (%v); restarting from its checkpoint in %v\n",
					s, attempt+1, err, wait)
			}
		},
	}
	return pol.Do(ctx, func(attempt int) (time.Duration, error) {
		// One span per attempt on the shard's own viewer track, so restarts
		// show up as separate bars in the same lane.
		wsp := cfg.obs.Start("shard")
		defer wsp.End()
		wsp.SetTrack(s + 2)
		wsp.Attr("shard", s)
		wsp.Attr("span", fmt.Sprintf("[%d,%d)", span.Lo, span.Hi))
		if attempt > 0 {
			wsp.Attr("attempt", attempt+1)
		}
		attemptCtx, cancel := context.WithCancel(ctx)
		var stalled atomic.Bool
		var watch sync.WaitGroup
		if cfg.stall > 0 {
			watch.Add(1)
			go func() {
				defer watch.Done()
				watchShard(attemptCtx, cancel, &progress, cfg.stall, &stalled)
			}()
		}
		err := runShardWorker(attemptCtx, rel, opts, span, cfg.shardPath(s), cfg, &progress)
		cancel()
		watch.Wait()
		if err == nil {
			return 0, nil
		}
		wsp.Attr("error", err.Error())
		switch {
		case ctx.Err() != nil:
			// The whole run is shutting down; the worker already saved.
			return 0, retry.Permanent(err)
		case stalled.Load():
			h.Count(obs.MShardStalls, 1)
			cfg.log.Warn("shard_stall", "shard", s, "stall_timeout", cfg.stall)
			return 0, fmt.Errorf("shard %d: %w", s, errShardStall)
		case errors.Is(err, fdx.ErrBadInput), errors.Is(err, fdx.ErrShardMismatch):
			return 0, retry.Permanent(err)
		default:
			// Crash (simulated or real), stall-adjacent I/O failure,
			// corrupt shard state: restart from the shard's checkpoint.
			return 0, err
		}
	})
}

// watchShard cancels a worker attempt that reports no progress for the
// stall timeout, marking the cancellation as a stall so the supervisor
// restarts instead of aborting.
func watchShard(ctx context.Context, cancel context.CancelFunc, progress *atomic.Int64, stall time.Duration, stalled *atomic.Bool) {
	tick := stall / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	last := progress.Load()
	idle := time.Duration(0)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if cur := progress.Load(); cur != last {
				last, idle = cur, 0
				continue
			}
			if idle += tick; idle >= stall {
				stalled.Store(true)
				cancel()
				return
			}
		}
	}
}

// runShardWorker absorbs one span of the batch grid into the shard's own
// checkpoint state, write-ahead-logging every batch and durably
// snapshotting every cfg.every batches — the same crash contract as the
// sequential stream, scoped to the span. A restart resumes at the
// shard's own NextGlobal.
func runShardWorker(ctx context.Context, rel *fdx.Relation, opts fdx.Options, span fdx.BatchRange, path string, cfg shardedConfig, progress *atomic.Int64) error {
	acc, err := fdx.LoadCheckpoint(path, opts)
	switch {
	case err == nil:
		if !shardStateFits(acc, span) {
			// A leftover file from a different span layout or input. Shard
			// state is pure scratch — recomputable from the relation — so
			// discard it and start the span over.
			if cfg.verbose {
				fmt.Fprintf(os.Stderr, "fdx: shard checkpoint %s covers %v, outside span %v; starting the span fresh\n",
					path, acc.Coverage(), span)
			}
			os.Remove(path)
			os.Remove(path + fdx.WALSuffix)
			acc = nil
		}
	case errors.Is(err, os.ErrNotExist):
		acc = nil
	default:
		return err
	}
	if acc == nil {
		acc = fdx.NewAccumulator(rel.AttrNames(), opts)
		if err := acc.SaveCheckpoint(path); err != nil {
			return err
		}
	}
	wal, err := fdx.OpenWAL(path + fdx.WALSuffix)
	if err != nil {
		return err
	}
	defer wal.Close()

	start := acc.NextGlobal()
	if start < span.Lo {
		start = span.Lo
	}
	sinceSave := 0
	for g := start; g < span.Hi; g++ {
		if cerr := ctx.Err(); cerr != nil {
			// Drain, interrupt, or stall watchdog: make what we absorbed
			// durable so the restart (or the next run) resumes here.
			if err := saveAndReset(acc, path, wal); err != nil {
				return err
			}
			return fmt.Errorf("shard worker stopped at batch %d/%v: %w: %w", g, span, fdx.ErrCancelled, cerr)
		}
		faults.Sleep(faults.ShardStall)
		lo := g * cfg.batchRows
		hi := lo + cfg.batchRows
		if hi > rel.NumRows() {
			hi = rel.NumRows()
		}
		if err := acc.AddLoggedAt(rel.Slice(lo, hi), g, wal); err != nil {
			return err
		}
		progress.Add(1)
		if sinceSave++; sinceSave == cfg.every {
			// Checkpoint boundary: the crash fault kills the worker here,
			// leaving up to cfg.every batches only in the WAL — exactly what
			// the restart must replay.
			if faults.Fire(faults.ShardCrash) {
				return fmt.Errorf("shard worker at batch %d/%v: %w", g+1, span, errShardCrash)
			}
			if err := saveAndReset(acc, path, wal); err != nil {
				return err
			}
			sinceSave = 0
		}
	}
	if err := saveAndReset(acc, path, wal); err != nil {
		return err
	}
	if faults.Fire(faults.ShardCrash) {
		// Crash after the final save: the restart reloads a complete span
		// and must conclude with nothing to do.
		return fmt.Errorf("shard worker after final save of %v: %w", span, errShardCrash)
	}
	return nil
}

// shardStateFits reports whether a restored shard checkpoint belongs to
// this span: empty, or a single absorbed prefix of it.
func shardStateFits(acc *fdx.Accumulator, span fdx.BatchRange) bool {
	cov := acc.Coverage()
	if len(cov) == 0 {
		return true
	}
	return len(cov) == 1 && cov[0].Lo == span.Lo && cov[0].Hi <= span.Hi
}

// loadShardSnapshot reads a completed shard's snapshot through the
// validating merge decoder into a fresh accumulator, retrying reads that
// surface corruption (re-reading heals transient damage; persistent
// damage exhausts the attempts and keeps the typed error).
func loadShardSnapshot(ctx context.Context, rel *fdx.Relation, opts fdx.Options, path string, s int, cfg shardedConfig) (*fdx.Accumulator, error) {
	var acc *fdx.Accumulator
	pol := retry.Policy{
		Base:        25 * time.Millisecond,
		Cap:         time.Second,
		MaxAttempts: cfg.retries + 1,
		Seed:        int64(s),
		Notify: func(attempt int, wait time.Duration, err error) {
			if cfg.verbose {
				fmt.Fprintf(os.Stderr, "fdx: shard %d snapshot read %d failed (%v); re-reading in %v\n",
					s, attempt+1, err, wait)
			}
		},
	}
	err := pol.Do(ctx, func(int) (time.Duration, error) {
		f, err := os.Open(path)
		if err != nil {
			return 0, retry.Permanent(fmt.Errorf("%v: %w", err, fdx.ErrBadInput))
		}
		defer f.Close()
		a := fdx.NewAccumulator(rel.AttrNames(), opts)
		if _, err := a.MergeSnapshot(f); err != nil {
			if errors.Is(err, fdx.ErrCorruptCheckpoint) {
				return 0, err
			}
			return 0, retry.Permanent(err)
		}
		acc = a
		return 0, nil
	})
	return acc, err
}
