package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fdx"
	"fdx/internal/faults"
	"fdx/internal/fdxerr"
	"fdx/internal/obs"
	"fdx/internal/serve/retry"
)

// Sharded streaming: `fdx stream -shards N` absorbs the batch grid through
// N supervised workers; the default -shards 1 is one worker. Each worker is
// its own crash domain with a scratch checkpoint and WAL at
// <checkpoint>.shard-<s>; a worker that crashes or stalls is restarted from
// that state and re-absorbs only its own unsaved batches.
//
// Batch coverage is the one resume rule. Every saved state records the
// global batches it holds, and batch i keeps transform seed Seed + i
// whichever worker absorbs it, so states fold through Accumulator.Merge —
// integer addition, bit-identical at any shard count and in any order.
// Before the workers start, and again when they stop (done, drained,
// interrupted or crashed), foldScratch merges every <checkpoint>.shard-*
// state into the main checkpoint, whatever shard count wrote it: a
// disjoint state merges, a contained one is a no-op, and a partially
// overlapping or foreign one is dropped, so its batches are absorbed again.
// The main checkpoint is then saved and every scratch file removed. The
// workers split only the batches the main checkpoint does not cover, so one
// worker's span may be several ranges of the grid.

// errShardCrash is the simulated kill the ShardCrash fault injects at a
// worker's checkpoint boundary; the supervisor treats it (like any
// undifferentiated worker failure) as retryable.
var errShardCrash = errors.New("injected shard crash at checkpoint boundary")

// errShardStall marks a worker cancelled by the stall watchdog:
// retryable, unlike a parent-context cancellation.
var errShardStall = errors.New("shard made no progress within the stall timeout")

// shardedConfig carries runStream's supervisor knobs.
type shardedConfig struct {
	ckpt       string
	every      int
	batchRows  int
	rows       int // rows in the input relation
	total      int // batches in the whole grid
	shards     int
	retries    int           // worker restarts / scratch re-reads beyond the first attempt
	stall      time.Duration // watchdog: restart a worker silent this long (0 = off)
	batchDelay time.Duration // sleep after each batch (throttle for live inspection)
	verbose    bool
	obs        obs.Hooks    // supervisor telemetry; startStream nests it under the root span
	log        *slog.Logger // structured supervisor events (shard_restart, shard_stall, ...)
	ship       string       // fdxd base URL; "" keeps the merge local
	session    string       // fdxd session id for -ship
	tenant     string       // X-Fdx-Tenant for -ship
}

// shipFunc sends one saved state's snapshot to the -ship session before
// it is folded into the main checkpoint; nil keeps the run local.
type shipFunc func(ctx context.Context, snap []byte) error

// shardHooks returns the supervisor hooks with shard s's metric label, so
// restart and stall counters split per shard on /metrics.
func (cfg *shardedConfig) shardHooks(s int) obs.Hooks {
	h := cfg.obs
	h.Labels = []string{"shard", strconv.Itoa(s)}
	return h
}

// shardPath names worker s's scratch checkpoint; its WAL lives at the
// usual +fdx.WALSuffix.
func (cfg *shardedConfig) shardPath(s int) string {
	return fmt.Sprintf("%s.shard-%d", cfg.ckpt, s)
}

// checkGrid refuses a restored state whose row count differs from the
// rows the current -batch grid puts in its coverage: the state was
// absorbed under another -batch or from another input, and resuming it
// would skip or double-count rows.
func (cfg *shardedConfig) checkGrid(acc *fdx.Accumulator, path string) error {
	const hint = "rerun with the -batch and input the stream started with"
	cov, want := acc.Coverage(), 0
	for _, r := range cov {
		if r.Hi > cfg.total {
			return fdxerr.BadInput("%s covers batches %v, past the %d batches -batch %d gives this input; %s",
				path, cov, cfg.total, cfg.batchRows, hint)
		}
		want += min(r.Hi*cfg.batchRows, cfg.rows) - r.Lo*cfg.batchRows
	}
	if acc.Rows() != want {
		return fdxerr.BadInput("%s holds %d rows in batches %v, but -batch %d puts %d rows there; %s",
			path, acc.Rows(), cov, cfg.batchRows, want, hint)
	}
	return nil
}

// startStream opens the run's root supervisor span and nests the
// supervisor's telemetry under it. Workers fan out beneath it on their own
// tracks; the caller ends it before the trace file is written.
func startStream(cfg shardedConfig) (*obs.Span, shardedConfig) {
	root := cfg.obs.Start("stream")
	root.Attr("shards", cfg.shards)
	cfg.obs = cfg.obs.Under(root)
	cfg.log = supervisorLogger(cfg.log, root)
	return root, cfg
}

// runShardedStream absorbs every batch main does not cover through
// supervised workers and folds their states into main, which it leaves
// durably saved to cfg.ckpt.
func runShardedStream(ctx context.Context, rel *fdx.Relation, opts fdx.Options, main *fdx.Accumulator, cfg shardedConfig) error {
	root, cfg := startStream(cfg)
	defer root.End()
	return streamShards(ctx, rel, opts, main, cfg, nil)
}

// streamShards folds any scratch state left by an earlier run into main,
// absorbs the batches main still lacks, and folds the workers' states in
// whatever way the absorb ended. Both folds ignore cancellation, so a
// drain or interrupt still leaves every saved batch in main and no
// scratch file behind. A fold error outranks the absorb's.
func streamShards(ctx context.Context, rel *fdx.Relation, opts fdx.Options, main *fdx.Accumulator, cfg shardedConfig, ship shipFunc) error {
	fold := context.WithoutCancel(ctx)
	if err := foldScratch(fold, opts, main, cfg, ship); err != nil {
		return err
	}
	err := absorbShards(ctx, rel, opts, planShards(main.Coverage(), cfg.total, cfg.shards), cfg)
	if ferr := foldScratch(fold, opts, main, cfg, ship); ferr != nil {
		return ferr
	}
	return err
}

// foldScratch merges every scratch state beside cfg.ckpt into main, in
// file-name order; with ship set, each state that adds coverage is
// shipped before main is saved with it. If any merged, main is saved and
// its WAL reset; then every scratch file (snapshot, WAL, temp) is
// removed. On error main's file is untouched and the scratch files stay
// for the next run.
func foldScratch(ctx context.Context, opts fdx.Options, main *fdx.Accumulator, cfg shardedConfig, ship shipFunc) error {
	dir, prefix := filepath.Dir(cfg.ckpt), filepath.Base(cfg.ckpt)+".shard-"
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files []string
	merged := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		path := filepath.Join(dir, name)
		files = append(files, path)
		if strings.HasSuffix(name, fdx.WALSuffix) || strings.Contains(name, ".tmp-") {
			continue
		}
		applied, err := foldState(ctx, opts, main, path, cfg, ship)
		if err != nil {
			return err
		}
		if applied {
			merged++
		}
	}
	if len(files) == 0 {
		return nil
	}
	if merged > 0 {
		wal, err := fdx.OpenWAL(cfg.ckpt + fdx.WALSuffix)
		if err != nil {
			return err
		}
		err = saveAndReset(main, cfg.ckpt, wal)
		wal.Close()
		if err != nil {
			return err
		}
	}
	for _, path := range files {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	cfg.log.Info("shards_merged", "states", merged, "checkpoint", cfg.ckpt, "batches", main.Batches())
	if cfg.verbose {
		fmt.Fprintf(os.Stderr, "fdx: merged %d shard states into %s (%d batches)\n", merged, cfg.ckpt, main.Batches())
	}
	return nil
}

// foldState reads one scratch state, WAL included, through the validating
// snapshot decoder and merges it into main; with ship set, a state that
// adds coverage is shipped before foldScratch saves main. A read that
// surfaces corruption is retried (re-reading heals transient damage;
// persistent damage keeps the typed error). A state whose rows do not fit
// the batch grid is refused. A foreign or partially overlapping state is
// dropped: applied=false, and its batches are absorbed again.
func foldState(ctx context.Context, opts fdx.Options, main *fdx.Accumulator, path string, cfg shardedConfig, ship shipFunc) (applied bool, err error) {
	var snap bytes.Buffer
	var refused error
	pol := retry.Policy{
		Base:        25 * time.Millisecond,
		Cap:         time.Second,
		MaxAttempts: cfg.retries + 1,
		Notify: func(attempt int, wait time.Duration, err error) {
			if cfg.verbose {
				fmt.Fprintf(os.Stderr, "fdx: reading %s failed (%v); re-reading in %v\n",
					filepath.Base(path), err, wait)
			}
		},
	}
	err = pol.Do(ctx, func(int) (time.Duration, error) {
		snap.Reset()
		acc, err := fdx.LoadCheckpoint(path, opts)
		if err == nil {
			if refused = cfg.checkGrid(acc, path); refused != nil {
				return 0, retry.Permanent(refused)
			}
			err = acc.Snapshot(&snap)
		}
		if err == nil {
			applied, err = main.MergeSnapshot(bytes.NewReader(snap.Bytes()))
		}
		if errors.Is(err, fdx.ErrCorruptCheckpoint) {
			return 0, err
		}
		return 0, retry.Permanent(err)
	})
	switch {
	case refused != nil:
		return false, refused
	case errors.Is(err, fdx.ErrShardMismatch), errors.Is(err, fdx.ErrBadInput):
		cfg.log.Warn("shard_dropped", "path", path, "error", err.Error())
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "fdx: dropping %s (%v); its batches are absorbed again\n", filepath.Base(path), err)
		}
		return false, nil
	case err != nil:
		return false, fmt.Errorf("folding %s: %w", filepath.Base(path), err)
	}
	if applied && ship != nil {
		if err := ship(ctx, snap.Bytes()); err != nil {
			return false, err
		}
	}
	return applied, nil
}

// planShards splits the batches of [0, total) that cov does not cover
// into shards contiguous runs, balanced like fdx.ShardSpans, and returns
// each run as the grid ranges it spans.
func planShards(cov []fdx.BatchRange, total, shards int) [][]fdx.BatchRange {
	var free []int
	for g := range total {
		if !covers(cov, g) {
			free = append(free, g)
		}
	}
	plan := make([][]fdx.BatchRange, shards)
	for s, sp := range fdx.ShardSpans(len(free), shards) {
		for _, g := range free[sp.Lo:sp.Hi] {
			if n := len(plan[s]); n > 0 && plan[s][n-1].Hi == g {
				plan[s][n-1].Hi++
			} else {
				plan[s] = append(plan[s], fdx.BatchRange{Lo: g, Hi: g + 1})
			}
		}
	}
	return plan
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

// absorbShards runs one supervised worker per non-empty span of the plan,
// each its own crash domain, and returns the lowest-index failure. On a
// nil error every worker's scratch checkpoint holds its whole span.
func absorbShards(ctx context.Context, rel *fdx.Relation, opts fdx.Options, plan [][]fdx.BatchRange, cfg shardedConfig) error {
	errs := make([]error, len(plan))
	var wg sync.WaitGroup
	for s, span := range plan {
		if len(span) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, span []fdx.BatchRange) {
			defer wg.Done()
			errs[s] = superviseShard(ctx, rel, opts, span, s, cfg)
		}(s, span)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Workers past the failure saved their own checkpoints; report
			// the lowest-index failure deterministically.
			return err
		}
	}
	return nil
}

// superviseShard runs one shard's worker, restarting it with jittered
// backoff when it crashes or stalls. Cancellation, bad input, and shard
// mismatches are permanent; everything else gets cfg.retries restarts,
// each resuming from the shard's own checkpoint and WAL. A cancelled run
// always returns an error matching fdx.ErrCancelled, even when the
// cancellation lands in a restart backoff.
func superviseShard(ctx context.Context, rel *fdx.Relation, opts fdx.Options, span []fdx.BatchRange, s int, cfg shardedConfig) error {
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
	err := pol.Do(ctx, func(attempt int) (time.Duration, error) {
		// One span per attempt on the shard's own viewer track, so restarts
		// show up as separate bars in the same lane.
		wsp := cfg.obs.Start("shard")
		defer wsp.End()
		wsp.SetTrack(s + 2)
		wsp.Attr("shard", s)
		wsp.Attr("span", fmt.Sprint(span))
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
	if err != nil && ctx.Err() != nil && !errors.Is(err, fdx.ErrCancelled) {
		// The retry policy hands back the bare context error when the
		// cancellation beats an attempt.
		return fmt.Errorf("shard %d: %w", s, fdxerr.Cancelled(err))
	}
	return err
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

// runShardWorker absorbs the batches of span not yet in the worker's
// scratch checkpoint, write-ahead-logging every batch and durably
// snapshotting every cfg.every batches. A restart resumes from that
// state. With cfg.verbose every batch prints a progress line.
func runShardWorker(ctx context.Context, rel *fdx.Relation, opts fdx.Options, span []fdx.BatchRange, path string, cfg shardedConfig, progress *atomic.Int64) error {
	acc, err := fdx.LoadCheckpoint(path, opts)
	if errors.Is(err, os.ErrNotExist) {
		acc = fdx.NewAccumulator(rel.AttrNames(), opts)
		err = acc.SaveCheckpoint(path)
	}
	if err != nil {
		return err
	}
	wal, err := fdx.OpenWAL(path + fdx.WALSuffix)
	if err != nil {
		return err
	}
	defer wal.Close()

	done := acc.Coverage()
	sinceSave := 0
	loopStart, startRows := time.Now(), acc.Rows()
	for _, r := range span {
		for g := r.Lo; g < r.Hi; g++ {
			if covers(done, g) {
				continue
			}
			if cerr := ctx.Err(); cerr != nil {
				// Drain, interrupt, or stall watchdog: make what we absorbed
				// durable so the restart (or the fold) keeps it.
				if err := saveAndReset(acc, path, wal); err != nil {
					return err
				}
				return fmt.Errorf("shard worker stopped at batch %d of %v: %w", g, span, fdxerr.Cancelled(cerr))
			}
			faults.Sleep(faults.ShardStall)
			lo := g * cfg.batchRows
			hi := min(lo+cfg.batchRows, rel.NumRows())
			if err := acc.AddLoggedAt(rel.Slice(lo, hi), g, wal); err != nil {
				return err
			}
			progress.Add(1)
			if cfg.verbose {
				rate := float64(acc.Rows()-startRows) / time.Since(loopStart).Seconds()
				fmt.Fprintf(os.Stderr, "fdx: batch %d/%d  %d rows absorbed  %.0f rows/s\n",
					g+1, cfg.total, acc.Rows(), rate)
			}
			if cfg.batchDelay > 0 {
				time.Sleep(cfg.batchDelay)
			}
			if sinceSave++; sinceSave == cfg.every {
				// Checkpoint boundary: the crash fault kills the worker here,
				// leaving up to cfg.every batches only in the WAL — exactly
				// what the restart must replay.
				if faults.Fire(faults.ShardCrash) {
					return fmt.Errorf("shard worker at batch %d of %v: %w", g+1, span, errShardCrash)
				}
				if err := saveAndReset(acc, path, wal); err != nil {
					return err
				}
				sinceSave = 0
			}
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

// covers reports whether global batch g lies inside the coverage.
func covers(cov []fdx.BatchRange, g int) bool {
	for _, r := range cov {
		if r.Lo <= g && g < r.Hi {
			return true
		}
	}
	return false
}
