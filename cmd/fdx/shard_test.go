package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fdx"
	"fdx/internal/faults"
)

// The shard chaos suite drives the supervised sharded stream in-process
// (so faults can be armed around it) and pins the crash-equivalence
// contract: with crashes, stalls, and corrupt snapshots injected, every
// sharded run either completes bit-identical to an uninterrupted
// sequential absorb (referenceFDs) or fails with a taxonomy-typed error —
// never a wrong answer. Faults are process-global, so these tests do not run parallel
// to each other.

// streamArgs builds a stream invocation against the shared test CSV.
func streamArgs(ckpt string, extra ...string) []string {
	args := []string{"-checkpoint", ckpt, "-batch", "50", "-every", "2"}
	args = append(args, extra...)
	return append(args, csvPath)
}

// runStreamInProcess calls runStream directly, capturing stdout so the
// printed dependency lines can be compared across runs.
func runStreamInProcess(t *testing.T, args []string) (string, int) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := runStream(args)
	w.Close()
	os.Stdout = old
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := r.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	r.Close()
	return sb.String(), code
}

// referenceFDs absorbs the test CSV through the library, one
// Accumulator.Add per batch of batchRows rows, discovers, and returns the
// dependency lines in the CLI's format (identical B prints identical
// scores). It never runs the stream command, so it is an independent
// sequential baseline for every CLI stream run.
func referenceFDs(t *testing.T, batchRows int) []string {
	t.Helper()
	rel, err := fdx.LoadCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	acc := fdx.NewAccumulator(rel.AttrNames(), fdx.Options{})
	for lo := 0; lo < rel.NumRows(); lo += batchRows {
		if err := acc.Add(rel.Slice(lo, min(lo+batchRows, rel.NumRows()))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := acc.Discover()
	if err != nil {
		t.Fatal(err)
	}
	var fds []string
	for _, fd := range res.FDs {
		fds = append(fds, strings.TrimSpace(fmt.Sprintf("%s   (score %.3f)", fd, fd.Score)))
	}
	if len(fds) == 0 {
		t.Fatal("reference absorb found no dependencies")
	}
	return fds
}

// TestShardedStreamMatchesSequential pins the clean-path equivalence at
// several shard counts.
func TestShardedStreamMatchesSequential(t *testing.T) {
	want := referenceFDs(t, 50)
	for _, shards := range []int{2, 4, 8} {
		ckpt := filepath.Join(t.TempDir(), "state.fdx")
		out, code := runStreamInProcess(t, streamArgs(ckpt, "-shards", fmt.Sprint(shards)))
		if code != 0 {
			t.Fatalf("shards=%d: exit %d\n%s", shards, code, out)
		}
		if got := fdLines(out); !equalStrings(got, want) {
			t.Errorf("shards=%d dependencies differ:\nsharded:    %v\nsequential: %v", shards, got, want)
		}
	}
}

// TestShardedStreamSurvivesCrashes kills every shard worker at every
// checkpoint boundary until the fault budget runs dry; the supervisor
// must restart each from its own WAL/checkpoint and the merged result
// must match the uninterrupted run exactly.
func TestShardedStreamSurvivesCrashes(t *testing.T) {
	want := referenceFDs(t, 50)
	for _, shards := range []int{2, 4, 8} {
		func() {
			defer faults.Reset()
			// Enough shots that every shard crashes at multiple boundaries;
			// retries cover the worst case of one shard eating every shot.
			faults.Arm(faults.ShardCrash, faults.Config{Times: 2 * shards})
			ckpt := filepath.Join(t.TempDir(), "state.fdx")
			out, code := runStreamInProcess(t, streamArgs(ckpt,
				"-shards", fmt.Sprint(shards), "-shard-retries", fmt.Sprint(2*shards)))
			if code != 0 {
				t.Fatalf("shards=%d with crashes: exit %d\n%s", shards, code, out)
			}
			if got := fdLines(out); !equalStrings(got, want) {
				t.Errorf("shards=%d crash run differs:\ncrashed:    %v\nsequential: %v", shards, got, want)
			}
		}()
	}
}

// TestShardedStreamCrashEveryBoundary arms an unlimited crash budget
// with -shard-retries 0: the run must fail, and with a typed,
// classified error (exit 1 for the simulated crash), never a wrong
// answer or a corrupted main checkpoint — a follow-up clean run against
// the same checkpoint must still produce the reference dependencies.
func TestShardedStreamCrashEveryBoundary(t *testing.T) {
	want := referenceFDs(t, 50)
	ckpt := filepath.Join(t.TempDir(), "state.fdx")
	func() {
		defer faults.Reset()
		faults.Arm(faults.ShardCrash, faults.Config{}) // unlimited
		out, code := runStreamInProcess(t, streamArgs(ckpt, "-shards", "4", "-shard-retries", "0"))
		if code == 0 {
			t.Fatalf("run with unlimited crashes and no retries succeeded:\n%s", out)
		}
	}()
	out, code := runStreamInProcess(t, streamArgs(ckpt, "-shards", "4"))
	if code != 0 {
		t.Fatalf("recovery run: exit %d\n%s", code, out)
	}
	if got := fdLines(out); !equalStrings(got, want) {
		t.Errorf("recovery after crash-looped run differs:\ngot:  %v\nwant: %v", got, want)
	}
}

// TestShardedStreamSurvivesStalls stalls shard workers long enough for
// the watchdog to cancel and restart them; the result must still match.
func TestShardedStreamSurvivesStalls(t *testing.T) {
	want := referenceFDs(t, 50)
	defer faults.Reset()
	faults.Arm(faults.ShardStall, faults.Config{Times: 2, Delay: 500 * time.Millisecond})
	ckpt := filepath.Join(t.TempDir(), "state.fdx")
	out, code := runStreamInProcess(t, streamArgs(ckpt,
		"-shards", "2", "-shard-retries", "6", "-shard-stall-timeout", "100ms"))
	if code != 0 {
		t.Fatalf("stalled run: exit %d\n%s", code, out)
	}
	if got := fdLines(out); !equalStrings(got, want) {
		t.Errorf("stalled run differs:\ngot:  %v\nwant: %v", got, want)
	}
}

// TestShardedStreamSurvivesMergeCorruption flips a bit in shard
// snapshots as they are read for merging; the merge phase must re-read
// and still produce the exact sequential result.
func TestShardedStreamSurvivesMergeCorruption(t *testing.T) {
	want := referenceFDs(t, 50)
	defer faults.Reset()
	faults.Arm(faults.MergeCorrupt, faults.Config{Times: 2})
	ckpt := filepath.Join(t.TempDir(), "state.fdx")
	out, code := runStreamInProcess(t, streamArgs(ckpt, "-shards", "4", "-shard-retries", "3"))
	if code != 0 {
		t.Fatalf("merge-corrupt run: exit %d\n%s", code, out)
	}
	if got := fdLines(out); !equalStrings(got, want) {
		t.Errorf("merge-corrupt run differs:\ngot:  %v\nwant: %v", got, want)
	}
}

// TestShardedStreamPersistentCorruptionFailsTyped exhausts the merge
// retries with an unlimited corruption fault: the run must fail with the
// checkpoint taxonomy (exit 3), not a wrong answer.
func TestShardedStreamPersistentCorruptionFailsTyped(t *testing.T) {
	defer faults.Reset()
	faults.Arm(faults.MergeCorrupt, faults.Config{}) // unlimited
	ckpt := filepath.Join(t.TempDir(), "state.fdx")
	out, code := runStreamInProcess(t, streamArgs(ckpt, "-shards", "2", "-shard-retries", "1"))
	if code != 3 {
		t.Fatalf("persistently corrupt merge: exit %d, want 3\n%s", code, out)
	}
}

// TestShardedStreamResumesAcrossRuns interrupts a sharded run mid-span
// (via an exhausted crash budget), then completes it with a second
// sharded run that must resume the shard checkpoints rather than start
// over, and a third run that must find the merged grid complete.
func TestShardedStreamResumesAcrossRuns(t *testing.T) {
	want := referenceFDs(t, 50)
	ckpt := filepath.Join(t.TempDir(), "state.fdx")
	func() {
		defer faults.Reset()
		faults.Arm(faults.ShardCrash, faults.Config{})
		if _, code := runStreamInProcess(t, streamArgs(ckpt, "-shards", "3", "-shard-retries", "0")); code == 0 {
			t.Fatal("crash-looped first run unexpectedly succeeded")
		}
	}()
	// Shard scratch files now hold partial spans; a clean rerun resumes
	// them and completes.
	out, code := runStreamInProcess(t, streamArgs(ckpt, "-shards", "3"))
	if code != 0 {
		t.Fatalf("resuming run: exit %d\n%s", code, out)
	}
	if got := fdLines(out); !equalStrings(got, want) {
		t.Errorf("resumed sharded run differs:\ngot:  %v\nwant: %v", got, want)
	}
	// The merged checkpoint covers everything; a further run (even at a
	// different shard count) must short-circuit to the same answer.
	out, code = runStreamInProcess(t, streamArgs(ckpt, "-shards", "5"))
	if code != 0 {
		t.Fatalf("post-merge run: exit %d\n%s", code, out)
	}
	if got := fdLines(out); !equalStrings(got, want) {
		t.Errorf("post-merge run differs:\ngot:  %v\nwant: %v", got, want)
	}
}

// TestShardedStreamMoreShardsThanBatches covers empty spans: the grid
// has 12 batches at -batch 50, so 16 shards leave some workers idle.
func TestShardedStreamMoreShardsThanBatches(t *testing.T) {
	want := referenceFDs(t, 50)
	ckpt := filepath.Join(t.TempDir(), "state.fdx")
	out, code := runStreamInProcess(t, streamArgs(ckpt, "-shards", "16"))
	if code != 0 {
		t.Fatalf("16 shards: exit %d\n%s", code, out)
	}
	if got := fdLines(out); !equalStrings(got, want) {
		t.Errorf("16-shard run differs:\ngot:  %v\nwant: %v", got, want)
	}
}

// TestShardedStreamAfterSequentialPrefix drains a sequential run partway
// (library-level prefix checkpoint), then finishes sharded: the shards
// must split only the remaining batches and merge cleanly onto the
// prefix.
func TestShardedStreamAfterSequentialPrefix(t *testing.T) {
	want := referenceFDs(t, 50)
	rel, err := fdx.LoadCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "state.fdx")
	acc := fdx.NewAccumulator(rel.AttrNames(), fdx.Options{})
	for b := 0; b < 3; b++ {
		if err := acc.Add(rel.Slice(b*50, (b+1)*50)); err != nil {
			t.Fatal(err)
		}
	}
	if err := acc.SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	out, code := runStreamInProcess(t, streamArgs(ckpt, "-shards", "4"))
	if code != 0 {
		t.Fatalf("sharded run on a sequential prefix: exit %d\n%s", code, out)
	}
	if got := fdLines(out); !equalStrings(got, want) {
		t.Errorf("prefix+sharded run differs:\ngot:  %v\nwant: %v", got, want)
	}
}

// TestShardSupervisorClassifiesErrors checks the supervisor's permanent-vs-
// retryable split directly: a cancelled context is permanent (no retry
// burn), a shard mismatch is permanent, and the typed errors flow out.
func TestShardSupervisorClassifiesErrors(t *testing.T) {
	rel, err := fdx.LoadCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := shardedConfig{ckpt: filepath.Join(t.TempDir(), "s.fdx"),
		every: 2, batchRows: 50, shards: 2, retries: 3}
	err = superviseShard(ctx, rel, fdx.Options{}, fdx.BatchRange{Lo: 0, Hi: 3}, 0, cfg)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled supervisor returned %v, want context.Canceled", err)
	}
}
