package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"fdx"
	"fdx/internal/serve"
)

// The resume tests pin the one resume rule of `fdx stream`: whatever
// scratch states a run finds beside its checkpoint, from any shard count,
// they fold by batch coverage, every durable batch is kept, no batch is
// absorbed twice, and no scratch file outlives the run.

// writeState saves an accumulator holding the given global batches of the
// test CSV's batchRows-row grid to path.
func writeState(t *testing.T, path string, batchRows int, opts fdx.Options, batches ...int) *fdx.Accumulator {
	t.Helper()
	rel, err := fdx.LoadCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	acc := fdx.NewAccumulator(rel.AttrNames(), opts)
	for _, g := range batches {
		if err := acc.AddAt(rel.Slice(g*batchRows, min((g+1)*batchRows, rel.NumRows())), g); err != nil {
			t.Fatal(err)
		}
	}
	if err := acc.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	return acc
}

// span returns the batch indices [lo, hi).
func span(lo, hi int) []int {
	var gs []int
	for g := lo; g < hi; g++ {
		gs = append(gs, g)
	}
	return gs
}

// TestShardResumeSweep kills or drains a `-shards a` run at a seeded
// random point and reruns it at `-shards b`, for every pair. A -v batch
// line is printed only after the batch is in the WAL, so the two runs'
// lines may sum to at most the grid: a fold that lost a durable batch
// would make the rerun absorb it again. The rerun must leave no scratch
// file and print the sequential reference dependencies.
func TestShardResumeSweep(t *testing.T) {
	want := referenceFDs(t, 20)
	const total = 30 // 600 rows at -batch 20
	counts := []int{1, 2, 4, 7}
	rng := rand.New(rand.NewSource(28))
	for _, a := range counts {
		for _, b := range counts {
			sig := os.Signal(syscall.SIGTERM)
			if rng.Intn(2) == 0 {
				sig = syscall.SIGKILL
			}
			delay := time.Duration(20+rng.Intn(100)) * time.Millisecond
			t.Run(fmt.Sprintf("%d-to-%d", a, b), func(t *testing.T) {
				ckpt := filepath.Join(t.TempDir(), "state.fdx")
				_, first, code := signalStream(t, ckpt, sig, delay, "-v", "-shards", fmt.Sprint(a))
				if sig == syscall.SIGTERM && code != 0 && code != -1 {
					// -1: the signal beat the drain handler's installation.
					t.Fatalf("%v after %v: exit %d; stderr:\n%s", sig, delay, code, first)
				}
				out, second, code := run(t, "stream", "-v", "-shards", fmt.Sprint(b), "-checkpoint", ckpt,
					"-batch", "20", "-every", "1000", csvPath)
				if code != 0 {
					t.Fatalf("rerun: exit %d; stderr:\n%s", code, second)
				}
				n, m := len(batchLines(first)), len(batchLines(second))
				t.Logf("%v after %v: %d + %d batches", sig, delay, n, m)
				if n+m > total {
					t.Errorf("runs absorbed %d + %d batches of a %d-batch grid", n, m, total)
				}
				assertNoScratch(t, ckpt)
				if got := fdLines(out); !slices.Equal(got, want) {
					t.Errorf("dependencies differ:\ngot:  %v\nwant: %v", got, want)
				}
			})
		}
	}
}

// TestShardFoldsAnyScratchLayout leaves scratch states of two older
// layouts beside an empty checkpoint: two disjoint partial spans merge, a
// contained one and a foreign one (other seed) are no-ops, and one that
// partially overlaps an earlier merge is dropped. The rerun absorbs
// exactly the batches the merged states lack.
func TestShardFoldsAnyScratchLayout(t *testing.T) {
	want := referenceFDs(t, 50) // 12 batches
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "state.fdx")
	writeState(t, ckpt, 50, fdx.Options{})
	writeState(t, ckpt+".shard-0-of-4", 50, fdx.Options{}, span(0, 2)...)
	writeState(t, ckpt+".shard-1-of-4", 50, fdx.Options{}, span(3, 5)...)
	writeState(t, ckpt+".shard-2-of-2", 50, fdx.Options{}, span(4, 8)...)  // overlaps [3,5)
	writeState(t, ckpt+".shard-3-of-4", 50, fdx.Options{}, 1)              // contained
	writeState(t, ckpt+".shard-4-of-5", 50, fdx.Options{Seed: 99}, 10, 11) // foreign

	out, stderr, code := run(t, "stream", "-v", "-shards", "3", "-checkpoint", ckpt,
		"-batch", "50", "-every", "2", csvPath)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	if n := len(batchLines(stderr)); n != 12-4 {
		t.Errorf("absorbed %d batches, want the 8 the merged states lack; stderr:\n%s", n, stderr)
	}
	for _, g := range []int{0, 1, 3, 4} {
		if strings.Contains(stderr, fmt.Sprintf("fdx: batch %d/12 ", g+1)) {
			t.Errorf("batch %d re-absorbed although a merged state held it", g)
		}
	}
	assertNoScratch(t, ckpt)
	if got := fdLines(out); !slices.Equal(got, want) {
		t.Errorf("dependencies differ:\ngot:  %v\nwant: %v", got, want)
	}
}

// TestShardShipResumesScratchOfAnyLayout: a -shards 4 -ship run that died
// after shipping its first shard left [0,3) in the session and four
// complete shard files on disk. A -shards 2 -ship rerun must ship and
// fold them all and discover on the full grid. From an empty directory the
// same rerun would ship [0,6), which partially overlaps the session: it
// must fail typed (exit 2), never finish with fewer rows.
func TestShardShipResumesScratchOfAnyLayout(t *testing.T) {
	want := referenceFDs(t, 50)
	sv, err := serve.New(serve.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "state.fdx")
	var first []byte
	for s := 0; s < 4; s++ {
		acc := writeState(t, fmt.Sprintf("%s.shard-%d-of-4", ckpt, s), 50, fdx.Options{}, span(3*s, 3*s+3)...)
		if s == 0 {
			var buf bytes.Buffer
			if err := acc.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			first = buf.Bytes()
		}
	}
	rel, err := fdx.LoadCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	client := &serve.ShardClient{BaseURL: ts.URL}
	ctx := t.Context()
	for _, id := range []string{"resume", "fresh"} {
		if err := client.CreateSession(ctx, id, rel.AttrNames(), serve.SessionOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := client.ShipShard(ctx, id, 2, first); err != nil {
			t.Fatal(err)
		}
	}

	out, code := runStreamInProcess(t, streamArgs(ckpt, "-shards", "2", "-ship", ts.URL, "-session", "resume"))
	if code != 0 {
		t.Fatalf("resuming ship run: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "600 rows in 12 batches") {
		t.Errorf("remote discover did not cover the grid:\n%s", out)
	}
	if got := fdLines(out); !slices.Equal(got, want) {
		t.Errorf("remote dependencies differ:\ngot:  %v\nwant: %v", got, want)
	}
	assertNoScratch(t, ckpt)

	fresh := filepath.Join(t.TempDir(), "state.fdx")
	out, code = runStreamInProcess(t, streamArgs(fresh, "-shards", "2", "-ship", ts.URL, "-session", "fresh"))
	if code != 2 {
		t.Errorf("ship over a partially overlapping session: exit %d, want 2\n%s", code, out)
	}
}

// TestStreamBatchChangeExitsTwo: a checkpoint or scratch state absorbed at
// -batch 50 does not fit the -batch 100 grid; the rerun must refuse with
// exit 2 and leave the state's bytes as they were.
func TestStreamBatchChangeExitsTwo(t *testing.T) {
	for _, name := range []string{"checkpoint", "scratch"} {
		ckpt := filepath.Join(t.TempDir(), "state.fdx")
		state := ckpt
		if name == "scratch" {
			writeState(t, ckpt, 50, fdx.Options{})
			state = ckpt + ".shard-0"
		}
		writeState(t, state, 50, fdx.Options{}, span(0, 3)...)
		before, err := os.ReadFile(state)
		if err != nil {
			t.Fatal(err)
		}
		_, stderr, code := run(t, "stream", "-checkpoint", ckpt, "-batch", "100", csvPath)
		if code != 2 || !strings.Contains(stderr, "-batch 100") {
			t.Errorf("%s at -batch 50 resumed at -batch 100: exit %d, want 2 naming -batch; stderr:\n%s", name, code, stderr)
		}
		if after, err := os.ReadFile(state); err != nil || !bytes.Equal(before, after) {
			t.Errorf("%s changed by the refused rerun (err %v)", name, err)
		}
	}
}
