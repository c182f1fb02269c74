package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"fdx"
)

// signalStream starts a deliberately slow stream run (extra flags go
// before the input), delivers sig after delay, and returns stdout, stderr,
// and the exit code.
func signalStream(t *testing.T, ckpt string, sig os.Signal, delay time.Duration, extra ...string) (string, string, int) {
	t.Helper()
	args := append([]string{"stream", "-checkpoint", ckpt,
		"-batch", "20", "-every", "1000", "-batch-delay", "30ms"}, extra...)
	cmd := exec.Command(binPath, append(args, csvPath)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(delay)
	if err := cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var code int
	select {
	case err := <-done:
		code = 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("waiting for fdx stream: %v", err)
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("fdx stream did not exit after %v; stderr:\n%s", sig, stderr.String())
	}
	return stdout.String(), stderr.String(), code
}

// drainStream SIGTERMs a default (one-worker) stream run partway and checks
// the drain: exit 0 with the clean-drain notice, the absorbed prefix [0, g)
// folded into the main checkpoint with g > 0, an empty main WAL, and no
// shard scratch files left behind. It returns g and the batch total.
func drainStream(t *testing.T, ckpt string) (int, int) {
	t.Helper()
	_, stderr, code := signalStream(t, ckpt, syscall.SIGTERM, 200*time.Millisecond)
	if code != 0 {
		t.Fatalf("SIGTERM drain: exit %d, want 0; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "SIGTERM") || !strings.Contains(stderr, "exiting cleanly") {
		t.Errorf("drain did not announce itself; stderr:\n%s", stderr)
	}
	assertNoScratch(t, ckpt)
	if fi, err := os.Stat(ckpt + fdx.WALSuffix); err == nil && fi.Size() != 0 {
		t.Errorf("post-drain WAL holds %d bytes, want 0", fi.Size())
	}
	acc, err := fdx.LoadCheckpoint(ckpt, fdx.Options{})
	if err != nil {
		t.Fatalf("loading the drained checkpoint: %v", err)
	}
	cov := acc.Coverage()
	if len(cov) != 1 || cov[0].Lo != 0 || cov[0].Hi == 0 {
		t.Fatalf("drained checkpoint covers %v, want one absorbed prefix [0, g) with g > 0", cov)
	}
	rel, err := fdx.LoadCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	return cov[0].Hi, (rel.NumRows() + 19) / 20
}

// assertNoScratch fails the test if any <ckpt>.shard-* file is left.
func assertNoScratch(t *testing.T, ckpt string) {
	t.Helper()
	left, err := filepath.Glob(ckpt + ".shard-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("scratch files left behind: %v", left)
	}
}

// batchLines returns the -v per-batch progress lines of a stream run.
func batchLines(stderr string) []string {
	var lines []string
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(line, "fdx: batch ") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestStreamSIGTERMDrainsCleanly: SIGTERM mid-stream checkpoints the
// absorbed prefix and exits 0; a rerun resumes from that checkpoint,
// absorbs only the remaining batches, and produces the same dependencies
// as an uninterrupted absorb.
func TestStreamSIGTERMDrainsCleanly(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.fdx")
	g, total := drainStream(t, ckpt)
	resumed, stderr, code := run(t, "stream", "-v", "-checkpoint", ckpt, "-batch", "20", "-every", "1000", csvPath)
	if code != 0 {
		t.Fatalf("rerun after drain: exit %d\n%s", code, stderr)
	}
	if want := fmt.Sprintf("resuming from %s: %d batches", ckpt, g); !strings.Contains(stderr, want) {
		t.Errorf("rerun did not resume from the drain checkpoint (want %q); stderr:\n%s", want, stderr)
	}
	lines := batchLines(stderr)
	if len(lines) != total-g || (len(lines) > 0 && !strings.HasPrefix(lines[0], fmt.Sprintf("fdx: batch %d/%d ", g+1, total))) {
		t.Errorf("rerun absorbed %d batches, want the remaining %d starting at batch %d; lines:\n%s",
			len(lines), total-g, g+1, strings.Join(lines, "\n"))
	}
	if a, b := referenceFDs(t, 20), fdLines(resumed); !slices.Equal(a, b) {
		t.Errorf("dependencies after drained resume differ:\nreference: %v\nresumed:   %v", a, b)
	}
}

// TestStreamDrainResumesAtAnyShardCount: a prefix drained at the default
// one worker lives in the main checkpoint, so a rerun with -shards 4
// splits only the remaining batches instead of re-absorbing the grid.
func TestStreamDrainResumesAtAnyShardCount(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.fdx")
	g, total := drainStream(t, ckpt)
	resumed, stderr, code := run(t, "stream", "-v", "-shards", "4", "-checkpoint", ckpt,
		"-batch", "20", "-every", "1000", csvPath)
	if code != 0 {
		t.Fatalf("-shards 4 rerun after drain: exit %d\n%s", code, stderr)
	}
	lines := batchLines(stderr)
	if len(lines) != total-g {
		t.Errorf("-shards 4 rerun absorbed %d batches, want the remaining %d; lines:\n%s",
			len(lines), total-g, strings.Join(lines, "\n"))
	}
	for b := 1; b <= g; b++ {
		if strings.Contains(stderr, fmt.Sprintf("fdx: batch %d/%d ", b, total)) {
			t.Errorf("-shards 4 rerun re-absorbed drained batch %d", b)
		}
	}
	if a, b := referenceFDs(t, 20), fdLines(resumed); !slices.Equal(a, b) {
		t.Errorf("dependencies after drained -shards 4 resume differ:\nreference: %v\nresumed:   %v", a, b)
	}
}

// TestStreamSIGINTStaysInterrupt: SIGINT keeps the prompt-interrupt
// contract — exit 130, no clean-drain message.
func TestStreamSIGINTStaysInterrupt(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.fdx")
	_, stderr, code := signalStream(t, ckpt, os.Interrupt, 200*time.Millisecond)
	if code != 130 {
		t.Fatalf("SIGINT: exit %d, want 130; stderr:\n%s", code, stderr)
	}
	if strings.Contains(stderr, "exiting cleanly") {
		t.Errorf("SIGINT took the drain path; stderr:\n%s", stderr)
	}
}

// TestStreamTornTailWarning: a WAL whose tail record was torn mid-append
// (simulated by truncation) makes a verbose resume print the torn-tail
// warning and continue one batch earlier.
func TestStreamTornTailWarning(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "state.fdx")
	rel, err := fdx.LoadCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	acc := fdx.NewAccumulator(rel.AttrNames(), fdx.Options{})
	if err := acc.SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	wal, err := fdx.OpenWAL(ckpt + fdx.WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		if err := acc.AddLogged(rel.Slice(b*100, (b+1)*100), wal); err != nil {
			t.Fatal(err)
		}
	}
	wal.Close()
	// Tear the tail: drop the last 5 bytes of the second record.
	walPath := ckpt + fdx.WALSuffix
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	_, stderr, code := run(t, "stream", "-v", "-checkpoint", ckpt, "-batch", "100", csvPath)
	if code != 0 {
		t.Fatalf("resume over torn WAL: exit %d\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "torn WAL tail") {
		t.Errorf("verbose resume did not warn about the torn tail; stderr:\n%s", stderr)
	}
	if !strings.Contains(stderr, "1 batches, 100 rows already absorbed") {
		t.Errorf("resume position wrong (want 1 batch after truncation); stderr:\n%s", stderr)
	}
}
