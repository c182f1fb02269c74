package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"fdx"
	"fdx/internal/bayesnet"
	"fdx/internal/dataset"
)

var (
	binPath string
	csvPath string
)

// TestMain builds the fdx binary once so the tests can observe real exit
// codes, and writes a deterministic CSV with clean zip→city and
// city→state dependencies for the stream tests.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fdxcmd")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "fdx")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building fdx: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	csvPath = filepath.Join(dir, "addresses.csv")
	var b strings.Builder
	b.WriteString("id,zip,city,state\n")
	for i := 0; i < 600; i++ {
		z := (i * 7) % 20
		fmt.Fprintf(&b, "r%d,z%d,c%d,s%d\n", i, z, z/2, z/6)
	}
	if err := os.WriteFile(csvPath, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the fdx binary and returns stdout, stderr, and exit code.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return stdout.String(), stderr.String(), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("fdx failed to start: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	return stdout.String(), stderr.String(), ee.ExitCode()
}

// fdLines extracts the per-dependency lines from a run's stdout.
func fdLines(out string) []string {
	var fds []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "(score ") {
			fds = append(fds, strings.TrimSpace(line))
		}
	}
	return fds
}

func TestUsageExitsTwo(t *testing.T) {
	if _, _, code := run(t); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if _, _, code := run(t, "stream", csvPath); code != 2 {
		t.Errorf("stream without -checkpoint: exit %d, want 2", code)
	}
}

func TestMissingInputExitsTwo(t *testing.T) {
	_, stderr, code := run(t, filepath.Join(t.TempDir(), "nope.csv"))
	if code != 2 {
		t.Errorf("exit %d, want 2\n%s", code, stderr)
	}
}

// TestErrorLinesCarryOnePrefix: every stderr line of a failed run starts
// with exactly one "fdx: ", whether the library made the error (and
// prefixed it already) or the command did.
func TestErrorLinesCarryOnePrefix(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "s.fdx")
	if stdout, stderr, code := run(t, "stream", "-checkpoint", ckpt, "-batch", "200", csvPath); code != 0 {
		t.Fatalf("stream exit %d\n%s%s", code, stdout, stderr)
	}
	other := filepath.Join(dir, "other.csv")
	if err := os.WriteFile(other, []byte("a,b\n1,2\n3,4\n5,6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"library error":   {"-ordering", "bogus", csvPath},
		"schema mismatch": {"stream", "-checkpoint", ckpt, other},
	} {
		_, stderr, code := run(t, args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2\n%s", name, code, stderr)
		}
		for _, line := range strings.Split(strings.TrimSpace(stderr), "\n") {
			if !strings.HasPrefix(line, "fdx: ") || strings.HasPrefix(line, "fdx: fdx: ") {
				t.Errorf("%s: stderr line %q does not start with exactly one \"fdx: \"", name, line)
			}
		}
	}
}

// TestInvalidOptionFlagsExitTwoBeforeAnyState: an out-of-range option
// fails with exit 2 before a plain run discovers anything and before a
// stream writes its first checkpoint, so a bad flag is never pinned into a
// resumable stream.
func TestInvalidOptionFlagsExitTwoBeforeAnyState(t *testing.T) {
	for _, flags := range [][]string{
		{"-lambda", "-3"}, {"-lambda", "-0.001"}, {"-ordering", "bogus"}, {"-numeric-tol", "NaN"},
	} {
		if stdout, stderr, code := run(t, append(flags, csvPath)...); code != 2 || stdout != "" {
			t.Errorf("fdx %v: exit %d, stdout %q, want 2 and nothing\n%s", flags, code, stdout, stderr)
		}
		dir := t.TempDir()
		args := append([]string{"stream", "-checkpoint", filepath.Join(dir, "s.fdx")}, flags...)
		if _, stderr, code := run(t, append(args, csvPath)...); code != 2 {
			t.Errorf("fdx stream %v: exit %d, want 2\n%s", flags, code, stderr)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("fdx stream %v left %d files behind, want none", flags, len(left))
		}
	}
	if stdout, stderr, code := run(t, "-max-rows", "-5", csvPath); code != 2 || stdout != "" {
		t.Errorf("fdx -max-rows -5: exit %d, stdout %q, want 2 and nothing\n%s", code, stdout, stderr)
	}
}

func TestDiscoverFindsDependencies(t *testing.T) {
	stdout, stderr, code := run(t, csvPath)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "zip -> city") {
		t.Errorf("expected zip -> city in output:\n%s", stdout)
	}
}

// TestProfileHonoursTransformFlags: -profile discovers with the same
// transform options as a plain run, so under -max-rows its FD list equals
// plain fdx's. Alarm at 2,000 rows is large enough that -max-rows 60
// changes the plain FD list, so a dropped flag shows.
func TestProfileHonoursTransformFlags(t *testing.T) {
	net, err := bayesnet.ByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "alarm.csv")
	if err := dataset.SaveCSV(net.Sample(2000, 0.01, 1), path); err != nil {
		t.Fatal(err)
	}
	plainFDs := func(args ...string) []string {
		t.Helper()
		out, stderr, code := run(t, append(args, path)...)
		if code != 0 {
			t.Fatalf("fdx %v: exit %d\n%s", args, code, stderr)
		}
		var fds []string
		for _, line := range fdLines(out) {
			fd, _, _ := strings.Cut(line, "   (score ")
			fds = append(fds, fd)
		}
		sort.Strings(fds)
		return fds
	}
	capped := plainFDs("-max-rows", "60")
	if slices.Equal(capped, plainFDs()) {
		t.Fatal("-max-rows 60 does not change the plain FD list; the data cannot show a dropped flag")
	}

	out, stderr, code := run(t, "-profile", "-max-rows", "60", path)
	if code != 0 {
		t.Fatalf("fdx -profile: exit %d\n%s", code, stderr)
	}
	_, body, _ := strings.Cut(out, "discovered FDs:\n")
	body, _, _ = strings.Cut(body, "\napproximate keys:")
	var profiled []string
	for _, line := range strings.Split(body, "\n") {
		if line = strings.TrimSpace(line); strings.Contains(line, " -> ") {
			profiled = append(profiled, line)
		}
	}
	sort.Strings(profiled)
	if !slices.Equal(profiled, capped) {
		t.Errorf("-profile -max-rows 60 FDs differ from plain -max-rows 60:\nprofile: %v\nplain:   %v", profiled, capped)
	}
}

// TestStreamResumeMatchesFreshRun is the CLI-level crash-equivalence
// check: a completed stream rerun against its own checkpoint resumes (no
// batches left) and prints the identical dependencies.
func TestStreamResumeMatchesFreshRun(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.fdx")
	args := []string{"stream", "-checkpoint", ckpt, "-batch", "100", "-every", "2", csvPath}
	fresh, stderr, code := run(t, args...)
	if code != 0 {
		t.Fatalf("fresh run: exit %d\n%s%s", code, fresh, stderr)
	}
	if len(fdLines(fresh)) == 0 {
		t.Fatalf("fresh run found no dependencies:\n%s", fresh)
	}
	resumed, stderr, code := run(t, args...)
	if code != 0 {
		t.Fatalf("resumed run: exit %d\n%s%s", code, resumed, stderr)
	}
	if !strings.Contains(stderr, "resuming from") {
		t.Errorf("second run did not resume from the checkpoint; stderr:\n%s", stderr)
	}
	if a, b := fdLines(fresh), fdLines(resumed); !slices.Equal(a, b) {
		t.Errorf("resumed dependencies differ:\nfresh:   %v\nresumed: %v", a, b)
	}
}

// TestStreamResumeAfterPartialCheckpoint snapshots a prefix of the stream
// via the library, then lets the CLI finish it; the result must match an
// uninterrupted CLI run.
func TestStreamResumeAfterPartialCheckpoint(t *testing.T) {
	full, stderr, code := run(t, "stream", "-checkpoint", filepath.Join(t.TempDir(), "ref.fdx"),
		"-batch", "100", "-every", "2", csvPath)
	if code != 0 {
		t.Fatalf("reference run: exit %d\n%s%s", code, full, stderr)
	}

	rel, err := fdx.LoadCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "state.fdx")
	acc := fdx.NewAccumulator(rel.AttrNames(), fdx.Options{})
	for b := 0; b < 3; b++ {
		if err := acc.Add(rel.Slice(b*100, (b+1)*100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := acc.SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}

	resumed, stderr, code := run(t, "stream", "-checkpoint", ckpt, "-batch", "100", "-every", "2", csvPath)
	if code != 0 {
		t.Fatalf("resumed run: exit %d\n%s%s", code, resumed, stderr)
	}
	if !strings.Contains(stderr, "3 batches, 300 rows already absorbed") {
		t.Errorf("resume did not pick up the partial checkpoint; stderr:\n%s", stderr)
	}
	if a, b := fdLines(full), fdLines(resumed); !slices.Equal(a, b) {
		t.Errorf("resumed dependencies differ:\nfull:    %v\nresumed: %v", a, b)
	}
}

func TestStreamGarbageCheckpointExitsThree(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.fdx")
	if err := os.WriteFile(ckpt, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := run(t, "stream", "-checkpoint", ckpt, csvPath)
	if code != 3 {
		t.Errorf("exit %d, want 3\n%s", code, stderr)
	}
}

func TestStreamSeedMismatchExitsTwo(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.fdx")
	if _, stderr, code := run(t, "stream", "-checkpoint", ckpt, "-seed", "1", csvPath); code != 0 {
		t.Fatalf("first run: exit %d\n%s", code, stderr)
	}
	_, stderr, code := run(t, "stream", "-checkpoint", ckpt, "-seed", "2", csvPath)
	if code != 2 {
		t.Errorf("exit %d, want 2\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "different options") {
		t.Errorf("stderr does not explain the mismatch:\n%s", stderr)
	}
}

// TestExitCode covers the taxonomy branches the binary tests cannot reach
// deterministically (cancellation, internal errors).
func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{fmt.Errorf("outer: %w", fdx.ErrCancelled), 130},
		{fmt.Errorf("outer: %w: %w", fdx.ErrCancelled, context.Canceled), 130},
		{fmt.Errorf("outer: %w", fdx.ErrCorruptCheckpoint), 3},
		{fmt.Errorf("outer: %w", fdx.ErrCheckpointVersion), 3},
		{fmt.Errorf("outer: %w", fdx.ErrBadInput), 2},
		{fmt.Errorf("outer: %w", fdx.ErrInternal), 1},
		{errors.New("unclassified"), 1},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
