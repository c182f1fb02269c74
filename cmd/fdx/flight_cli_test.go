package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fdx"
	"fdx/internal/obs"
	"fdx/internal/obs/flight"
	"fdx/internal/serve"
)

// preserveFlightCapture copies the capture directory's ring files into
// $FDX_FLIGHT_ARTIFACT_DIR/<test-name> when the test fails, so CI can
// upload the black box of a failed chaos run for postmortem with
// `fdx flight`.
func preserveFlightCapture(t *testing.T, dir string) {
	t.Cleanup(func() {
		dst := os.Getenv("FDX_FLIGHT_ARTIFACT_DIR")
		if dst == "" || !t.Failed() {
			return
		}
		out := filepath.Join(dst, strings.ReplaceAll(t.Name(), "/", "_"))
		files, err := flight.Files(dir)
		if err == nil {
			err = os.MkdirAll(out, 0o755)
		}
		if err != nil {
			t.Logf("preserving flight capture: %v", err)
			return
		}
		for _, f := range files {
			data, rerr := os.ReadFile(f)
			if rerr == nil {
				rerr = os.WriteFile(filepath.Join(out, filepath.Base(f)), data, 0o644)
			}
			if rerr != nil {
				t.Logf("preserving flight capture %s: %v", f, rerr)
			}
		}
		t.Logf("flight capture preserved in %s", out)
	})
}

// captureRun invokes an in-process subcommand entry point with stdout
// redirected, returning what it printed and its exit code.
func captureRun(t *testing.T, f func() int) (string, int) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := f()
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

// writeTestCapture records a small known capture: counter 0 → 3 → 7,
// gauge 2.5 → 4.5, across four samples (start, two explicit, close). The
// series are registered before Start, as a real host would, so the
// summary's delta spans the whole window.
func writeTestCapture(t *testing.T, dir string) {
	t.Helper()
	m := fdx.NewMetrics()
	m.Counter(obs.MRowsAbsorbed)
	m.Gauge(obs.MServeSessions).Set(2.5)
	rec, err := flight.Start(flight.Options{Dir: dir, Interval: time.Hour, Metrics: m})
	if err != nil {
		t.Fatalf("flight.Start: %v", err)
	}
	m.Counter(obs.MRowsAbsorbed).Add(3)
	rec.SampleNow()
	m.Counter(obs.MRowsAbsorbed).Add(4)
	m.Gauge(obs.MServeSessions).Set(4.5)
	rec.SampleNow()
	if err := rec.Close(); err != nil {
		t.Fatalf("flight.Close: %v", err)
	}
}

// TestFlightDecodeJSON: `fdx flight decode` emits one JSON object per
// sample with the recorded series values.
func TestFlightDecodeJSON(t *testing.T) {
	dir := t.TempDir()
	writeTestCapture(t, dir)
	out, code := captureRun(t, func() int { return runFlight([]string{"decode", dir}) })
	if code != 0 {
		t.Fatalf("decode: exit %d\n%s", code, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // start sample + 2 × SampleNow + final on Close
		t.Fatalf("decode printed %d lines, want 4:\n%s", len(lines), out)
	}
	var sample struct {
		Time   time.Time              `json:"time"`
		Series map[string]json.Number `json:"series"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sample); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if got := sample.Series[obs.MRowsAbsorbed]; got != "7" {
		t.Errorf("final %s = %s, want 7", obs.MRowsAbsorbed, got)
	}
	if got := sample.Series[obs.MServeSessions]; got != "4.5" {
		t.Errorf("final %s = %s, want 4.5", obs.MServeSessions, got)
	}
	if _, ok := sample.Series["go_goroutines"]; !ok {
		t.Errorf("runtime series missing from decoded sample: %v", sample.Series)
	}
	if sample.Time.IsZero() {
		t.Error("sample time missing")
	}
}

// TestFlightDecodeCSV: the csv format has a time column plus one sorted
// column per series, empty cells for absent series.
func TestFlightDecodeCSV(t *testing.T) {
	dir := t.TempDir()
	writeTestCapture(t, dir)
	out, code := captureRun(t, func() int { return runFlight([]string{"decode", "-format", "csv", dir}) })
	if code != 0 {
		t.Fatalf("decode -format csv: exit %d\n%s", code, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + 4 samples
		t.Fatalf("csv has %d lines, want 5:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "time,") || !strings.Contains(lines[0], obs.MRowsAbsorbed) {
		t.Errorf("csv header missing columns: %s", lines[0])
	}
}

// TestFlightSummary: the postmortem view reports the capture window,
// counter deltas, and gauge ranges.
func TestFlightSummary(t *testing.T) {
	dir := t.TempDir()
	writeTestCapture(t, dir)
	out, code := captureRun(t, func() int { return runFlight([]string{"summary", dir}) })
	if code != 0 {
		t.Fatalf("summary: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "capture: 4 samples") {
		t.Errorf("summary window line wrong:\n%s", out)
	}
	if !strings.Contains(out, obs.MRowsAbsorbed) || !strings.Contains(out, "+7") {
		t.Errorf("summary missing counter delta:\n%s", out)
	}
	if !strings.Contains(out, obs.MServeSessions) || !strings.Contains(out, "2.5 / 4.5 / 4.5") {
		t.Errorf("summary missing gauge range:\n%s", out)
	}
}

// TestFlightTailBounded: tail -n prints the first N samples then exits 0
// without waiting for an interrupt.
func TestFlightTailBounded(t *testing.T) {
	dir := t.TempDir()
	writeTestCapture(t, dir)
	out, code := captureRun(t, func() int {
		return runFlight([]string{"tail", "-every", "10ms", "-n", "2", dir})
	})
	if code != 0 {
		t.Fatalf("tail: exit %d\n%s", code, out)
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 2 {
		t.Fatalf("tail -n 2 printed %d lines:\n%s", len(lines), out)
	}
}

// TestFlightDecodeCorruptExitsThree: structural damage inside a capture
// still prints the healthy prefix but exits with the corrupt-state code.
func TestFlightDecodeCorruptExitsThree(t *testing.T) {
	dir := t.TempDir()
	writeTestCapture(t, dir)
	files, err := flight.Files(dir)
	if err != nil || len(files) == 0 {
		t.Fatalf("capture files: %v (%d)", err, len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40 // flip a bit inside the final chunk's CRC-covered bytes
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := captureRun(t, func() int { return runFlight([]string{"decode", dir}) })
	if code != 3 {
		t.Fatalf("corrupt decode: exit %d, want 3\n%s", code, out)
	}
	if len(strings.TrimSpace(out)) == 0 {
		t.Error("corrupt decode printed nothing; want the healthy prefix")
	}
}

// TestFlightUsage: missing or unknown verbs exit 2.
func TestFlightUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"decode"}, {"summary"}} {
		if _, code := captureRun(t, func() int { return runFlight(args) }); code != 2 {
			t.Errorf("flight %v: exit %d, want 2", args, code)
		}
	}
}

// TestStreamFlightDirRecordsRun: `fdx stream -flight-dir` leaves a
// decodable capture whose final sample holds the stream's row counters.
func TestStreamFlightDirRecordsRun(t *testing.T) {
	dir := t.TempDir()
	fdir := filepath.Join(dir, "blackbox")
	preserveFlightCapture(t, fdir)
	ckpt := filepath.Join(dir, "state.fdx")
	out, code := runStreamInProcess(t, streamArgs(ckpt, "-flight-dir", fdir))
	if code != 0 {
		t.Fatalf("stream -flight-dir: exit %d\n%s", code, out)
	}
	samples, err := flight.DecodeDir(fdir)
	if err != nil {
		t.Fatalf("decoding capture: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("capture is empty")
	}
	last := samples[len(samples)-1]
	if rows, ok := last.Number(obs.MRowsAbsorbed); !ok || rows <= 0 {
		t.Errorf("final sample %s = %v (ok=%v), want > 0", obs.MRowsAbsorbed, rows, ok)
	}
}

// TestShippedStreamSharedTraceID is the cross-process tracing contract: a
// sharded `fdx stream -ship -trace` run against a live fdxd handler
// produces one Chrome-trace file in which the supervisor root, the shard
// workers, and the grafted fdxd server spans all carry the same trace id —
// and the remotely discovered dependencies match the local sequential
// run bit-for-bit.
func TestShippedStreamSharedTraceID(t *testing.T) {
	sv, err := serve.New(serve.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	out, code := runStreamInProcess(t, streamArgs(filepath.Join(dir, "state.fdx"),
		"-shards", "2", "-ship", ts.URL, "-session", "trace-test", "-trace", tracePath))
	if code != 0 {
		t.Fatalf("shipped stream: exit %d\n%s", code, out)
	}
	if got, want := fdLines(out), referenceFDs(t, 50); !equalStrings(got, want) {
		t.Errorf("remote discovery differs from sequential:\nremote: %v\nlocal:  %v", got, want)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	traceIDs := map[string]string{} // representative event name per role → trace id
	var rootID string
	for _, ev := range tf.TraceEvents {
		tid, _ := ev.Args["trace_id"].(string)
		switch {
		case ev.Name == "stream":
			rootID = tid
			traceIDs["supervisor"] = tid
		case ev.Name == "shard":
			traceIDs["worker"] = tid
		case strings.HasPrefix(ev.Name, "serve."):
			traceIDs["client"] = tid
		case strings.HasPrefix(ev.Name, "fdxd."):
			traceIDs["server"] = tid
			if remote, _ := ev.Args["remote"].(bool); !remote {
				t.Errorf("server span %q not marked remote", ev.Name)
			}
		}
	}
	if rootID == "" {
		t.Fatalf("no stream root span with a trace id in %d events", len(tf.TraceEvents))
	}
	for _, role := range []string{"supervisor", "worker", "client", "server"} {
		if got, ok := traceIDs[role]; !ok || got != rootID {
			t.Errorf("%s trace id = %q (present=%v), want %q", role, got, ok, rootID)
		}
	}
}
