package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fdx"
	"fdx/internal/serve/limit"
)

// discoverB runs a discover and returns the exact B matrix from the wire
// (JSON float64 round-trips shortest-repr exactly, so equality here is
// bit-identity).
func discoverB(t *testing.T, sv *Server, id, tenant string) [][]float64 {
	t.Helper()
	rec, body := do(t, sv, "POST", "/v1/sessions/"+id+"/discover", tenant, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("discover: status %d body %v", rec.Code, body)
	}
	return wireB(body)
}

// wireB decodes the B matrix of a discover reply body.
func wireB(body map[string]any) [][]float64 {
	raw := body["b"].([]any)
	b := make([][]float64, len(raw))
	for i, row := range raw {
		cells := row.([]any)
		b[i] = make([]float64, len(cells))
		for j, c := range cells {
			b[i][j] = c.(float64)
		}
	}
	return b
}

// TestCrashServeRestartBitIdentical: feed a session, abandon the server
// without drain (the crash), build a fresh server over the same data dir,
// and require the restored session to (a) resume at the same stream
// position and (b) produce a bit-identical B matrix — both against the
// pre-crash server and against an uninterrupted in-process accumulator fed
// the same batches.
func TestCrashServeRestartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	// CheckpointEvery 2 leaves a WAL tail record after 5 batches, so the
	// restart exercises snapshot + replay, not just snapshot.
	mk := func() *Server {
		sv, err := New(Config{DataDir: dir, CheckpointEvery: 2, RequestTimeout: 30 * time.Second})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return sv
	}
	svA := mk()
	createSession(t, svA, "s1", "acme")
	const batches, rowsPer = 5, 40
	for i := 0; i < batches; i++ {
		ingest(t, svA, "s1", "acme", i+1, rowsPer, i*rowsPer)
	}
	wantB := discoverB(t, svA, "s1", "acme")

	// The crash: no Drain, no checkpoint flush. AddLogged fsynced every
	// batch, so the WAL holds everything the client was acknowledged for.
	svB := mk()
	rec, body := do(t, svB, "GET", "/v1/sessions/s1", "acme", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("get after restart: status %d body %v", rec.Code, body)
	}
	if body["rows"] != float64(batches*rowsPer) || body["batches"] != float64(batches) {
		t.Fatalf("restored position: %v, want %d rows / %d batches", body, batches*rowsPer, batches)
	}
	gotB := discoverB(t, svB, "s1", "acme")
	if !reflect.DeepEqual(gotB, wantB) {
		t.Errorf("B after crash+restart differs from pre-crash B")
	}

	// Uninterrupted baseline: same batches through a local accumulator.
	acc := fdx.NewAccumulator(testAttrs, fdx.Options{})
	for i := 0; i < batches; i++ {
		rel := fdx.NewRelation("base", testAttrs...)
		for _, row := range genRows(rowsPer, i*rowsPer) {
			if err := rel.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := acc.Add(rel); err != nil {
			t.Fatal(err)
		}
	}
	res, err := acc.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotB, res.B) {
		t.Errorf("B after crash+restart differs from the uninterrupted baseline")
	}

	// The restarted stream keeps going: the next seq is accepted and the
	// idempotent-duplicate rule still holds.
	body = ingest(t, svB, "s1", "acme", batches+1, rowsPer, batches*rowsPer)
	if body["applied"] != true {
		t.Fatalf("post-restart ingest: %v", body)
	}
	body = ingest(t, svB, "s1", "acme", batches+1, rowsPer, batches*rowsPer)
	if body["applied"] != false {
		t.Fatalf("post-restart duplicate: %v", body)
	}
}

// TestCrashServeRestartManifestWithWorkers: a manifest whose options
// still carry "workers" (the session options once had a worker count)
// restores through New, which skips the unknown key, and the stream
// resumes bit-identically to an uninterrupted accumulator fed the same
// batches.
func TestCrashServeRestartManifestWithWorkers(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Server {
		sv, err := New(Config{DataDir: dir, CheckpointEvery: 2, RequestTimeout: 30 * time.Second})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return sv
	}
	svA := mk()
	rec, body := do(t, svA, "POST", "/v1/sessions", "acme",
		createRequest{ID: "s1", Attributes: testAttrs, Options: SessionOptions{Seed: 3}})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d body %v", rec.Code, body)
	}
	const batches, rowsPer = 5, 40
	for i := 0; i < 3; i++ {
		ingest(t, svA, "s1", "acme", i+1, rowsPer, i*rowsPer)
	}

	path := filepath.Join(dir, "s1"+checkpointSuffix+manifestSuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["options"].(map[string]any)["workers"] = 4
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	svB := mk()
	for i := 3; i < batches; i++ {
		ingest(t, svB, "s1", "acme", i+1, rowsPer, i*rowsPer)
	}
	gotB := discoverB(t, svB, "s1", "acme")

	acc := fdx.NewAccumulator(testAttrs, fdx.Options{Seed: 3})
	for i := 0; i < batches; i++ {
		rel := fdx.NewRelation("base", testAttrs...)
		for _, row := range genRows(rowsPer, i*rowsPer) {
			if err := rel.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := acc.Add(rel); err != nil {
			t.Fatal(err)
		}
	}
	res, err := acc.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotB, res.B) {
		t.Errorf("B after restoring a manifest with workers differs from the uninterrupted baseline")
	}
}

// TestCrashServeRestartQuotaReseed: restored sessions count against their
// tenant's session quota after a restart.
func TestCrashServeRestartQuotaReseed(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Server {
		sv, err := New(Config{DataDir: dir, Quotas: limit.Quotas{MaxSessions: 1}})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return sv
	}
	svA := mk()
	createSession(t, svA, "s1", "acme")
	svB := mk()
	rec, body := do(t, svB, "POST", "/v1/sessions", "acme", createRequest{ID: "s2", Attributes: testAttrs})
	if rec.Code != http.StatusTooManyRequests || errCode(t, body) != CodeQuotaExceeded {
		t.Fatalf("create over restored quota: status %d body %v", rec.Code, body)
	}
}

// TestServeBootsV1DataDir boots a server over a data dir whose session
// checkpoint and WAL a version-1 build wrote (internal/checkpoint/testdata/v1:
// a snapshot after two batches, the WAL of four). The session must come
// back at batch 4 with the B the library restores from the same files, and
// a second boot over the re-checkpointed dir must give that B again.
func TestServeBootsV1DataDir(t *testing.T) {
	dir, libDir := t.TempDir(), t.TempDir()
	for src, dst := range map[string]string{"stream.fdx": "s1.fdx", "stream.fdx.wal": "s1.fdx.wal"} {
		raw, err := os.ReadFile(filepath.Join("..", "checkpoint", "testdata", "v1", src))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []string{dir, libDir} {
			if err := os.WriteFile(filepath.Join(d, dst), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := manifest{ID: "s1", Tenant: "acme", Attributes: []string{"zip", "city", "state"}, Options: SessionOptions{Seed: 7}}
	if err := writeManifest(filepath.Join(dir, "s1.fdx.json"), m); err != nil {
		t.Fatal(err)
	}
	lib, err := fdx.LoadCheckpoint(filepath.Join(libDir, "s1.fdx"), fdx.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := lib.Discover()
	if err != nil {
		t.Fatal(err)
	}
	for boot := 0; boot < 2; boot++ {
		sv, err := New(Config{DataDir: dir, RequestTimeout: 30 * time.Second})
		if err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		rec, body := do(t, sv, "GET", "/v1/sessions/s1", "acme", nil)
		if rec.Code != http.StatusOK || body["batches"] != float64(4) || body["rows"] != float64(48) {
			t.Fatalf("boot %d: status %d, session %v, want 4 batches of 48 rows", boot, rec.Code, body)
		}
		if got := discoverB(t, sv, "s1", "acme"); !reflect.DeepEqual(got, res.B) {
			t.Fatalf("boot %d: B %v, library restore gives %v", boot, got, res.B)
		}
	}
}

// TestServeDiscoverCountsMatchB races ingest against discover on one
// session: every discover reply's rows/batches must describe the state its
// B was computed from, so B equals an in-process accumulator fed exactly
// that many batches. Counts read from the live session after the clone
// can run ahead of B; this only shows when an ingest lands between the
// two reads.
func TestServeDiscoverCountsMatchB(t *testing.T) {
	sv := newServer(t, nil)
	createSession(t, sv, "s1", "acme")
	const total, rowsPer = 24, 40

	// wantB[n] is the B of the first n batches.
	wantB := make([][][]float64, total+1)
	acc := fdx.NewAccumulator(testAttrs, fdx.Options{})
	for n := 1; n <= total; n++ {
		rel, err := batchRelation(testAttrs, genRows(rowsPer, (n-1)*rowsPer))
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Add(rel); err != nil {
			t.Fatal(err)
		}
		res, err := acc.Discover()
		if err != nil {
			t.Fatal(err)
		}
		wantB[n] = res.B
	}

	ingest(t, sv, "s1", "acme", 1, rowsPer, 0)
	done := make(chan struct{})
	defer func() { <-done }() // a failed check must not outlive the ingest
	go func() {
		defer close(done)
		for seq := 2; seq <= total; seq++ {
			// Marshalling a struct of ints and strings cannot fail.
			raw, _ := json.Marshal(rowsRequest{Seq: seq, Rows: genRows(rowsPer, (seq-1)*rowsPer)})
			req := httptest.NewRequest("POST", "/v1/sessions/s1/rows", bytes.NewReader(raw))
			req.Header.Set("X-Fdx-Tenant", "acme")
			rec := httptest.NewRecorder()
			sv.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("ingest seq %d: status %d", seq, rec.Code)
				return
			}
		}
	}()
	for {
		rec, body := do(t, sv, "POST", "/v1/sessions/s1/discover", "acme", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("discover: status %d body %v", rec.Code, body)
		}
		batches := int(body["batches"].(float64))
		if batches < 1 || batches > total || body["rows"] != float64(batches*rowsPer) {
			t.Fatalf("discover reply counts rows=%v batches=%v", body["rows"], body["batches"])
		}
		if !reflect.DeepEqual(wireB(body), wantB[batches]) {
			t.Fatalf("discover reply says %d batches but its B is not the %d-batch B", batches, batches)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}
