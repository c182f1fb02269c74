package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fdx"
	"fdx/internal/faults"
	"fdx/internal/fdxerr"
	"fdx/internal/obs"
	"fdx/internal/serve/retry"
)

// The shard-shipping API tests: idempotent seq handling, the mismatch and
// corruption taxonomy (bad shards never poison the session), bit-identity
// between a shard-merged session and a sequentially-ingested one, and the
// ShardClient's retry behaviour against a flaky server.

const shardRows = 30 // rows per batch on the shared test grid

// shardSnapshot builds an accumulator holding the given global batches of
// the shared genRows grid and returns its snapshot bytes (the shard wire
// format).
func shardSnapshot(t *testing.T, opts fdx.Options, attrs []string, batches ...int) []byte {
	t.Helper()
	acc := fdx.NewAccumulator(attrs, opts)
	for _, g := range batches {
		rel, err := batchRelation(attrs, genRows(shardRows, g*shardRows))
		if err != nil {
			t.Fatalf("building batch %d: %v", g, err)
		}
		if err := acc.AddAt(rel, g); err != nil {
			t.Fatalf("AddAt(%d): %v", g, err)
		}
	}
	var buf bytes.Buffer
	if err := acc.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.Bytes()
}

// ship POSTs raw snapshot bytes to the shards endpoint.
func ship(t *testing.T, sv *Server, id, tenant string, seq int, snap []byte) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("POST", fmt.Sprintf("/v1/sessions/%s/shards?seq=%d", id, seq),
		bytes.NewReader(snap))
	req.Header.Set("Content-Type", "application/octet-stream")
	if tenant != "" {
		req.Header.Set("X-Fdx-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, req)
	var decoded map[string]any
	if raw := rec.Body.Bytes(); len(raw) > 0 {
		json.Unmarshal(raw, &decoded)
	}
	return rec, decoded
}

func mustShip(t *testing.T, sv *Server, id, tenant string, seq int, snap []byte) (applied bool) {
	t.Helper()
	rec, body := ship(t, sv, id, tenant, seq, snap)
	if rec.Code != http.StatusOK {
		t.Fatalf("ship seq %d: status %d, body %v", seq, rec.Code, body)
	}
	a, _ := body["applied"].(bool)
	return a
}

// discoverB (crash_test.go) returns the exact B matrix from the wire;
// reflect.DeepEqual over it is bit-identity.

// TestShardShipMatchesSequentialIngest is the service-side equivalence
// check: four batches shipped as two shard snapshots produce a B matrix
// bit-identical to the same four batches ingested sequentially.
func TestShardShipMatchesSequentialIngest(t *testing.T) {
	sv := newServer(t, nil)
	createSession(t, sv, "seq", "acme")
	for k := 1; k <= 4; k++ {
		ingest(t, sv, "seq", "acme", k, shardRows, (k-1)*shardRows)
	}
	want := discoverB(t, sv, "seq", "acme")

	createSession(t, sv, "sharded", "acme")
	// Ship out of order: the second half first. Order must not matter.
	if !mustShip(t, sv, "sharded", "acme", 2, shardSnapshot(t, fdx.Options{}, testAttrs, 2, 3)) {
		t.Fatal("shard 2 not applied")
	}
	if !mustShip(t, sv, "sharded", "acme", 1, shardSnapshot(t, fdx.Options{}, testAttrs, 0, 1)) {
		t.Fatal("shard 1 not applied")
	}
	if got := discoverB(t, sv, "sharded", "acme"); !reflect.DeepEqual(got, want) {
		t.Error("shard-merged B differs from sequential ingest")
	}
}

// TestShardShipIdempotent pins both dedup layers: a repeated seq is
// acknowledged without re-applying, and a fresh seq whose coverage the
// session already holds merges as a no-op.
func TestShardShipIdempotent(t *testing.T) {
	sv := newServer(t, nil)
	createSession(t, sv, "s", "acme")
	snap := shardSnapshot(t, fdx.Options{}, testAttrs, 0, 1)
	if !mustShip(t, sv, "s", "acme", 1, snap) {
		t.Fatal("first ship not applied")
	}
	if mustShip(t, sv, "s", "acme", 1, snap) {
		t.Error("retried seq re-applied")
	}
	// Same coverage under a new seq: the accumulator's coverage intervals
	// are the durable dedup (this is the post-restart retry path).
	if mustShip(t, sv, "s", "acme", 2, snap) {
		t.Error("duplicate coverage applied under a fresh seq")
	}
	rec, body := do(t, sv, "GET", "/v1/sessions/s", "acme", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("get: %d", rec.Code)
	}
	if b, _ := body["batches"].(float64); int(b) != 2 {
		t.Errorf("batches = %v, want 2 (duplicates must not double-count)", body["batches"])
	}
}

// TestShardShipCorruptSnapshot sends garbage and torn snapshots: the
// response is typed corrupt_checkpoint and the session's state is
// untouched — discovery before and after returns the identical matrix.
func TestShardShipCorruptSnapshot(t *testing.T) {
	sv := newServer(t, nil)
	createSession(t, sv, "s", "acme")
	good := shardSnapshot(t, fdx.Options{}, testAttrs, 0)
	mustShip(t, sv, "s", "acme", 1, good)
	want := discoverB(t, sv, "s", "acme")

	for name, bad := range map[string][]byte{
		"garbage": []byte("definitely not a snapshot"),
		"torn":    shardSnapshot(t, fdx.Options{}, testAttrs, 1)[:37],
		"empty":   nil,
	} {
		rec, body := ship(t, sv, "s", "acme", 2, bad)
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("%s snapshot: status %d, want 500", name, rec.Code)
			continue
		}
		if code := errCode(t, body); code != CodeCorruptCheckpoint {
			t.Errorf("%s snapshot: code %s, want %s", name, code, CodeCorruptCheckpoint)
		}
	}
	if got := discoverB(t, sv, "s", "acme"); !reflect.DeepEqual(got, want) {
		t.Error("corrupt ships changed the session's state")
	}
	// The failed seq was never acknowledged; a valid retry under it lands.
	if !mustShip(t, sv, "s", "acme", 2, shardSnapshot(t, fdx.Options{}, testAttrs, 1)) {
		t.Error("valid ship after corrupt attempts not applied")
	}
}

// TestShardShipMismatch covers the 409 shard_mismatch taxonomy: a shard
// built under different options, a different schema, or coverage that
// partially overlaps the session's.
func TestShardShipMismatch(t *testing.T) {
	sv := newServer(t, nil)
	createSession(t, sv, "s", "acme")
	mustShip(t, sv, "s", "acme", 1, shardSnapshot(t, fdx.Options{}, testAttrs, 0, 1))

	// A shard over a narrower schema, built by hand (genRows is 3-wide).
	narrow := fdx.NewAccumulator([]string{"a", "b"}, fdx.Options{})
	rel := fdx.NewRelation("wire", "a", "b")
	for _, row := range genRows(shardRows, 2*shardRows) {
		if err := rel.AppendRow(row[:2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := narrow.AddAt(rel, 2); err != nil {
		t.Fatal(err)
	}
	var narrowSnap bytes.Buffer
	if err := narrow.Snapshot(&narrowSnap); err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"options":         shardSnapshot(t, fdx.Options{Seed: 99}, testAttrs, 2),
		"schema":          narrowSnap.Bytes(),
		"partial overlap": shardSnapshot(t, fdx.Options{}, testAttrs, 1, 2),
	}
	for name, snap := range cases {
		rec, body := ship(t, sv, "s", "acme", 7, snap)
		if rec.Code != http.StatusConflict {
			t.Errorf("%s mismatch: status %d, want 409 (body %v)", name, rec.Code, body)
			continue
		}
		if code := errCode(t, body); code != CodeShardMismatch {
			t.Errorf("%s mismatch: code %s, want %s", name, code, CodeShardMismatch)
		}
	}
	// None of the rejects may have consumed the seq or state.
	if !mustShip(t, sv, "s", "acme", 7, shardSnapshot(t, fdx.Options{}, testAttrs, 2)) {
		t.Error("valid ship after mismatches not applied")
	}
}

// TestShardShipBadRequests covers the 400/404 edges of the endpoint.
func TestShardShipBadRequests(t *testing.T) {
	sv := newServer(t, nil)
	createSession(t, sv, "s", "acme")
	snap := shardSnapshot(t, fdx.Options{}, testAttrs, 0)

	if rec, body := ship(t, sv, "s", "acme", 0, snap); rec.Code != 400 || errCode(t, body) != CodeBadInput {
		t.Errorf("seq 0: status %d code %v, want 400 bad_input", rec.Code, body)
	}
	req := httptest.NewRequest("POST", "/v1/sessions/s/shards", bytes.NewReader(snap))
	req.Header.Set("X-Fdx-Tenant", "acme")
	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, req)
	if rec.Code != 400 {
		t.Errorf("missing seq: status %d, want 400", rec.Code)
	}
	if rec, _ := ship(t, sv, "nope", "acme", 1, snap); rec.Code != 404 {
		t.Errorf("unknown session: status %d, want 404", rec.Code)
	}
	if rec, _ := ship(t, sv, "s", "rival", 1, snap); rec.Code != 404 {
		t.Errorf("cross-tenant ship: status %d, want 404 (no existence leak)", rec.Code)
	}
}

// TestShardShipMetrics asserts the shard counters and gauge reach
// /metrics with tenant labels.
func TestShardShipMetrics(t *testing.T) {
	sv := newServer(t, nil)
	createSession(t, sv, "s", "acme")
	snap := shardSnapshot(t, fdx.Options{}, testAttrs, 0, 1)
	mustShip(t, sv, "s", "acme", 1, snap)
	mustShip(t, sv, "s", "acme", 1, snap) // duplicate

	rec, _ := do(t, sv, "GET", "/metrics", "", nil)
	text := rec.Body.String()
	for _, want := range []string{
		obs.MServeShardsMerged + `{tenant="acme"} 1`,
		obs.MServeShardDuplicates + `{tenant="acme"} 1`,
		obs.MServeShardBatches + `{tenant="acme"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// flakyHandler wraps a handler, failing the first n matching requests
// with a 503 draining envelope that names a Retry-After.
type flakyHandler struct {
	inner     http.Handler
	remaining atomic.Int64
	seen      atomic.Int64
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.seen.Add(1)
	if f.remaining.Add(-1) >= 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]wireError{"error": {
			Code: CodeDraining, Message: "induced flake", RetryAfterMS: 5}})
		return
	}
	f.inner.ServeHTTP(w, r)
}

// TestShardClientRetriesFlakyServer drives the full client path against a
// server that sheds the first two requests: the client must back off per
// the server's Retry-After, count its retries, and land the ship.
func TestShardClientRetriesFlakyServer(t *testing.T) {
	sv := newServer(t, nil)
	flaky := &flakyHandler{inner: sv.Handler()}
	flaky.remaining.Store(2)
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	reg := fdx.NewMetrics()
	c := &ShardClient{BaseURL: ts.URL, Tenant: "acme", Metrics: reg,
		Retry: retry.Policy{Base: time.Millisecond, MaxAttempts: 5}}
	ctx := context.Background()
	if err := c.CreateSession(ctx, "s", testAttrs, SessionOptions{}); err != nil {
		t.Fatalf("CreateSession through flakes: %v", err)
	}
	applied, err := c.ShipShard(ctx, "s", 1, shardSnapshot(t, fdx.Options{}, testAttrs, 0, 1))
	if err != nil || !applied {
		t.Fatalf("ShipShard: applied=%v err=%v", applied, err)
	}
	res, err := c.Discover(ctx, "s")
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if res.Batches != 2 || len(res.Attributes) != 3 {
		t.Errorf("discover reply batches=%d attrs=%v", res.Batches, res.Attributes)
	}
	var retries uint64
	reg.WritePrometheus(&strings.Builder{}) // ensure registry is materialized
	fmt.Sscanf(metricLine(reg, obs.MShardShipRetries), "%d", &retries)
	if retries != 2 {
		t.Errorf("ship retry counter = %d, want 2", retries)
	}
}

// metricLine extracts a metric's value text from the registry dump.
func metricLine(reg *fdx.Metrics, name string) string {
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	return ""
}

// TestShardClientPermanentErrorsDontRetry ships a mismatched shard: the
// client must fail once, typed, without burning retries.
func TestShardClientPermanentErrorsDontRetry(t *testing.T) {
	sv := newServer(t, nil)
	flaky := &flakyHandler{inner: sv.Handler()} // zero flakes; counts requests
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	c := &ShardClient{BaseURL: ts.URL, Tenant: "acme",
		Retry: retry.Policy{Base: time.Millisecond, MaxAttempts: 5}}
	ctx := context.Background()
	if err := c.CreateSession(ctx, "s", testAttrs, SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ShipShard(ctx, "s", 1, shardSnapshot(t, fdx.Options{}, testAttrs, 0)); err != nil {
		t.Fatal(err)
	}
	before := flaky.seen.Load()
	_, err := c.ShipShard(ctx, "s", 2, shardSnapshot(t, fdx.Options{Seed: 9}, testAttrs, 1))
	if !errors.Is(err, fdxerr.ErrShardMismatch) {
		t.Errorf("mismatched ship error = %v, want ErrShardMismatch across the wire", err)
	}
	var rerr *RemoteError
	if !errors.As(err, &rerr) || rerr.Status != http.StatusConflict || rerr.Code != CodeShardMismatch {
		t.Errorf("error %v does not carry the wire envelope", err)
	}
	if got := flaky.seen.Load() - before; got != 1 {
		t.Errorf("mismatch burned %d requests, want 1 (no retry of a permanent failure)", got)
	}
	if _, err := c.ShipShard(ctx, "nope", 1, shardSnapshot(t, fdx.Options{}, testAttrs, 1)); err == nil {
		t.Error("ship to unknown session succeeded")
	}
}

// TestShardClientShipTimeoutFault arms the ShipTimeout fault: the first
// attempt burns its deadline before the request leaves, the retry lands.
func TestShardClientShipTimeoutFault(t *testing.T) {
	defer faults.Reset()
	sv := newServer(t, nil)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	c := &ShardClient{BaseURL: ts.URL, Tenant: "acme", RequestTimeout: 20 * time.Millisecond,
		Retry: retry.Policy{Base: time.Millisecond, MaxAttempts: 3}}
	ctx := context.Background()
	if err := c.CreateSession(ctx, "s", testAttrs, SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	faults.Arm(faults.ShipTimeout, faults.Config{Times: 1, Delay: 100 * time.Millisecond})
	applied, err := c.ShipShard(ctx, "s", 1, shardSnapshot(t, fdx.Options{}, testAttrs, 0))
	if err != nil || !applied {
		t.Fatalf("ship through a timed-out attempt: applied=%v err=%v", applied, err)
	}
}
