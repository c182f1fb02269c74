package main

import (
	"bytes"
	"context"
	"net/http"
	"testing"
	"time"

	"fdx"
	"fdx/internal/serve"
	"fdx/internal/serve/retry"
)

// shardSnap builds a shard accumulator holding the given global batches of
// the rowsFor grid (the same grid mustIngest feeds batch-per-seq) and
// returns its snapshot bytes.
func shardSnap(t *testing.T, batches ...int) []byte {
	t.Helper()
	acc := fdx.NewAccumulator(attrs, fdx.Options{})
	for _, g := range batches {
		rel := fdx.NewRelation("wire", attrs...)
		for _, row := range rowsFor(30, g*30) {
			if err := rel.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := acc.AddAt(rel, g); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := acc.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServerShardShipKillDashNineResume is the built-binary crash test for
// the shard-shipping endpoint: ship half the batches, kill -9 the server
// mid-sequence, restart it over the same directory, retry the first ship
// (idempotent against the checkpointed merge), ship the rest, and require
// the merged B matrix bit-identical to a sequentially-ingested session.
func TestServerShardShipKillDashNineResume(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, dir)

	// Reference: the same four batches ingested sequentially.
	mustCreate(t, s, "ref")
	for seq := 1; seq <= 4; seq++ {
		mustIngest(t, s, "ref", seq)
	}
	wantB := rawDiscoverB(t, s, "ref")

	mustCreate(t, s, "merged")
	ctx := context.Background()
	client := &serve.ShardClient{BaseURL: s.base, Tenant: "acme",
		RequestTimeout: 10 * time.Second,
		Retry:          retry.Policy{Base: 50 * time.Millisecond, MaxAttempts: 6}}
	firstHalf, secondHalf := shardSnap(t, 0, 1), shardSnap(t, 2, 3)
	if applied, err := client.ShipShard(ctx, "merged", 1, firstHalf); err != nil || !applied {
		t.Fatalf("first ship: applied=%v err=%v", applied, err)
	}

	// SIGKILL between ships: no drain handler runs. The acked merge was
	// checkpointed synchronously, so it must survive.
	if err := s.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	s.wait(t, 10*time.Second)

	s2 := startServer(t, dir)
	defer func() { s2.cmd.Process.Kill(); s2.wait(t, 10*time.Second) }()
	client.BaseURL = s2.base
	// A client that never saw the ack retries its ship. The session dedups
	// by the batch coverage in its checkpoint, which survived the kill:
	// acknowledged again, not double-counted.
	if applied, err := client.ShipShard(ctx, "merged", 1, firstHalf); err != nil || applied {
		t.Fatalf("re-ship after restart: applied=%v err=%v, want idempotent no-op ack", applied, err)
	}
	if applied, err := client.ShipShard(ctx, "merged", 2, secondHalf); err != nil || !applied {
		t.Fatalf("second ship: applied=%v err=%v", applied, err)
	}

	status, body, _ := call(t, "GET", s2.base+"/v1/sessions/merged", "acme", nil)
	if status != http.StatusOK || body["batches"] != float64(4) {
		t.Fatalf("merged session after crash: status %d body %v, want 4 batches", status, body)
	}
	if gotB := rawDiscoverB(t, s2, "merged"); gotB != wantB {
		t.Error("shard-merged B after kill -9 differs from sequential ingest")
	}
	res, err := client.Discover(ctx, "merged")
	if err != nil || len(res.FDs) == 0 {
		t.Errorf("typed Discover through client: fds=%d err=%v", len(res.FDs), err)
	}
}
