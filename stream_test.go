package fdx_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"fdx"
	"fdx/internal/checkpoint"
	"fdx/internal/core"
)

func TestAccumulatorStreamedDiscovery(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	acc := fdx.NewAccumulator([]string{"zip", "city", "state"}, fdx.Options{Seed: 9})
	cities := []string{"chicago", "madison", "milwaukee", "duluth"}
	states := []string{"il", "wi", "wi", "mn"}
	for batch := 0; batch < 4; batch++ {
		rel := fdx.NewRelation("batch", "zip", "city", "state")
		for i := 0; i < 300; i++ {
			c := rng.Intn(len(cities))
			rel.AppendRow([]string{fmt.Sprintf("%d", 60000+c*7+rng.Intn(3)), cities[c], states[c]})
		}
		if err := acc.Add(rel); err != nil {
			t.Fatal(err)
		}
	}
	if acc.Rows() != 1200 || acc.Batches() != 4 {
		t.Errorf("rows=%d batches=%d", acc.Rows(), acc.Batches())
	}
	res, err := acc.Discover()
	if err != nil {
		t.Fatal(err)
	}
	foundCity := false
	for _, fd := range res.FDs {
		if fd.RHS == "city" || fd.RHS == "state" {
			foundCity = true
		}
	}
	if !foundCity {
		t.Errorf("streamed FDs missing: %v", res.FDs)
	}
	if res.ModelDuration <= 0 {
		t.Error("model duration not recorded")
	}
}

func TestAccumulatorRejectsBadBatch(t *testing.T) {
	acc := fdx.NewAccumulator([]string{"a", "b"}, fdx.Options{})
	bad := fdx.NewRelation("t", "x", "y")
	bad.AppendRow([]string{"1", "2"})
	bad.AppendRow([]string{"1", "2"})
	if err := acc.Add(bad); err == nil {
		t.Error("schema mismatch accepted")
	}
	if _, err := acc.Discover(); err == nil {
		t.Error("empty accumulator discover should error")
	}
}

// TestLoadCheckpointCountsTornTail: a WAL whose last record was torn
// mid-append restores fine (the torn batch is dropped by design), but the
// truncation must be visible on the fdx_wal_torn_tail_total metric rather
// than silent.
func TestLoadCheckpointCountsTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	opts := fdx.Options{Seed: 3}
	dir := t.TempDir()
	ckpt := dir + "/state.fdx"

	rel := noisyAddressRelation(rng, 240, 0.02)
	acc := fdx.NewAccumulator(rel.AttrNames(), opts)
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
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the second record: drop the final 5 bytes of the log.
	info, err := os.Stat(ckpt + fdx.WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(ckpt+fdx.WALSuffix, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	opts.Metrics = fdx.NewMetrics()
	restored, err := fdx.LoadCheckpoint(ckpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Batches() != 1 {
		t.Errorf("restored %d batches, want 1 (torn second batch dropped)", restored.Batches())
	}
	if got := opts.Metrics.Counter("fdx_wal_torn_tail_total").Value(); got != 1 {
		t.Errorf("fdx_wal_torn_tail_total = %d, want 1", got)
	}

	// An intact log must not count a torn tail.
	opts2 := fdx.Options{Seed: 3, Metrics: fdx.NewMetrics()}
	if err := os.Truncate(ckpt+fdx.WALSuffix, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fdx.LoadCheckpoint(ckpt, opts2); err != nil {
		t.Fatal(err)
	}
	if got := opts2.Metrics.Counter("fdx_wal_torn_tail_total").Value(); got != 0 {
		t.Errorf("intact wal counted torn tail: %d", got)
	}
}

// TestLoadCheckpointRejectsImpossibleWALRecordTyped: a WAL record that
// passes its checksum but cannot follow the snapshot (here a column sum of
// 9 over 4 pairs) is corrupt state, so LoadCheckpoint must fail with
// ErrCorruptCheckpoint, as the same counts in a snapshot do, and not with
// ErrBadInput.
func TestLoadCheckpointRejectsImpossibleWALRecordTyped(t *testing.T) {
	opts := fdx.Options{Seed: 5}
	ckpt := t.TempDir() + "/state.fdx"
	if err := fdx.NewAccumulator([]string{"a", "b"}, opts).SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	wal, err := checkpoint.OpenWAL(ckpt + fdx.WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	d := &core.BatchDelta{Seq: 1, Global: 0, Rows: 4, Sums: []uint64{9, 0, 0, 0}, Co: make([]uint64, 3)}
	if _, err := wal.Append(d); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = fdx.LoadCheckpoint(ckpt, opts)
	if !errors.Is(err, fdx.ErrCorruptCheckpoint) || errors.Is(err, fdx.ErrBadInput) {
		t.Fatalf("LoadCheckpoint = %v, want ErrCorruptCheckpoint only", err)
	}
}
