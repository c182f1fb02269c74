package fdx_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fdx"
)

// fuzzSnapshotSeeds builds realistic seed inputs for FuzzLoadCheckpoint: a
// valid snapshot and WAL plus targeted mutations of each (version bump,
// flipped CRC, truncations).
func fuzzSnapshotSeeds(tb testing.TB) (snap, wal []byte) {
	tb.Helper()
	dir := tb.(*testing.F).TempDir()
	path := filepath.Join(dir, "seed.fdx")
	acc := fdx.NewAccumulator([]string{"zip", "city", "state"}, fdx.Options{Seed: 7})
	w, err := fdx.OpenWAL(path + fdx.WALSuffix)
	if err != nil {
		tb.Fatal(err)
	}
	defer w.Close()
	rng := rand.New(rand.NewSource(7))
	for b := 0; b < 2; b++ {
		rel := fdx.NewRelation("seed", "zip", "city", "state")
		for i := 0; i < 12; i++ {
			z := rng.Intn(4)
			if err := rel.AppendRow([]string{
				string(rune('a' + z)), string(rune('p' + z%3)), string(rune('x' + z%2)),
			}); err != nil {
				tb.Fatal(err)
			}
		}
		if err := acc.AddLogged(rel, w); err != nil {
			tb.Fatal(err)
		}
	}
	if err := acc.SaveCheckpoint(path); err != nil {
		tb.Fatal(err)
	}
	snap, err = os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	wal, err = os.ReadFile(path + fdx.WALSuffix)
	if err != nil {
		tb.Fatal(err)
	}
	return snap, wal
}

// readV1Golden returns a checkpoint file written by a version-1 build
// (internal/checkpoint/testdata/v1, whose tests pin how they were made).
func readV1Golden(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("internal", "checkpoint", "testdata", "v1", name))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzLoadCheckpoint feeds arbitrary bytes through the checkpoint restore
// path. The contract: LoadCheckpoint either returns a valid Accumulator or
// an error wrapping ErrCorruptCheckpoint, ErrCheckpointVersion, or
// ErrBadInput — never a panic, whatever the bytes. The mode byte routes
// the fuzz data into the snapshot file (with an absent or valid WAL) or
// into the WAL beside a valid snapshot, so both decoders get coverage.
// Run longer campaigns with:
//
//	go test -fuzz FuzzLoadCheckpoint -fuzztime 30s .
func FuzzLoadCheckpoint(f *testing.F) {
	validSnap, validWAL := fuzzSnapshotSeeds(f)

	f.Add(uint8(0), validSnap)
	f.Add(uint8(1), validSnap)
	f.Add(uint8(2), validWAL)
	versioned := append([]byte(nil), validSnap...)
	versioned[8] = 99
	f.Add(uint8(0), versioned)
	crcFlip := append([]byte(nil), validSnap...)
	crcFlip[len(crcFlip)-1] ^= 0x01
	f.Add(uint8(0), crcFlip)
	f.Add(uint8(0), validSnap[:16])
	f.Add(uint8(0), validSnap[:len(validSnap)/2])
	f.Add(uint8(2), validWAL[:len(validWAL)-3])
	f.Add(uint8(2), []byte{})
	f.Add(uint8(0), []byte("FDXCKPT1"))
	// Version-1 files from a version-1 build, which restore converts: a
	// snapshot of the same first two batches, and the WAL of four batches
	// in both record layouts.
	v1Snap := readV1Golden(f, "stream.fdx")
	f.Add(uint8(0), v1Snap)
	f.Add(uint8(1), v1Snap)
	f.Add(uint8(2), readV1Golden(f, "stream.fdx.wal"))
	f.Add(uint8(2), readV1Golden(f, "legacy.wal"))

	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "state.fdx")
		switch mode % 3 {
		case 0: // data is the snapshot, no WAL
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		case 1: // data is the snapshot, valid-but-unrelated WAL beside it
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path+fdx.WALSuffix, validWAL, 0o644); err != nil {
				t.Fatal(err)
			}
		case 2: // valid snapshot, data is the WAL
			if err := os.WriteFile(path, validSnap, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path+fdx.WALSuffix, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		acc, err := fdx.LoadCheckpoint(path, fdx.Options{Seed: 7})
		if err != nil {
			if !errors.Is(err, fdx.ErrCorruptCheckpoint) &&
				!errors.Is(err, fdx.ErrCheckpointVersion) &&
				!errors.Is(err, fdx.ErrBadInput) {
				t.Fatalf("error outside the taxonomy: %v", err)
			}
			return
		}
		if acc == nil {
			t.Fatal("nil accumulator with nil error")
		}
		// A restored accumulator must be usable: snapshotting it again and
		// restoring the copy has to round-trip without error.
		var buf bytes.Buffer
		if err := acc.Snapshot(&buf); err != nil {
			t.Fatalf("restored accumulator cannot snapshot: %v", err)
		}
		if _, err := fdx.RestoreAccumulator(&buf, fdx.Options{Seed: 7}); err != nil {
			t.Fatalf("re-restore failed: %v", err)
		}
	})
}
