package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"fdx/internal/core"
	"fdx/internal/dataset"
	"fdx/internal/faults"
	"fdx/internal/fdxerr"
)

// testAccumulator builds an accumulator with a few absorbed batches and
// returns it with the deltas it absorbed.
func testAccumulator(t *testing.T, batches int) (*core.Accumulator, []*core.BatchDelta) {
	t.Helper()
	opts := core.Options{Seed: 3}
	acc := core.NewAccumulator([]string{"zip", "city", "state"}, opts)
	rng := rand.New(rand.NewSource(17))
	var deltas []*core.BatchDelta
	for b := 0; b < batches; b++ {
		rel := dataset.New("batch", "zip", "city", "state")
		for i := 0; i < 40; i++ {
			c := rng.Intn(3)
			rel.AppendRow([]string{fmt.Sprint(50000 + c), []string{"madison", "austin", "provo"}[c], []string{"wi", "tx", "ut"}[c]})
		}
		d, err := acc.Absorb(rel)
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, d)
	}
	return acc, deltas
}

// assertStateEqual compares two accumulator states exactly. A nil
// coverage, as a snapshot without a ranges section reads back, stands for
// the sequential [0, batches).
func assertStateEqual(t *testing.T, got, want *core.AccumulatorState) {
	t.Helper()
	seq := func(st *core.AccumulatorState) core.AccumulatorState {
		c := *st
		if c.Ranges == nil && c.Batches > 0 {
			c.Ranges = []core.BatchRange{{Lo: 0, Hi: c.Batches}}
		}
		return c
	}
	if !reflect.DeepEqual(seq(got), seq(want)) {
		t.Fatalf("state %+v, want %+v", got, want)
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	acc, _ := testAccumulator(t, 3)
	fp := Fingerprint(acc.Options())
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, acc.State(), fp); err != nil {
		t.Fatal(err)
	}
	st, gotFP, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != fp {
		t.Errorf("fingerprint %016x, want %016x", gotFP, fp)
	}
	assertStateEqual(t, st, acc.State())
}

func TestSnapshotEveryTruncationFailsTyped(t *testing.T) {
	acc, _ := testAccumulator(t, 2)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, acc.State(), 1); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		_, _, err := ReadSnapshot(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(data))
		}
		if !errors.Is(err, fdxerr.ErrCorruptCheckpoint) && !errors.Is(err, fdxerr.ErrCheckpointVersion) {
			t.Fatalf("truncation at %d: error outside taxonomy: %v", cut, err)
		}
	}
}

// TestSnapshotTruncatedMaxClaimAllocatesLittle: a file whose counts
// section claims the format's maximum length but holds only a few bytes of
// it fails as corrupt, and the read allocates in proportion to the bytes
// present, not to the claim.
func TestSnapshotTruncatedMaxClaimAllocatesLittle(t *testing.T) {
	acc, _ := testAccumulator(t, 1)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, acc.State(), 1); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()[:16]...)
	data = binary.LittleEndian.AppendUint32(data, secCounts)
	data = binary.LittleEndian.AppendUint64(data, maxSectionLen)
	data = append(data, make([]byte, 4096)...)
	path := filepath.Join(t.TempDir(), "claim.fdx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Load(path)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, fdxerr.ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > maxSectionLen/64 {
		t.Errorf("reading a truncated %d-byte claim allocated %d bytes", maxSectionLen, got)
	}
}

// TestLoadMaxAttrsAllocatesOnce loads a snapshot at the format's largest
// attribute count, whose counts section is 128 MiB, and requires the load
// to allocate at most 2.2× that section: the payload, read into one exact
// allocation because the file's size bounds every claim, and the decoded
// counts. A doubling read buffer allocated about 3×.
func TestLoadMaxAttrsAllocatesOnce(t *testing.T) {
	k := maxAttrs
	st := &core.AccumulatorState{Names: make([]string, k), Rows: 2, Batches: 1, Pairs: 2, Sums: make([]uint64, k*k), Co: make([]uint64, k*(k+1)/2)}
	path := filepath.Join(t.TempDir(), "max.fdx")
	if _, err := Save(path, st, 3); err != nil {
		t.Fatal(err)
	}
	st = nil
	section := uint64(8 + countsLen(k))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	back, fp, err := Load(path)
	runtime.ReadMemStats(&after)
	if err != nil || fp != 3 || len(back.Sums) != k*k {
		t.Fatalf("Load: fingerprint %d, err %v", fp, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 2.2*float64(section) {
		t.Errorf("Load at k=%d allocated %d bytes, %.2f× its %d-byte counts section, want ≤ 2.2×", k, got, float64(got)/float64(section), section)
	}
}

func TestSnapshotEveryByteFlipFailsTypedOrRoundtrips(t *testing.T) {
	acc, _ := testAccumulator(t, 2)
	want := acc.State()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, want, 7); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for pos := 0; pos < len(clean); pos++ {
		data := append([]byte(nil), clean...)
		data[pos] ^= 0x10
		st, fp, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, fdxerr.ErrCorruptCheckpoint) && !errors.Is(err, fdxerr.ErrCheckpointVersion) {
				t.Fatalf("flip at %d: error outside taxonomy: %v", pos, err)
			}
			continue
		}
		// CRC32C cannot miss a single-bit flip inside a covered frame; an
		// accepted read can only mean the flip landed somewhere harmless,
		// which this format has none of.
		t.Fatalf("flip at %d accepted (fp %x, rows %d)", pos, fp, st.Rows)
	}
}

func TestSnapshotVersionMismatch(t *testing.T) {
	acc, _ := testAccumulator(t, 1)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, acc.State(), 1); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[8] = 99 // version field
	_, _, err := ReadSnapshot(bytes.NewReader(data))
	if !errors.Is(err, fdxerr.ErrCheckpointVersion) {
		t.Fatalf("want ErrCheckpointVersion, got %v", err)
	}
}

func TestSnapshotUnknownSectionSkipped(t *testing.T) {
	// A newer minor revision may add sections; this reader must skip them,
	// wherever they fall.
	acc, _ := testAccumulator(t, 2)
	want := acc.State()
	var buf bytes.Buffer
	var prologue enc
	prologue.buf = append(prologue.buf, magic...)
	prologue.u32(version)
	prologue.u32(0)
	buf.Write(prologue.buf)
	var meta enc
	meta.u64(11)
	meta.u64(uint64(want.Rows))
	meta.u64(uint64(want.Batches))
	meta.u32(uint32(len(want.Names)))
	for _, n := range want.Names {
		meta.str(n)
	}
	var counts enc
	counts.u64(want.Pairs)
	counts.counts(want.Sums, want.Co)
	writeSection(&buf, 0xBEEF, []byte("future payload")) // unknown, skippable
	writeSection(&buf, secMeta, meta.buf)
	writeSection(&buf, 0xBEF0, nil)
	writeSection(&buf, secCounts, counts.buf)
	writeSection(&buf, secEnd, nil)

	st, fp, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fp != 11 {
		t.Errorf("fingerprint %d, want 11", fp)
	}
	assertStateEqual(t, st, want)
}

func TestSaveLoadDurableRoundtrip(t *testing.T) {
	acc, _ := testAccumulator(t, 3)
	path := filepath.Join(t.TempDir(), "state.fdx")
	fp := Fingerprint(acc.Options())
	if _, err := Save(path, acc.State(), fp); err != nil {
		t.Fatal(err)
	}
	st, gotFP, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != fp {
		t.Errorf("fingerprint mismatch")
	}
	assertStateEqual(t, st, acc.State())
	// Overwrite with newer state: previous bytes must be fully replaced.
	acc2, _ := testAccumulator(t, 5)
	if _, err := Save(path, acc2.State(), fp); err != nil {
		t.Fatal(err)
	}
	st2, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertStateEqual(t, st2, acc2.State())
	// No temp litter left behind.
	matches, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp-*"))
	if len(matches) != 0 {
		t.Errorf("temp files left behind: %v", matches)
	}
}

func TestLoadMissingFileMatchesNotExist(t *testing.T) {
	_, _, err := Load(filepath.Join(t.TempDir(), "nope.fdx"))
	if !errors.Is(err, os.ErrNotExist) || !errors.Is(err, fdxerr.ErrBadInput) {
		t.Fatalf("want fs.ErrNotExist wrapped in ErrBadInput, got %v", err)
	}
}

func TestWALAppendReplay(t *testing.T) {
	acc, deltas := testAccumulator(t, 4)
	path := filepath.Join(t.TempDir(), "state.fdx.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		if _, err := w.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := core.NewAccumulator(acc.State().Names, acc.Options())
	n, _, err := ReplayWAL(path, replayed.ApplyDelta)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(deltas) {
		t.Fatalf("replayed %d records, want %d", n, len(deltas))
	}
	assertStateEqual(t, replayed.State(), acc.State())
}

func TestWALTornTailTruncatedAtEveryCut(t *testing.T) {
	_, deltas := testAccumulator(t, 3)
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.wal")
	w, err := OpenWAL(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		if _, err := w.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	clean, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	recordLen := len(clean) / len(deltas)
	for cut := 0; cut <= len(clean); cut++ {
		path := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(path, clean[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []*core.BatchDelta
		n, torn, err := ReplayWAL(path, func(d *core.BatchDelta) error {
			got = append(got, d)
			return nil
		})
		if err != nil {
			t.Fatalf("cut at %d: replay failed: %v", cut, err)
		}
		if want := cut / recordLen; n != want {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, n, want)
		}
		if want := cut%recordLen != 0; torn != want {
			t.Fatalf("cut at %d: torn=%v, want %v", cut, torn, want)
		}
		for i, d := range got {
			if d.Seq != deltas[i].Seq || d.Rows != deltas[i].Rows {
				t.Fatalf("cut at %d: record %d mismatch", cut, i)
			}
		}
		// The torn tail must be physically truncated so appends continue
		// after the last good record.
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(n * recordLen); info.Size() != want {
			t.Fatalf("cut at %d: file is %d bytes after replay, want %d", cut, info.Size(), want)
		}
	}
}

func TestWALMidLogCorruptionIsTyped(t *testing.T) {
	_, deltas := testAccumulator(t, 3)
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.wal")
	w, err := OpenWAL(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		if _, err := w.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	clean, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the FIRST record: valid records follow, so this is
	// corruption, not a torn tail.
	data := append([]byte(nil), clean...)
	data[10] ^= 0x01
	path := filepath.Join(dir, "bad.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReplayWAL(path, func(*core.BatchDelta) error { return nil })
	if !errors.Is(err, fdxerr.ErrCorruptCheckpoint) {
		t.Fatalf("want ErrCorruptCheckpoint, got %v", err)
	}
}

func TestWALResetEmptiesLog(t *testing.T) {
	_, deltas := testAccumulator(t, 2)
	path := filepath.Join(t.TempDir(), "w.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(deltas[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(deltas[1]); err != nil {
		t.Fatal(err)
	}
	n, _, err := ReplayWAL(path, func(d *core.BatchDelta) error {
		if d.Seq != deltas[1].Seq {
			return fmt.Errorf("unexpected seq %d", d.Seq)
		}
		return nil
	})
	if err != nil || n != 1 {
		t.Fatalf("replay after reset: n=%d err=%v", n, err)
	}
}

func TestFingerprintSeparatesOptions(t *testing.T) {
	base := core.Options{Seed: 1}
	same := Fingerprint(base)
	if Fingerprint(core.Options{Seed: 1}) != same {
		t.Error("fingerprint not deterministic")
	}
	for name, o := range map[string]core.Options{
		"seed":    {Seed: 2},
		"maxrows": {Seed: 1, Transform: core.TransformOptions{MaxRows: 100}},
		"numtol":  {Seed: 1, Transform: core.TransformOptions{NumericTol: 0.1}},
		"textsim": {Seed: 1, Transform: core.TransformOptions{TextSimilarity: true}},
	} {
		if Fingerprint(o) == same {
			t.Errorf("%s change does not alter the fingerprint", name)
		}
	}
	// Discovery-time options must NOT change the fingerprint: a resumed
	// stream may pick a different lambda or ordering.
	if Fingerprint(core.Options{Seed: 1, Lambda: 0.01, Ordering: "amd", Threshold: 0.3}) != same {
		t.Error("discovery-time options leak into the fingerprint")
	}
}

// --- fault injection -------------------------------------------------------

func TestFaultShortWriteSaveFailsTypedAndKeepsOld(t *testing.T) {
	defer faults.Reset()
	acc, _ := testAccumulator(t, 2)
	path := filepath.Join(t.TempDir(), "state.fdx")
	if _, err := Save(path, acc.State(), 1); err != nil {
		t.Fatal(err)
	}
	old, _ := os.ReadFile(path)
	faults.Arm(faults.ShortWrite, faults.Config{Times: 1})
	acc2, _ := testAccumulator(t, 4)
	_, err := Save(path, acc2.State(), 1)
	if !errors.Is(err, fdxerr.ErrCorruptCheckpoint) {
		t.Fatalf("want ErrCorruptCheckpoint, got %v", err)
	}
	now, _ := os.ReadFile(path)
	if !bytes.Equal(old, now) {
		t.Error("failed save altered the previous checkpoint")
	}
	matches, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp-*"))
	if len(matches) != 0 {
		t.Errorf("temp files left behind: %v", matches)
	}
}

func TestFaultFsyncErrorSaveFailsTyped(t *testing.T) {
	defer faults.Reset()
	acc, _ := testAccumulator(t, 2)
	path := filepath.Join(t.TempDir(), "state.fdx")
	faults.Arm(faults.FsyncError, faults.Config{Times: 1})
	if _, err := Save(path, acc.State(), 1); !errors.Is(err, fdxerr.ErrCorruptCheckpoint) {
		t.Fatalf("want ErrCorruptCheckpoint, got %v", err)
	}
}

func TestFaultRenameFailSaveFailsTypedAndCleansTemp(t *testing.T) {
	defer faults.Reset()
	acc, _ := testAccumulator(t, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "state.fdx")
	faults.Arm(faults.RenameFail, faults.Config{Times: 1})
	if _, err := Save(path, acc.State(), 1); !errors.Is(err, fdxerr.ErrCorruptCheckpoint) {
		t.Fatalf("want ErrCorruptCheckpoint, got %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("snapshot appeared despite failed rename")
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if len(matches) != 0 {
		t.Errorf("temp files left behind: %v", matches)
	}
}

func TestFaultReadBitFlipLoadFailsTyped(t *testing.T) {
	defer faults.Reset()
	acc, _ := testAccumulator(t, 2)
	path := filepath.Join(t.TempDir(), "state.fdx")
	if _, err := Save(path, acc.State(), 1); err != nil {
		t.Fatal(err)
	}
	faults.Arm(faults.ReadBitFlip, faults.Config{Times: 1})
	if _, _, err := Load(path); !errors.Is(err, fdxerr.ErrCorruptCheckpoint) {
		t.Fatalf("want ErrCorruptCheckpoint, got %v", err)
	}
	// Disarmed again, the same file loads fine: the flip was on read.
	if _, _, err := Load(path); err != nil {
		t.Fatalf("clean reload failed: %v", err)
	}
}

func TestFaultShortWriteWALAppendFailsTyped(t *testing.T) {
	defer faults.Reset()
	_, deltas := testAccumulator(t, 2)
	path := filepath.Join(t.TempDir(), "w.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(deltas[0]); err != nil {
		t.Fatal(err)
	}
	faults.Arm(faults.ShortWrite, faults.Config{Times: 1})
	if _, err := w.Append(deltas[1]); !errors.Is(err, fdxerr.ErrCorruptCheckpoint) {
		t.Fatalf("want ErrCorruptCheckpoint, got %v", err)
	}
	// The torn second record must not poison the first on replay, and the
	// truncation must be reported.
	n, torn, err := ReplayWAL(path, func(*core.BatchDelta) error { return nil })
	if err != nil || n != 1 || !torn {
		t.Fatalf("replay after torn append: n=%d torn=%v err=%v", n, torn, err)
	}
}

func TestFaultReadBitFlipWALReplayFailsTypedOrTruncates(t *testing.T) {
	defer faults.Reset()
	_, deltas := testAccumulator(t, 2)
	path := filepath.Join(t.TempDir(), "w.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		if _, err := w.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	faults.Arm(faults.ReadBitFlip, faults.Config{Times: 1})
	n, _, err := ReplayWAL(path, func(*core.BatchDelta) error { return nil })
	// The flip lands in the first read chunk: either the damaged record is
	// detected as mid-log corruption (typed error) or, if it hit the final
	// record's bytes, the tail is dropped. Never a silent full replay.
	if err != nil {
		if !errors.Is(err, fdxerr.ErrCorruptCheckpoint) {
			t.Fatalf("error outside taxonomy: %v", err)
		}
	} else if n == len(deltas) {
		t.Fatalf("bit flip went unnoticed: all %d records replayed", n)
	}
}
