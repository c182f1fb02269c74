package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"fdx/internal/core"
	"fdx/internal/dataset"
	"fdx/internal/fdxerr"
	"fdx/internal/linalg"
)

// stateV1 is the version-1 accumulator state: per-stratum counts, column
// sums and outer products, held as integer-valued float64.
type stateV1 struct {
	names         []string
	rows, batches int
	count         []int
	sums          [][]float64
	outer         []*linalg.Dense
	ranges        []core.BatchRange
}

// deltaV1 is the version-1 batch delta.
type deltaV1 struct {
	seq, global, rows int
	sums              [][]float64
	outer             []*linalg.Dense
}

// writeSnapshotV1 is the version-1 snapshot encoder, kept as the writer of
// the upgrade tests' inputs.
func writeSnapshotV1(w io.Writer, st *stateV1, fingerprint uint64) error {
	var prologue enc
	prologue.buf = append(prologue.buf, magic...)
	prologue.u32(version1)
	prologue.u32(0)
	if _, err := w.Write(prologue.buf); err != nil {
		return err
	}
	var meta enc
	meta.u64(fingerprint)
	meta.u64(uint64(st.rows))
	meta.u64(uint64(st.batches))
	meta.u32(uint32(len(st.names)))
	for _, n := range st.names {
		meta.str(n)
	}
	var counts, sums, outer enc
	for _, c := range st.count {
		counts.u64(uint64(c))
	}
	for _, stratum := range st.sums {
		for _, v := range stratum {
			sums.u64(math.Float64bits(v))
		}
	}
	for _, m := range st.outer {
		for _, v := range m.Data() {
			outer.u64(math.Float64bits(v))
		}
	}
	for _, sec := range []struct {
		id      uint32
		payload []byte
	}{{secMeta, meta.buf}, {secCountsV1, counts.buf}, {secSumsV1, sums.buf}, {secOuterV1, outer.buf}} {
		if err := writeSection(w, sec.id, sec.payload); err != nil {
			return err
		}
	}
	if !sequentialRanges(st.ranges, st.batches) {
		var ranges enc
		ranges.u32(uint32(len(st.ranges)))
		for _, r := range st.ranges {
			ranges.u64(uint64(r.Lo))
			ranges.u64(uint64(r.Hi))
		}
		if err := writeSection(w, secRanges, ranges.buf); err != nil {
			return err
		}
	}
	return writeSection(w, secEnd, nil)
}

// encodeDeltaV1 is the version-1 WAL record encoder: the framed record of
// seq, rows, k, the global index (omitted in the legacy layout, which
// predates sharding), the sums and the outer products.
func encodeDeltaV1(d *deltaV1, legacy bool) []byte {
	var e enc
	e.u64(uint64(d.seq))
	e.u64(uint64(d.rows))
	e.u32(uint32(len(d.sums)))
	if !legacy {
		e.u64(uint64(d.global))
	}
	for _, stratum := range d.sums {
		for _, v := range stratum {
			e.u64(math.Float64bits(v))
		}
	}
	for _, m := range d.outer {
		for _, v := range m.Data() {
			e.u64(math.Float64bits(v))
		}
	}
	return frameV1(e.buf)
}

// frameV1 frames a WAL payload: length, payload, CRC.
func frameV1(payload []byte) []byte {
	var f enc
	f.u32(uint32(len(payload)))
	f.buf = append(f.buf, payload...)
	f.u32(frameCRC(f.buf[:4], payload))
	return f.buf
}

// absorbV1 transforms a batch through the float sample path under the
// seed Absorb uses and returns its version-1 delta: per-stratum column
// sums and outer products accumulated in float64.
func absorbV1(t *testing.T, rel *dataset.Relation, opts core.Options, seq, global int) *deltaV1 {
	t.Helper()
	topts := opts.Transform
	topts.Seed = opts.Seed + int64(global)
	dt, err := core.TransformContext(context.Background(), rel, topts)
	if err != nil {
		t.Fatal(err)
	}
	k := rel.NumCols()
	sn := dt.Rows() / k
	d := &deltaV1{seq: seq, global: global, rows: rel.NumRows(), sums: make([][]float64, k), outer: make([]*linalg.Dense, k)}
	for s := 0; s < k; s++ {
		d.sums[s] = make([]float64, k)
		d.outer[s] = linalg.NewDense(k, k)
		for i := s * sn; i < (s+1)*sn; i++ {
			row := dt.Row(i)
			for p := range row {
				d.sums[s][p] += row[p]
				for q := range row {
					d.outer[s].Add(p, q, row[p]*row[q])
				}
			}
		}
	}
	return d
}

// applyV1 folds the next sequential version-1 delta into a version-1
// state, as the version-1 accumulator did.
func applyV1(st *stateV1, d *deltaV1, pairs int) {
	for s := range st.names {
		st.count[s] += pairs
		linalg.Axpy(1, d.sums[s], st.sums[s])
		linalg.Axpy(1, d.outer[s].Data(), st.outer[s].Data())
	}
	st.rows += d.rows
	st.batches++
	st.ranges = []core.BatchRange{{Lo: 0, Hi: st.batches}}
}

func newStateV1(names []string) *stateV1 {
	k := len(names)
	st := &stateV1{names: names, count: make([]int, k), sums: make([][]float64, k), outer: make([]*linalg.Dense, k)}
	for s := range names {
		st.sums[s] = make([]float64, k)
		st.outer[s] = linalg.NewDense(k, k)
	}
	return st
}

// goldenBatches regenerates the batches of testdata/v1: four 12-row
// batches of a zip → city → state relation.
func goldenBatches() []*dataset.Relation {
	rng := rand.New(rand.NewSource(7))
	var out []*dataset.Relation
	for b := 0; b < 4; b++ {
		rel := dataset.New("seed", "zip", "city", "state")
		for i := 0; i < 12; i++ {
			z := rng.Intn(4)
			rel.AppendRow([]string{string(rune('a' + z)), string(rune('p' + z%3)), string(rune('x' + z%2))})
		}
		out = append(out, rel)
	}
	return out
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "v1", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestV1WriterReproducesGolden checks the version-1 writer above against
// files a version-1 build wrote: a snapshot after two batches, the WAL of
// all four batches, and the same WAL in the legacy record layout.
func TestV1WriterReproducesGolden(t *testing.T) {
	opts := core.Options{Seed: 7}
	st := newStateV1([]string{"zip", "city", "state"})
	var wal, legacy []byte
	for g, rel := range goldenBatches() {
		d := absorbV1(t, rel, opts, g+1, g)
		applyV1(st, d, rel.NumRows())
		wal = append(wal, encodeDeltaV1(d, false)...)
		legacy = append(legacy, encodeDeltaV1(d, true)...)
		if g == 1 {
			var snap bytes.Buffer
			if err := writeSnapshotV1(&snap, st, Fingerprint(opts)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap.Bytes(), readGolden(t, "stream.fdx")) {
				t.Error("version-1 snapshot differs from testdata/v1/stream.fdx")
			}
		}
	}
	if !bytes.Equal(wal, readGolden(t, "stream.fdx.wal")) {
		t.Error("version-1 WAL differs from testdata/v1/stream.fdx.wal")
	}
	if !bytes.Equal(legacy, readGolden(t, "legacy.wal")) {
		t.Error("legacy WAL differs from testdata/v1/legacy.wal")
	}
}

// TestV1RestoresToSameState restores the version-1 golden snapshot and
// replays both version-1 WAL layouts over it; the result must equal the
// state this build absorbs from the same four batches, exactly.
func TestV1RestoresToSameState(t *testing.T) {
	opts := core.Options{Seed: 7}
	want := core.NewAccumulator([]string{"zip", "city", "state"}, opts)
	for _, rel := range goldenBatches() {
		if _, err := want.Absorb(rel); err != nil {
			t.Fatal(err)
		}
	}
	// A zero-attribute state has empty, but present, version-1 sections.
	var empty bytes.Buffer
	if err := writeSnapshotV1(&empty, newStateV1(nil), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshot(&empty); err != nil {
		t.Fatalf("zero-attribute version-1 snapshot: %v", err)
	}
	for _, walName := range []string{"stream.fdx.wal", "legacy.wal"} {
		st, fp, err := ReadSnapshot(bytes.NewReader(readGolden(t, "stream.fdx")))
		if err != nil {
			t.Fatal(err)
		}
		if fp != Fingerprint(opts) {
			t.Fatalf("fingerprint %016x, want %016x", fp, Fingerprint(opts))
		}
		acc, err := core.NewAccumulatorFromState(st, opts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "w.wal")
		if err := os.WriteFile(path, readGolden(t, walName), 0o644); err != nil {
			t.Fatal(err)
		}
		n, torn, err := ReplayWAL(path, func(d *core.BatchDelta) error {
			if d.Seq <= acc.Batches() {
				return nil
			}
			return acc.ApplyDelta(d)
		})
		if err != nil || n != 4 || torn {
			t.Fatalf("%s: replayed %d, torn %v, err %v", walName, n, torn, err)
		}
		if got := acc.State(); !reflect.DeepEqual(got, want.State()) {
			t.Fatalf("%s: restored state %+v, want %+v", walName, got, want.State())
		}
	}
}

// TestV1ConversionRejectsNonCounts corrupts version-1 statistics in ways a
// CRC cannot see — a fraction, a negative, a value past the count, an
// asymmetric outer product, unequal stratum counts — and requires
// ErrCorruptCheckpoint from both the snapshot and the WAL reader.
func TestV1ConversionRejectsNonCounts(t *testing.T) {
	opts := core.Options{Seed: 7}
	rel := goldenBatches()[0]
	for name, mutate := range map[string]func(st *stateV1, d *deltaV1){
		"fraction":   func(st *stateV1, d *deltaV1) { st.sums[1][2] += 0.5; d.sums[1][2] += 0.5 },
		"negative":   func(st *stateV1, d *deltaV1) { st.sums[0][0] = -1; d.sums[0][0] = -1 },
		"past count": func(st *stateV1, d *deltaV1) { st.outer[2].Set(1, 1, 13); d.outer[2].Set(1, 1, 13) },
		"NaN":        func(st *stateV1, d *deltaV1) { st.outer[0].Set(0, 2, math.NaN()); d.outer[0].Set(0, 2, math.NaN()) },
		"asymmetric": func(st *stateV1, d *deltaV1) { st.outer[1].Add(2, 0, 1); d.outer[1].Add(2, 0, 1) },
		"counts":     func(st *stateV1, d *deltaV1) { st.count[2]-- },
	} {
		d := absorbV1(t, rel, opts, 1, 0)
		st := newStateV1([]string{"zip", "city", "state"})
		applyV1(st, d, rel.NumRows())
		mutate(st, d)
		var snap bytes.Buffer
		if err := writeSnapshotV1(&snap, st, Fingerprint(opts)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadSnapshot(&snap); !errors.Is(err, fdxerr.ErrCorruptCheckpoint) {
			t.Errorf("%s: snapshot err = %v, want ErrCorruptCheckpoint", name, err)
		}
		if name == "counts" {
			continue // a WAL record carries no per-stratum counts
		}
		path := filepath.Join(t.TempDir(), "w.wal")
		rec := encodeDeltaV1(d, false)
		if err := os.WriteFile(path, append(rec, rec...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReplayWAL(path, func(*core.BatchDelta) error { return nil }); !errors.Is(err, fdxerr.ErrCorruptCheckpoint) {
			t.Errorf("%s: wal err = %v, want ErrCorruptCheckpoint", name, err)
		}
	}
}

// TestWALTellsVersionsApartAtEveryK decodes one delta written as a
// version-2 record and in both version-1 layouts, for k = 0..4. The
// record's leading walTag, not its length, tells the versions apart.
func TestWALTellsVersionsApartAtEveryK(t *testing.T) {
	for k := 0; k <= 4; k++ {
		v1 := &deltaV1{seq: 3, global: 5, rows: 99, sums: make([][]float64, k), outer: make([]*linalg.Dense, k)}
		want := &core.BatchDelta{Seq: 3, Global: 5, Rows: 99, Sums: make([]uint64, k*k), Co: make([]uint64, k*(k+1)/2)}
		for s := 0; s < k; s++ {
			v1.sums[s] = make([]float64, k)
			v1.outer[s] = linalg.NewDense(k, k)
			for p := 0; p < k; p++ {
				v1.sums[s][p] = float64(s + p)
				want.Sums[s*k+p] = uint64(s + p)
				for q := 0; q < k; q++ {
					v1.outer[s].Set(p, q, float64(s+p*q))
				}
			}
		}
		for p, i := 0, 0; p < k; p++ {
			for q := p; q < k; q, i = q+1, i+1 {
				for s := 0; s < k; s++ {
					want.Co[i] += uint64(s + p*q)
				}
			}
		}
		v2, err := encodeDelta(want)
		if err != nil {
			t.Fatal(err)
		}
		// A version-2 payload always carries its global index.
		noGlobal := append(append([]byte(nil), v2[4:4+28]...), v2[4+36:len(v2)-4]...)
		if _, err := decodeDelta(noGlobal); !errors.Is(err, fdxerr.ErrCorruptCheckpoint) {
			t.Fatalf("k=%d: version-2 payload without its global index: err = %v, want ErrCorruptCheckpoint", k, err)
		}
		legacyWant := *want
		legacyWant.Global = want.Seq - 1
		for _, c := range []struct {
			what  string
			frame []byte
			want  *core.BatchDelta
		}{{"v2", v2, want}, {"v1", encodeDeltaV1(v1, false), want}, {"v1 legacy", encodeDeltaV1(v1, true), &legacyWant}} {
			got, err := decodeDelta(c.frame[4 : len(c.frame)-4])
			if err != nil {
				t.Fatalf("k=%d %s: %v", k, c.what, err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("k=%d %s: decoded %+v, want %+v", k, c.what, got, c.want)
			}
		}
	}
}

// TestFormatLimitRoundTrips writes the largest attribute count the format
// accepts through both the WAL and the snapshot and reads it back, and
// checks that one attribute more is refused with ErrBadInput by both
// writers before anything reaches the file. The largest payloads are
// 128 MiB, so the test collects between steps to keep its peak memory
// near two payloads.
func TestFormatLimitRoundTrips(t *testing.T) {
	k := maxAttrs
	if walHeaderLen+countsLen(k) > maxSectionLen || walHeaderLen+countsLen(k+1) <= maxSectionLen {
		t.Fatalf("maxAttrs %d is not the largest k whose WAL record fits %d bytes", k, maxSectionLen)
	}
	dir := t.TempDir()
	for _, k := range []int{k + 1, k} {
		d := &core.BatchDelta{Seq: 1, Rows: 2, Sums: make([]uint64, k*k), Co: make([]uint64, k*(k+1)/2)}
		d.Sums[k*k-1], d.Co[len(d.Co)-1] = 1, 1
		walPath := filepath.Join(dir, "w.wal")
		w, err := OpenWAL(walPath)
		if err != nil {
			t.Fatal(err)
		}
		_, err = w.Append(d)
		w.Close()
		runtime.GC()
		st := &core.AccumulatorState{Names: make([]string, k), Rows: 2, Batches: 1, Pairs: 2, Sums: d.Sums, Co: d.Co}
		snapPath := filepath.Join(dir, "s.fdx")
		if k > maxAttrs {
			if info, _ := os.Stat(walPath); !errors.Is(err, fdxerr.ErrBadInput) || info.Size() != 0 {
				t.Fatalf("k=%d: Append err = %v after %d bytes, want ErrBadInput before any", k, err, info.Size())
			}
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, st, 9); !errors.Is(err, fdxerr.ErrBadInput) || buf.Len() != 0 {
				t.Fatalf("k=%d: WriteSnapshot err = %v after %d bytes, want ErrBadInput before any", k, err, buf.Len())
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		var got *core.BatchDelta
		n, torn, err := ReplayWAL(walPath, func(r *core.BatchDelta) error { got = r; return nil })
		if err != nil || n != 1 || torn || !reflect.DeepEqual(got, d) {
			t.Fatalf("k=%d: replayed %d, torn %v, err %v, equal %v", k, n, torn, err, reflect.DeepEqual(got, d))
		}
		got = nil
		runtime.GC()
		if _, err := Save(snapPath, st, 9); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		back, fp, err := Load(snapPath)
		if err != nil || fp != 9 || !reflect.DeepEqual(back.Sums, st.Sums) || !reflect.DeepEqual(back.Co, st.Co) {
			t.Fatalf("k=%d: snapshot round trip: fp %d, err %v", k, fp, err)
		}
	}
}
