package checkpoint

import (
	"encoding/binary"
	"io"

	"fdx/internal/core"
	"fdx/internal/fdxerr"
)

// WriteSnapshot encodes the accumulator state to w in the version-2
// snapshot format. fingerprint identifies the options the state was
// accumulated under; restore refuses a snapshot whose fingerprint differs
// from the caller's options. A state ReadSnapshot could not read back is
// refused with ErrBadInput before anything is written.
func WriteSnapshot(w io.Writer, st *core.AccumulatorState, fingerprint uint64) error {
	if st == nil {
		return fdxerr.BadInput("checkpoint: nil accumulator state")
	}
	k := len(st.Names)
	if k > maxAttrs {
		return fdxerr.BadInput("checkpoint: %d attributes exceed the format limit %d", k, maxAttrs)
	}
	if !inRange(st.Rows) || !inRange(st.Batches) || len(st.Ranges) > st.Batches {
		return fdxerr.BadInput("checkpoint: state has rows %d, batches %d, %d ranges", st.Rows, st.Batches, len(st.Ranges))
	}
	if len(st.Sums) != k*k || len(st.Co) != k*(k+1)/2 {
		return fdxerr.BadInput("checkpoint: state has %d sums and %d co-occurrence counts for %d attributes", len(st.Sums), len(st.Co), k)
	}
	var meta enc
	meta.u64(fingerprint)
	meta.u64(uint64(st.Rows))
	meta.u64(uint64(st.Batches))
	meta.u32(uint32(k))
	for _, n := range st.Names {
		meta.str(n)
	}
	// The coverage section is written only when it differs from the
	// sequential default [0, batches).
	var ranges enc
	if !sequentialRanges(st.Ranges, st.Batches) {
		ranges.u32(uint32(len(st.Ranges)))
		for _, r := range st.Ranges {
			ranges.u64(uint64(r.Lo))
			ranges.u64(uint64(r.Hi))
		}
	}
	// The counts section fits: k ≤ maxAttrs.
	if len(meta.buf) > maxSectionLen || len(ranges.buf) > maxSectionLen {
		return fdxerr.BadInput("checkpoint: meta (%d bytes) or ranges (%d bytes) section exceeds the format limit %d", len(meta.buf), len(ranges.buf), maxSectionLen)
	}
	counts := enc{buf: make([]byte, 0, 8+countsLen(k))}
	counts.u64(st.Pairs)
	counts.counts(st.Sums, st.Co)

	var prologue enc
	prologue.buf = append(prologue.buf, magic...)
	prologue.u32(version)
	prologue.u32(0) // reserved flags
	if err := writeFull(w, prologue.buf); err != nil {
		return err
	}
	if err := writeSection(w, secMeta, meta.buf); err != nil {
		return err
	}
	if err := writeSection(w, secCounts, counts.buf); err != nil {
		return err
	}
	if ranges.buf != nil {
		if err := writeSection(w, secRanges, ranges.buf); err != nil {
			return err
		}
	}
	return writeSection(w, secEnd, nil)
}

// sequentialRanges reports whether the coverage is the sequential default
// a rangeless snapshot restores to: empty at zero batches, or the single
// interval [0, batches).
func sequentialRanges(rs []core.BatchRange, batches int) bool {
	if len(rs) == 0 {
		return batches == 0
	}
	return len(rs) == 1 && rs[0].Lo == 0 && rs[0].Hi == batches
}

// ReadSnapshot decodes a snapshot from r, returning the accumulator state
// and the options fingerprint it was written under. A version-1 snapshot
// is converted (fromV1). Failures wrap ErrCorruptCheckpoint (bad magic,
// CRC mismatch, inconsistent dimensions) or ErrCheckpointVersion (intact
// bytes from an incompatible version). When r tells how many bytes it
// holds (a Len method, as *bytes.Buffer and *bytes.Reader have), each
// section is read into one exact allocation and a claim past the end
// fails before any.
func ReadSnapshot(r io.Reader) (*core.AccumulatorState, uint64, error) {
	left := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		left = int64(l.Len())
	}
	return readSnapshot(r, left)
}

// readSnapshot is ReadSnapshot on an input holding left bytes, or of
// unknown length when left is negative.
func readSnapshot(r io.Reader, left int64) (*core.AccumulatorState, uint64, error) {
	fr := flipReader{r}
	prologue := make([]byte, 16)
	if _, err := io.ReadFull(fr, prologue); err != nil {
		return nil, 0, fdxerr.Corrupt("checkpoint: truncated prologue (%v)", err)
	}
	if string(prologue[:8]) != magic {
		return nil, 0, fdxerr.Corrupt("checkpoint: bad magic %q", prologue[:8])
	}
	ver := binary.LittleEndian.Uint32(prologue[8:])
	if ver != version && ver != version1 {
		return nil, 0, fdxerr.Version("checkpoint: format version %d, this build reads %d and %d", ver, version1, version)
	}
	if flags := binary.LittleEndian.Uint32(prologue[12:]); flags != 0 {
		// Reserved for future revisions; a flag this build does not know
		// could change the meaning of everything that follows.
		return nil, 0, fdxerr.Version("checkpoint: unknown format flags %#x", flags)
	}

	// Unknown sections from a newer minor revision are checksummed by
	// readSection and then ignored.
	sections := map[uint32][]byte{}
	if left >= 0 {
		left -= int64(len(prologue))
	}
	for {
		id, payload, err := readSection(fr, left)
		if err != nil {
			return nil, 0, err
		}
		if left >= 0 {
			left -= int64(len(payload)) + frameLen
		}
		if id == secEnd {
			if len(payload) != 0 {
				return nil, 0, fdxerr.Corrupt("checkpoint: end section carries %d bytes", len(payload))
			}
			break
		}
		if _, dup := sections[id]; dup {
			return nil, 0, fdxerr.Corrupt("checkpoint: duplicate section %d", id)
		}
		sections[id] = payload
	}
	meta, ok := sections[secMeta]
	if !ok {
		return nil, 0, fdxerr.Corrupt("checkpoint: missing meta section")
	}
	st, fingerprint, err := decodeMeta(meta)
	if err != nil {
		return nil, 0, err
	}
	if ranges, ok := sections[secRanges]; ok {
		if err := decodeRanges(st, ranges); err != nil {
			return nil, 0, err
		}
	}
	if ver == version1 {
		err = decodeV1(st, sections)
	} else {
		err = decodeCounts(st, sections)
	}
	if err != nil {
		return nil, 0, err
	}
	return st, fingerprint, nil
}

// decodeMeta parses the meta section and allocates the state skeleton the
// remaining sections fill in.
func decodeMeta(payload []byte) (*core.AccumulatorState, uint64, error) {
	d := dec{payload}
	fingerprint, ok1 := d.u64()
	rows, ok2 := d.u64()
	batches, ok3 := d.u64()
	k, ok4 := d.u32()
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return nil, 0, fdxerr.Corrupt("checkpoint: meta section too short")
	}
	if int(k) > maxAttrs {
		return nil, 0, fdxerr.Corrupt("checkpoint: meta claims %d attributes (max %d)", k, maxAttrs)
	}
	if rows > 1<<62 || batches > 1<<62 {
		return nil, 0, fdxerr.Corrupt("checkpoint: meta counters out of range")
	}
	st := &core.AccumulatorState{
		Names:   make([]string, k),
		Rows:    int(rows),
		Batches: int(batches),
	}
	for i := range st.Names {
		name, ok := d.str()
		if !ok {
			return nil, 0, fdxerr.Corrupt("checkpoint: meta section truncated at attribute %d", i)
		}
		st.Names[i] = name
	}
	if len(d.buf) != 0 {
		return nil, 0, fdxerr.Corrupt("checkpoint: meta section has %d trailing bytes", len(d.buf))
	}
	return st, fingerprint, nil
}

// decodeCounts parses the version-2 counts section.
func decodeCounts(st *core.AccumulatorState, sections map[uint32][]byte) error {
	k := len(st.Names)
	payload, ok := sections[secCounts]
	if !ok {
		return fdxerr.Corrupt("checkpoint: missing counts section")
	}
	if want := 8 + countsLen(k); len(payload) != want {
		return fdxerr.Corrupt("checkpoint: counts section is %d bytes, want %d", len(payload), want)
	}
	d := dec{payload}
	st.Pairs, _ = d.u64()
	st.Sums, st.Co = d.counts(k)
	return nil
}

// decodeV1 converts a version-1 snapshot's float sections. Every stratum
// must hold the same count, which becomes the pair count.
func decodeV1(st *core.AccumulatorState, sections map[uint32][]byte) error {
	k := len(st.Names)
	counts, ok1 := sections[secCountsV1]
	sums, ok2 := sections[secSumsV1]
	outer, ok3 := sections[secOuterV1]
	if !ok1 || !ok2 || !ok3 {
		return fdxerr.Corrupt("checkpoint: missing version-1 state sections")
	}
	if len(counts) != 8*k || len(sums) != 8*k*k || len(outer) != 8*k*k*k {
		return fdxerr.Corrupt("checkpoint: version-1 sections are %d/%d/%d bytes, want %d/%d/%d", len(counts), len(sums), len(outer), 8*k, 8*k*k, 8*k*k*k)
	}
	d := dec{counts}
	for s := 0; s < k; s++ {
		c, _ := d.u64()
		if s > 0 && c != st.Pairs {
			return fdxerr.Corrupt("checkpoint: version-1 stratum %d count %d differs from stratum 0's %d", s, c, st.Pairs)
		}
		st.Pairs = c
	}
	var err error
	st.Sums, st.Co, err = fromV1(k, st.Pairs, sums, outer)
	return err
}

// decodeRanges parses the optional batch-coverage section. A snapshot
// without one restores with nil Ranges, which the core defaults to the
// sequential coverage [0, batches) — the only coverage pre-sharding
// writers could have had.
func decodeRanges(st *core.AccumulatorState, payload []byte) error {
	d := dec{payload}
	n, ok := d.u32()
	if !ok {
		return fdxerr.Corrupt("checkpoint: ranges section too short")
	}
	if uint64(n) > uint64(st.Batches) {
		// Coalesced disjoint intervals over b batches can never number
		// more than b.
		return fdxerr.Corrupt("checkpoint: ranges section claims %d intervals for %d batches", n, st.Batches)
	}
	st.Ranges = make([]core.BatchRange, n)
	for i := range st.Ranges {
		lo, ok1 := d.u64()
		hi, ok2 := d.u64()
		if !ok1 || !ok2 {
			return fdxerr.Corrupt("checkpoint: ranges section truncated at interval %d", i)
		}
		if lo > 1<<62 || hi > 1<<62 {
			return fdxerr.Corrupt("checkpoint: ranges interval %d out of range", i)
		}
		st.Ranges[i] = core.BatchRange{Lo: int(lo), Hi: int(hi)}
	}
	if len(d.buf) != 0 {
		return fdxerr.Corrupt("checkpoint: ranges section has %d trailing bytes", len(d.buf))
	}
	return nil
}
