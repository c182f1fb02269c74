// Package checkpoint implements the durable on-disk state of incremental
// discovery: a versioned, self-validating snapshot of the Accumulator's
// sufficient statistics plus an append-only batch WAL, so a killed
// streaming process resumes losing at most the one unsynced tail batch.
//
// # Snapshot format (version 2)
//
// A snapshot is a 16-byte prologue followed by framed sections:
//
//	offset  size  field
//	0       8     magic "FDXCKPT1"
//	8       4     format version, little-endian uint32
//	12      4     reserved flags (zero)
//
//	section frame (repeated):
//	0       4     section ID, little-endian uint32
//	4       8     payload length, little-endian uint64
//	12      n     payload
//	12+n    4     CRC32C over ID + length + payload
//
// Version 2 has a meta section (fingerprint, rows, batches, k, names), a
// counts section (the pair count, the k×k per-stratum column sums and the
// k(k+1)/2 packed co-occurrence counts, all u64) and, for a non-sequential
// coverage, a ranges section. Sections may appear in any order; readers
// skip unknown IDs (still CRC-checked) so minor format additions stay
// readable, and the stream ends with the zero-length end section. The
// versioning recipe: a new optional field gets a new section ID (old
// readers skip it); a change old readers would misinterpret bumps the
// version, which they reject with ErrCheckpointVersion.
//
// Version 1 held the same statistics as float64: per-stratum counts, k×k
// sums and k outer-product matrices (8·k³ bytes). It is still read, and
// converted by fromV1.
//
// # WAL format
//
// The WAL is a sequence of records, each fsynced on append:
//
//	0    4    payload length, little-endian uint32
//	4    n    payload (one encoded core.BatchDelta)
//	4+n  4    CRC32C over length + payload
//
// A version-2 payload opens with the u64 walTag, whose top bit no
// version-1 payload's first field (a sequence number) can have, so the two
// are told apart at every k. A record that runs past end-of-file, or whose
// CRC fails with no bytes after it, is a torn tail from a crash mid-append:
// replay stops there and truncates the file. A CRC failure with valid
// bytes after it cannot come from a torn append and is reported as
// ErrCorruptCheckpoint.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"

	"fdx/internal/faults"
	"fdx/internal/fdxerr"
)

const (
	// magic identifies a snapshot file.
	magic = "FDXCKPT1"
	// version is the snapshot format version this build writes; it also
	// reads version1.
	version  = 2
	version1 = 1

	// Section IDs. Meta and ranges are common to both versions; IDs 2–4
	// hold version 1's float statistics, ID 6 version 2's counts.
	secEnd      = 0 // zero-length terminator
	secMeta     = 1 // fingerprint, counters, attribute names
	secCountsV1 = 2 // version 1: per-stratum observation counts
	secSumsV1   = 3 // version 1: per-stratum sum vectors
	secOuterV1  = 4 // version 1: per-stratum outer-product sums
	secRanges   = 5 // batch-coverage intervals (absent = [0, batches))
	secCounts   = 6 // version 2: pairs, per-stratum sums, co-occurrences

	// walTag opens every version-2 WAL record payload.
	walTag = 1<<63 | version
	// walHeaderLen is a version-2 record's bytes before its counts: tag,
	// seq, rows, global (u64 each) and k (u32).
	walHeaderLen = 4*8 + 4

	// maxSectionLen bounds a section (and WAL record) payload so a
	// corrupted length field cannot demand an absurd allocation.
	maxSectionLen = 1 << 27
	// firstRead is readSection's first buffer size on an input of unknown
	// length; the buffer doubles from there up to the claimed payload
	// length.
	firstRead = 1 << 16
	// frameLen is a section's bytes around its payload: id and length
	// (u32, u64) before it, CRC (u32) after.
	frameLen = 4 + 8 + 4
)

// maxAttrs is the largest attribute count whose biggest payload, a WAL
// record, fits in maxSectionLen (3,344); every counts section is smaller.
// Writers refuse more, so everything written stays readable.
var maxAttrs = func() int {
	k := 0
	for walHeaderLen+countsLen(k+1) <= maxSectionLen {
		k++
	}
	return k
}()

// inRange reports whether a counter or index fits the [0, 2⁶²] range
// readers accept.
func inRange(v int) bool { return v >= 0 && v <= 1<<62 }

// countsLen is the encoded size of k attributes' sums and co-occurrence
// counts.
func countsLen(k int) int { return 8 * (k*k + k*(k+1)/2) }

// castagnoli is the CRC32C table used for every checksum in the format.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// enc is a little-endian append-only payload builder.
type enc struct{ buf []byte }

func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// counts appends k attributes' sums and co-occurrence counts.
func (e *enc) counts(sums, co []uint64) {
	for _, v := range sums {
		e.u64(v)
	}
	for _, v := range co {
		e.u64(v)
	}
}

// dec is a little-endian payload reader; every getter reports whether the
// payload still had enough bytes.
type dec struct{ buf []byte }

func (d *dec) u32() (uint32, bool) {
	if len(d.buf) < 4 {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v, true
}

func (d *dec) u64() (uint64, bool) {
	if len(d.buf) < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v, true
}

// counts reads k attributes' sums and co-occurrence counts; the caller
// has checked that countsLen(k) bytes remain.
func (d *dec) counts(k int) (sums, co []uint64) {
	sums = make([]uint64, k*k)
	co = make([]uint64, k*(k+1)/2)
	for i := range sums {
		sums[i], _ = d.u64()
	}
	for i := range co {
		co[i], _ = d.u64()
	}
	return sums, co
}

func (d *dec) str() (string, bool) {
	n, ok := d.u32()
	if !ok || uint64(n) > uint64(len(d.buf)) {
		return "", false
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, true
}

// frameCRC checksums a section or WAL record frame (header + payload).
func frameCRC(header, payload []byte) uint32 {
	c := crc32.Update(0, castagnoli, header)
	return crc32.Update(c, castagnoli, payload)
}

// writeSection frames and writes one snapshot section.
func writeSection(w io.Writer, id uint32, payload []byte) error {
	var h enc
	h.u32(id)
	h.u64(uint64(len(payload)))
	crc := frameCRC(h.buf, payload)
	if err := writeFull(w, h.buf); err != nil {
		return err
	}
	if err := writeFull(w, payload); err != nil {
		return err
	}
	var tail enc
	tail.u32(crc)
	return writeFull(w, tail.buf)
}

// readSection reads and validates one section frame. left is how many
// bytes r still holds, or negative when unknown: a known length refuses a
// claim longer than the bytes present at once and reads a fitting one
// into one exact allocation.
func readSection(r io.Reader, left int64) (id uint32, payload []byte, err error) {
	header := make([]byte, 12)
	if _, err := io.ReadFull(r, header); err != nil {
		return 0, nil, fdxerr.Corrupt("checkpoint: truncated section header (%v)", err)
	}
	id = binary.LittleEndian.Uint32(header)
	n := binary.LittleEndian.Uint64(header[4:])
	if n > maxSectionLen {
		return 0, nil, fdxerr.Corrupt("checkpoint: section %d claims %d bytes (max %d)", id, n, maxSectionLen)
	}
	// The buffer starts at the claimed length when the input's length is
	// known, a claim longer than the bytes present having failed first.
	// Otherwise it doubles from firstRead bytes as the payload arrives,
	// capped at the claim: a lying length on a truncated input costs at
	// most twice the bytes present, and a true one ends in a buffer of
	// exactly n bytes, having copied fewer than n on the way.
	first := min(n, firstRead)
	if left >= 0 {
		if n+frameLen > uint64(left) {
			return 0, nil, fdxerr.Corrupt("checkpoint: section %d claims %d bytes, %d remain", id, n, max(left-frameLen, 0))
		}
		first = n
	}
	payload = make([]byte, 0, first)
	for uint64(len(payload)) < n {
		if len(payload) == cap(payload) {
			payload = append(make([]byte, 0, min(n, 2*uint64(cap(payload)))), payload...)
		}
		m, err := io.ReadFull(r, payload[len(payload):cap(payload)])
		payload = payload[:len(payload)+m]
		if err != nil {
			return 0, nil, fdxerr.Corrupt("checkpoint: truncated section %d payload (%v)", id, err)
		}
	}
	tail := make([]byte, 4)
	if _, err := io.ReadFull(r, tail); err != nil {
		return 0, nil, fdxerr.Corrupt("checkpoint: truncated section %d checksum (%v)", id, err)
	}
	if got, want := frameCRC(header, payload), binary.LittleEndian.Uint32(tail); got != want {
		return 0, nil, fdxerr.Corrupt("checkpoint: section %d checksum mismatch (%08x != %08x)", id, got, want)
	}
	return id, payload, nil
}

// writeFull writes b completely, surfacing short writes (including the
// armed ShortWrite fault) as ErrCorruptCheckpoint-wrapped errors.
func writeFull(w io.Writer, b []byte) error {
	if len(b) > 0 && faults.Fire(faults.ShortWrite) {
		n, _ := w.Write(b[:len(b)/2])
		return fdxerr.Corrupt("checkpoint: short write: %d of %d bytes (injected)", n, len(b))
	}
	n, err := w.Write(b)
	if err != nil {
		return fdxerr.Corrupt("checkpoint: write: %v", err)
	}
	if n != len(b) {
		return fdxerr.Corrupt("checkpoint: short write: %d of %d bytes", n, len(b))
	}
	return nil
}

// flipReader corrupts one bit of the first byte it reads whenever the
// ReadBitFlip fault fires, exercising the CRC validation on restore.
type flipReader struct{ r io.Reader }

func (fr flipReader) Read(p []byte) (int, error) {
	n, err := fr.r.Read(p)
	if n > 0 && faults.Fire(faults.ReadBitFlip) {
		p[0] ^= 0x40
	}
	return n, err
}

// fromV1 converts version-1 float statistics to counts. sums holds the
// k×k column sums and outer the k stratum outer products (k×k each), as
// little-endian float64 payload bytes of exactly those lengths. Every
// value must be an integer in [0, limit] and every outer product
// symmetric, as the version-1 writer left them; the outer products'
// upper triangles are summed over strata. Anything else wraps
// ErrCorruptCheckpoint. (fdx:numeric-kernel: v == Trunc(v) is the exact
// integrality test a count must pass; a tolerance would accept non-counts.)
func fromV1(k int, limit uint64, sums, outer []byte) ([]uint64, []uint64, error) {
	count := func(raw []byte, i int) (uint64, bool) {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if !(v >= 0 && v <= float64(limit) && v == math.Trunc(v)) {
			return 0, false
		}
		return uint64(v), true
	}
	s := make([]uint64, k*k)
	for i := range s {
		v, ok := count(sums, i)
		if !ok {
			return nil, nil, fdxerr.Corrupt("checkpoint: version-1 sum %d is not a count in [0, %d]", i, limit)
		}
		s[i] = v
	}
	co := make([]uint64, k*(k+1)/2)
	for st := 0; st < k; st++ {
		m, i := st*k*k, 0
		for p := 0; p < k; p++ {
			for q := p; q < k; q++ {
				v, ok := count(outer, m+p*k+q)
				if !ok || !bytes.Equal(outer[8*(m+p*k+q):][:8], outer[8*(m+q*k+p):][:8]) {
					return nil, nil, fdxerr.Corrupt("checkpoint: version-1 outer product %d entry (%d,%d) is not a symmetric count in [0, %d]", st, p, q, limit)
				}
				co[i] += v
				i++
			}
		}
	}
	return s, co, nil
}
