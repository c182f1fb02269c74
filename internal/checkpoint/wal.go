package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"fdx/internal/core"
	"fdx/internal/fdxerr"
)

// WAL is an append-only log of batch deltas complementing the snapshot: a
// snapshot captures state up to batch m, the WAL holds every batch after
// m, and each append is fsynced, so a crash loses at most the one record
// torn mid-write. A WAL is single-writer; it is not safe for concurrent
// use.
type WAL struct {
	f    *os.File
	path string
}

// OpenWAL opens (creating if absent) the WAL at path for appending.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fdxerr.Corrupt("checkpoint: open wal: %v", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fdxerr.Corrupt("checkpoint: seek wal: %v", err)
	}
	return &WAL{f: f, path: path}, nil
}

// Path returns the WAL's file path.
func (w *WAL) Path() string { return w.path }

// Append logs one batch delta and fsyncs, returning the record's framed
// size (for telemetry). On error the record may be torn on disk; a later
// replay truncates it, so the failed batch is the one at risk, never
// earlier ones.
func (w *WAL) Append(d *core.BatchDelta) (int, error) {
	frame, err := encodeDelta(d)
	if err != nil {
		return 0, err
	}
	if err := writeFull(w.f, frame); err != nil {
		return 0, err
	}
	return len(frame), syncFile(w.f)
}

// Reset truncates the WAL after a successful snapshot. Skipping a Reset is
// safe — replay ignores records already covered by the snapshot — it only
// lets the file grow.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fdxerr.Corrupt("checkpoint: truncate wal: %v", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fdxerr.Corrupt("checkpoint: seek wal: %v", err)
	}
	return syncFile(w.f)
}

// Close closes the WAL file.
func (w *WAL) Close() error {
	if err := w.f.Close(); err != nil {
		return fdxerr.Corrupt("checkpoint: close wal: %v", err)
	}
	return nil
}

// ReplayWAL reads the WAL at path, calling apply for each complete record
// in order, and truncates a torn tail record in place so later appends
// continue after the last good one; torn reports whether such a tail was
// found (callers surface it — a torn tail is the one unsynced batch a kill
// can lose, and hiding the truncation would make a resumed stream look
// further along than it is). A missing file replays zero records.
// Mid-log corruption (a bad record with valid data after it) wraps
// ErrCorruptCheckpoint; an apply error is returned as-is.
func ReplayWAL(path string, apply func(*core.BatchDelta) error) (applied int, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fdxerr.Corrupt("checkpoint: open wal: %v", err)
	}
	defer f.Close()
	var buf bytes.Buffer
	if info, err := f.Stat(); err == nil {
		buf.Grow(int(info.Size()) + bytes.MinRead) // one allocation, however long the log
	}
	if _, err := buf.ReadFrom(flipReader{f}); err != nil {
		return 0, false, fdxerr.Corrupt("checkpoint: read wal: %v", err)
	}
	data := buf.Bytes()

	off := 0
	for off < len(data) {
		rem := data[off:]
		if len(rem) < 8 {
			torn = true
			break
		}
		n := binary.LittleEndian.Uint32(rem)
		total := 4 + int64(n) + 4
		if int64(n) > maxSectionLen || total > int64(len(rem)) {
			// The record claims more bytes than exist: a tail torn while
			// (or before) its payload was being written.
			torn = true
			break
		}
		frame := rem[:4+n]
		want := binary.LittleEndian.Uint32(rem[4+n:])
		if frameCRC(frame[:4], frame[4:]) != want {
			if int(total) == len(rem) {
				// Full-length final record with a bad sum: torn mid-write
				// with stale bytes beyond the tear.
				torn = true
				break
			}
			return applied, torn, fdxerr.Corrupt("checkpoint: wal record at offset %d fails its checksum with %d live bytes after it", off, len(rem)-int(total))
		}
		d, derr := decodeDelta(frame[4:])
		if derr != nil {
			return applied, torn, fmt.Errorf("checkpoint: wal record at offset %d: %w", off, derr)
		}
		if aerr := apply(d); aerr != nil {
			return applied, torn, aerr
		}
		applied++
		off += int(total)
	}
	if torn {
		if err := f.Truncate(int64(off)); err != nil {
			return applied, torn, fdxerr.Corrupt("checkpoint: truncate torn wal tail: %v", err)
		}
		if err := syncFile(f); err != nil {
			return applied, torn, err
		}
	}
	return applied, torn, nil
}

// encodeDelta frames a batch delta as a version-2 WAL record: length,
// then the payload — walTag, seq, rows, k, global, the counts — then the
// CRC. A delta ReplayWAL could not read back is refused with ErrBadInput.
func encodeDelta(d *core.BatchDelta) ([]byte, error) {
	if d == nil {
		return nil, fdxerr.BadInput("checkpoint: nil batch delta")
	}
	k := int(math.Sqrt(float64(len(d.Sums))))
	if k*k != len(d.Sums) || len(d.Co) != k*(k+1)/2 {
		return nil, fdxerr.BadInput("checkpoint: delta has %d sums and %d co-occurrence counts", len(d.Sums), len(d.Co))
	}
	if k > maxAttrs {
		return nil, fdxerr.BadInput("checkpoint: delta has %d attributes, format limit %d", k, maxAttrs)
	}
	if !inRange(d.Seq) || !inRange(d.Global) || !inRange(d.Rows) {
		return nil, fdxerr.BadInput("checkpoint: delta has seq %d, global %d, rows %d", d.Seq, d.Global, d.Rows)
	}
	n := walHeaderLen + countsLen(k)
	e := enc{buf: make([]byte, 0, 4+n+4)}
	e.u32(uint32(n))
	e.u64(walTag)
	e.u64(uint64(d.Seq))
	e.u64(uint64(d.Rows))
	e.u32(uint32(k))
	e.u64(uint64(d.Global))
	e.counts(d.Sums, d.Co)
	e.u32(crc32.Checksum(e.buf, castagnoli))
	return e.buf, nil
}

// decodeDelta parses a WAL record payload: walTag and the version-2
// layout, or version 1 (converted by fromV1). Version 1 has two layouts
// after seq, rows, k: the original is exactly the float sums and outer
// products; the sharded one prefixes a u64 global index, so the 8-byte
// difference tells them apart. Records without the field predate
// sharding, where the global index was always Seq-1. Structural failures
// wrap ErrCorruptCheckpoint: the payload passed its CRC, so a malformed
// layout never came from an encoder.
func decodeDelta(payload []byte) (*core.BatchDelta, error) {
	d := dec{payload}
	v2 := len(payload) >= 8 && binary.LittleEndian.Uint64(payload) == walTag
	if v2 {
		d.u64()
	}
	seq, ok1 := d.u64()
	rows, ok2 := d.u64()
	k32, ok3 := d.u32()
	if !ok1 || !ok2 || !ok3 {
		return nil, fdxerr.Corrupt("checkpoint: wal record too short")
	}
	if int(k32) > maxAttrs || seq > 1<<62 || rows > 1<<62 {
		return nil, fdxerr.Corrupt("checkpoint: wal record fields out of range")
	}
	k := int(k32)
	body := 8 * (k*k + k*k*k)
	if v2 {
		body = countsLen(k)
	}
	out := &core.BatchDelta{Seq: int(seq), Global: int(seq) - 1, Rows: int(rows)}
	switch {
	case len(d.buf) == 8+body:
		g, _ := d.u64()
		if g > 1<<62 {
			return nil, fdxerr.Corrupt("checkpoint: wal record global index out of range")
		}
		out.Global = int(g)
	case len(d.buf) != body || v2:
		return nil, fdxerr.Corrupt("checkpoint: wal record body is %d bytes, want %d", len(d.buf), 8+body)
	}
	if v2 {
		out.Sums, out.Co = d.counts(k)
		return out, nil
	}
	var err error
	out.Sums, out.Co, err = fromV1(k, rows, d.buf[:8*k*k], d.buf[8*k*k:])
	return out, err
}
