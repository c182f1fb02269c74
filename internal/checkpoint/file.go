package checkpoint

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"fdx/internal/core"
	"fdx/internal/faults"
	"fdx/internal/fdxerr"
)

// WALSuffix is appended to a snapshot path to name its companion WAL.
const WALSuffix = ".wal"

// Save durably writes a snapshot to path: encode into a temp file in the
// same directory, fsync it, atomically rename over path, and fsync the
// directory so the rename itself survives a crash. It returns the
// snapshot's encoded size (for telemetry). Any failure leaves the
// previous snapshot at path untouched and wraps ErrCorruptCheckpoint.
func Save(path string, st *core.AccumulatorState, fingerprint uint64) (written int64, err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fdxerr.Corrupt("checkpoint: create temp snapshot: %v", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	cw := &countWriter{w: tmp}
	w := bufio.NewWriter(cw)
	if err = WriteSnapshot(w, st, fingerprint); err != nil {
		return 0, err
	}
	if ferr := w.Flush(); ferr != nil {
		return 0, fdxerr.Corrupt("checkpoint: flush snapshot: %v", ferr)
	}
	if err = syncFile(tmp); err != nil {
		return 0, err
	}
	if cerr := tmp.Close(); cerr != nil {
		return 0, fdxerr.Corrupt("checkpoint: close temp snapshot: %v", cerr)
	}
	if faults.Fire(faults.RenameFail) {
		os.Remove(tmpName)
		return 0, fdxerr.Corrupt("checkpoint: rename %s: injected failure", tmpName)
	}
	if rerr := os.Rename(tmpName, path); rerr != nil {
		os.Remove(tmpName)
		return 0, fdxerr.Corrupt("checkpoint: rename snapshot: %v", rerr)
	}
	return cw.n, syncDir(dir)
}

// countWriter counts the bytes flowing to the underlying writer.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Load reads the snapshot at path. A missing file returns an error
// matching os.IsNotExist (and fs.ErrNotExist) wrapped in ErrBadInput, so
// callers can distinguish "no checkpoint yet" from corruption.
func Load(path string) (*core.AccumulatorState, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: %w: %w", err, fdxerr.ErrBadInput)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, 0, fdxerr.Corrupt("checkpoint: stat %s: %v", path, err)
	}
	st, fingerprint, err := readSnapshot(bufio.NewReader(f), info.Size())
	if err != nil {
		return nil, 0, fmt.Errorf("%w (snapshot %s)", err, path)
	}
	return st, fingerprint, nil
}

// Fingerprint hashes the options that determine what an accumulator's
// sufficient statistics mean: the transform seed and the pair-transform
// knobs. A resumed stream must use matching values or its batches would be
// transformed differently than the checkpointed history; discovery-time
// options (Lambda, Threshold, Ordering, …) are free to change across a
// resume and are deliberately not covered.
func Fingerprint(o core.Options) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "fdx-ckpt-v1|seed=%d|maxrows=%d|numtol=%g|textsim=%t",
		o.Seed, o.Transform.MaxRows, o.Transform.NumericTol, o.Transform.TextSimilarity)
	return h.Sum64()
}

// syncFile fsyncs f, surfacing failures (including the armed FsyncError
// fault) as ErrCorruptCheckpoint-wrapped errors.
func syncFile(f *os.File) error {
	if faults.Fire(faults.FsyncError) {
		return fdxerr.Corrupt("checkpoint: fsync %s: injected failure", f.Name())
	}
	if err := f.Sync(); err != nil {
		return fdxerr.Corrupt("checkpoint: fsync %s: %v", f.Name(), err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fdxerr.Corrupt("checkpoint: open dir %s: %v", dir, err)
	}
	defer d.Close()
	return syncFile(d)
}
