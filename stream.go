package fdx

import (
	"context"
	"io"
	"time"

	"fdx/internal/checkpoint"
	"fdx/internal/core"
	"fdx/internal/fdxerr"
	"fdx/internal/obs"
)

// Accumulator supports incremental FD discovery over a stream of tuple
// batches: each Add folds a batch's pair statistics into running sums, and
// Discover derives the current dependencies without retransforming
// history. Batches must share the accumulator's schema. Pairs never span
// batches, so the estimate approximates (and with growing data converges
// to) the batch Discover on the concatenation.
//
// Like Discover, the Accumulator never panics: schema mismatches return
// ErrBadInput-wrapped errors and internal invariant panics are recovered
// into ErrInternal-wrapped errors.
type Accumulator struct {
	inner *core.Accumulator
	names []string
}

// NewAccumulator creates an incremental discovery session over relations
// with the given attribute names.
func NewAccumulator(attrNames []string, opts Options) *Accumulator {
	return &Accumulator{
		inner: core.NewAccumulator(attrNames, coreOptions(opts)),
		names: append([]string(nil), attrNames...),
	}
}

// Add absorbs one batch (at least two rows, matching schema).
func (a *Accumulator) Add(rel *Relation) (err error) {
	defer guard("fdx: Accumulator.Add", &err)
	return a.inner.Add(rel)
}

// Rows returns the total number of tuples absorbed.
func (a *Accumulator) Rows() int { return a.inner.Rows() }

// Batches returns the number of batches absorbed.
func (a *Accumulator) Batches() int { return a.inner.Batches() }

// Attributes returns the accumulator's attribute names in order.
func (a *Accumulator) Attributes() []string { return append([]string(nil), a.names...) }

// Discover derives the dependencies currently supported by the stream.
func (a *Accumulator) Discover() (*Result, error) {
	return a.DiscoverContext(context.Background())
}

// DiscoverContext is Discover with cancellation; see fdx.DiscoverContext
// for where the context is checked.
func (a *Accumulator) DiscoverContext(ctx context.Context) (res *Result, err error) {
	defer guard("fdx: Accumulator.Discover", &err)
	//fdx:lint-ignore detsource wall-clock timing metadata (Result.ModelDuration); never feeds FD scores
	t0 := time.Now()
	model, err := a.inner.DiscoverContext(ctx)
	if err != nil {
		return nil, err
	}
	res = resultFromModel(model, a.names)
	//fdx:lint-ignore detsource wall-clock timing metadata (Result.ModelDuration); never feeds FD scores
	res.ModelDuration = time.Since(t0)
	res.StageTimings = model.Trace.StageTimings()
	return res, nil
}

// WALSuffix is appended to a checkpoint path to name its companion
// write-ahead log: SaveCheckpoint(path) pairs with the WAL at
// path+WALSuffix, which LoadCheckpoint replays automatically.
const WALSuffix = checkpoint.WALSuffix

// Snapshot writes a versioned, checksummed snapshot of the accumulator's
// state to w. The snapshot embeds a fingerprint of the options that
// determine what the statistics mean (transform seed and pair-transform
// knobs); RestoreAccumulator refuses a snapshot taken under different
// ones. Snapshot provides no durability by itself — use SaveCheckpoint
// for the fsync-and-rename file protocol.
func (a *Accumulator) Snapshot(w io.Writer) (err error) {
	defer guard("fdx: Snapshot", &err)
	copts := a.inner.Options()
	return checkpoint.WriteSnapshot(w, a.inner.State(), checkpoint.Fingerprint(copts))
}

// RestoreAccumulator reconstructs an accumulator from a snapshot written
// by Snapshot. opts must fingerprint-match the options the snapshot was
// taken under (ErrBadInput otherwise); unreadable bytes return
// ErrCorruptCheckpoint or ErrCheckpointVersion-wrapped errors, never a
// panic. The restored accumulator continues the stream bit-for-bit.
func RestoreAccumulator(r io.Reader, opts Options) (acc *Accumulator, err error) {
	defer guard("fdx: RestoreAccumulator", &err)
	st, fingerprint, err := checkpoint.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return accumulatorFromState(st, fingerprint, opts)
}

// SaveCheckpoint durably writes the accumulator's snapshot to path: temp
// file, fsync, atomic rename, directory fsync. A crash at any point leaves
// either the previous checkpoint or the new one, never a torn mix; any
// failure wraps ErrCorruptCheckpoint and leaves the previous checkpoint
// untouched. After a successful save, Reset the companion WAL — its
// records are now covered by the snapshot (leaving them is safe: restore
// skips records the snapshot already includes).
func (a *Accumulator) SaveCheckpoint(path string) (err error) {
	defer guard("fdx: SaveCheckpoint", &err)
	copts := a.inner.Options()
	// The checkpoint package stays telemetry-free; spans and byte counters
	// are wired here at the API boundary from the sizes it reports.
	sp := copts.Obs.StartStage("checkpoint-save")
	defer sp.End()
	n, err := checkpoint.Save(path, a.inner.State(), checkpoint.Fingerprint(copts))
	if err != nil {
		return err
	}
	sp.Attr("bytes", n)
	copts.Obs.Count(obs.MCheckpointSaves, 1)
	copts.Obs.Count(obs.MCheckpointBytes, uint64(n))
	return nil
}

// LoadCheckpoint restores an accumulator from the checkpoint at path,
// replaying any batch records in the WAL at path+WALSuffix and truncating
// a torn tail record (the one unsynced batch a kill can lose) in place.
// Errors are typed: a missing snapshot matches fs.ErrNotExist (wrapped in
// ErrBadInput), mismatched options ErrBadInput, unreadable or
// inconsistent bytes ErrCorruptCheckpoint, an incompatible format version
// ErrCheckpointVersion. Arbitrary bytes never panic.
func LoadCheckpoint(path string, opts Options) (acc *Accumulator, err error) {
	defer guard("fdx: LoadCheckpoint", &err)
	h := coreOptions(opts).Obs
	lsp := h.StartStage("checkpoint-load")
	st, fingerprint, err := checkpoint.Load(path)
	lsp.End()
	if err != nil {
		return nil, err
	}
	acc, err = accumulatorFromState(st, fingerprint, opts)
	if err != nil {
		return nil, err
	}
	rsp := h.StartStage("wal-replay")
	defer rsp.End()
	applied, torn, err := checkpoint.ReplayWAL(path+WALSuffix, func(d *core.BatchDelta) error {
		switch {
		case d.Seq <= acc.inner.Batches():
			// Already covered by the snapshot (the WAL was not reset after
			// the save, or the crash hit between save and reset).
			return nil
		case d.Seq == acc.inner.Batches()+1:
			if err := acc.inner.ApplyDelta(d); err != nil {
				// The record passed its checksum but does not fit the
				// snapshot: corrupt bytes, not a caller mistake.
				return fdxerr.Corrupt("fdx: wal record %d rejected: %v", d.Seq, err)
			}
			return nil
		default:
			return fdxerr.Corrupt("checkpoint: wal skips from batch %d to %d", acc.inner.Batches(), d.Seq)
		}
	})
	rsp.Attr("records", applied)
	h.Count(obs.MWALReplayed, uint64(applied))
	if torn {
		// The tail record was torn mid-append and truncated: the stream
		// resumes one batch before where the dead writer got to. Surfaced
		// as a counter so operators see the (bounded, by-design) loss.
		rsp.Attr("torn_tail", 1)
		h.Count(obs.MWALTornTail, 1)
	}
	if err != nil {
		return nil, err
	}
	return acc, nil
}

// accumulatorFromState validates a decoded snapshot against the caller's
// options and wraps it in the public accumulator type.
func accumulatorFromState(st *core.AccumulatorState, fingerprint uint64, opts Options) (*Accumulator, error) {
	copts := coreOptions(opts)
	if want := checkpoint.Fingerprint(copts); fingerprint != want {
		return nil, fdxerr.BadInput(
			"fdx: checkpoint was taken under different options (fingerprint %016x, these options give %016x); Seed, MaxRows, NumericTolerance and TextSimilarity must match the original stream",
			fingerprint, want)
	}
	inner, err := core.NewAccumulatorFromState(st, copts)
	if err != nil {
		// The snapshot passed its checksums but describes an impossible
		// accumulator: corrupt bytes, not a caller mistake.
		return nil, fdxerr.Corrupt("fdx: checkpoint state rejected: %v", err)
	}
	return &Accumulator{inner: inner, names: append([]string(nil), st.Names...)}, nil
}

// WAL is the append-only batch log pairing with SaveCheckpoint: AddLogged
// absorbs a batch and fsyncs its statistics delta to the log, so a kill
// between checkpoints loses at most the one batch torn mid-append.
// LoadCheckpoint replays the log automatically. A WAL is single-writer
// and not safe for concurrent use.
type WAL struct {
	inner *checkpoint.WAL
}

// OpenWAL opens (creating if absent) the write-ahead log at path — by
// convention the checkpoint path plus WALSuffix.
func OpenWAL(path string) (w *WAL, err error) {
	defer guard("fdx: OpenWAL", &err)
	inner, err := checkpoint.OpenWAL(path)
	if err != nil {
		return nil, err
	}
	return &WAL{inner: inner}, nil
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.inner.Path() }

// Reset truncates the log after a successful SaveCheckpoint, whose
// snapshot now covers every logged record.
func (w *WAL) Reset() (err error) {
	defer guard("fdx: WAL.Reset", &err)
	return w.inner.Reset()
}

// Close closes the log file.
func (w *WAL) Close() error { return w.inner.Close() }

// AddLogged absorbs one batch like Add and appends its statistics delta to
// the WAL with an fsync before returning. If the append fails the batch
// IS absorbed in memory but is not durable: the caller should
// SaveCheckpoint (which captures it) or treat the stream position as the
// previous batch.
func (a *Accumulator) AddLogged(rel *Relation, w *WAL) (err error) {
	defer guard("fdx: AddLogged", &err)
	d, err := a.inner.Absorb(rel)
	if err != nil {
		return err
	}
	return a.logDelta(d, w)
}
