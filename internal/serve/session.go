package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"

	"fdx"
	"fdx/internal/faults"
)

// nameRe constrains session and tenant identifiers: they become file names
// (the session's manifest, checkpoint, and WAL), so the grammar is a
// conservative token with no separators or dots.
var nameRe = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// SessionOptions is the JSON-facing subset of fdx.Options a client may set
// when creating a session. Telemetry handles (Tracer/Metrics) are the
// server's, never the client's.
type SessionOptions struct {
	Lambda             float64 `json:"lambda,omitempty"`
	Threshold          float64 `json:"threshold,omitempty"`
	RelFraction        float64 `json:"rel_fraction,omitempty"`
	Ordering           string  `json:"ordering,omitempty"`
	MaxRows            int     `json:"max_rows,omitempty"`
	NumericTolerance   float64 `json:"numeric_tolerance,omitempty"`
	TextSimilarity     bool    `json:"text_similarity,omitempty"`
	Seed               int64   `json:"seed,omitempty"`
	RequireConvergence bool    `json:"require_convergence,omitempty"`
}

// options maps the wire options onto fdx.Options, attaching the server's
// metrics registry so WAL and checkpoint counters flow into /metrics.
// MetricLabels splits every pipeline series — including the per-stage
// fdx_stage_*_seconds histograms — by the owning tenant.
func (o SessionOptions) options(m *fdx.Metrics, tenant string) fdx.Options {
	return fdx.Options{
		MetricLabels:       []string{"tenant", tenant},
		Lambda:             o.Lambda,
		Threshold:          o.Threshold,
		RelFraction:        o.RelFraction,
		Ordering:           o.Ordering,
		MaxRows:            o.MaxRows,
		NumericTolerance:   o.NumericTolerance,
		TextSimilarity:     o.TextSimilarity,
		Seed:               o.Seed,
		RequireConvergence: o.RequireConvergence,
		Metrics:            m,
	}
}

// manifest is the durable description of a session, written next to its
// checkpoint so a restarted server can rebuild the session table. The
// accumulator state itself lives in the checkpoint + WAL pair; the manifest
// only records identity and configuration.
type manifest struct {
	ID         string         `json:"id"`
	Tenant     string         `json:"tenant"`
	Attributes []string       `json:"attributes"`
	Options    SessionOptions `json:"options"`
}

// session is one named accumulator with its durability apparatus. All
// state transitions happen under mu; discover works on a snapshot clone so
// it never holds the lock across structure learning.
type session struct {
	id     string
	tenant string
	names  []string
	wopts  SessionOptions
	opts   fdx.Options // wopts.options(registry), fixed at creation
	path   string      // checkpoint path; WAL at path+fdx.WALSuffix

	mu        sync.Mutex
	acc       *fdx.Accumulator
	wal       *fdx.WAL
	sinceSave int          // batches absorbed since the last checkpoint
	shardSeqs map[int]bool // shard-ship seqs acknowledged (fast retry dedup)
	closed    bool         // deleted or store shut down
	// refused is set at boot when the stored manifest's options fail
	// fdx.Options.Validate: nothing is loaded, the files stay untouched,
	// and every request but DELETE gets this 400 (sessionStore.get).
	refused *httpError
}

// ingest absorbs one batch at the given 1-based client sequence number.
// The protocol is idempotent against retries: a seq at or below the
// accumulator's batch count is a duplicate of work already absorbed
// (acknowledged again without re-applying), the next seq is applied, and a
// gap is a conflict. applied reports whether the batch was new. Every
// checkpointEvery applied batches the session checkpoints and resets its
// WAL, bounding replay work after a crash.
func (s *session) ingest(rel *fdx.Relation, seq, checkpointEvery int) (applied bool, herr *httpError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, serveError(404, CodeNotFound, "session "+s.id+" is deleted")
	}
	batches := s.acc.Batches()
	switch {
	case seq <= batches:
		return false, nil // duplicate delivery; already durable
	case seq > batches+1:
		return false, serveError(409, CodeConflict, fmt.Sprintf(
			"seq %d skips ahead: session has %d batches, next is %d", seq, batches, batches+1))
	}
	faults.Sleep(faults.IngestStall)
	if err := s.acc.AddLogged(rel, s.wal); err != nil {
		return false, taxonomyError(err)
	}
	s.sinceSave++
	if checkpointEvery > 0 && s.sinceSave >= checkpointEvery {
		if err := s.saveLocked(); err != nil {
			return true, taxonomyError(err)
		}
	}
	return true, nil
}

// mergeShard merges a shipped shard snapshot at the given 1-based client
// sequence number. An already-acknowledged seq is a duplicate delivery,
// acknowledged again without touching state; a fresh seq whose batch
// coverage the session already holds merges as a no-op (applied=false) —
// the accumulator's coverage intervals are the durable dedup, the seq set
// only an in-memory fast path. Shards may land in any order (workers ship
// concurrently), so unlike ingest there is no skip-ahead conflict: the
// seq set, not a high-water mark, records what was seen, and after a
// restart clears it a retried ship simply re-merges into the coverage
// no-op. Merges bypass the WAL, so a successful merge checkpoints
// immediately — the ack must imply durability.
func (s *session) mergeShard(snapshot []byte, seq int) (applied bool, herr *httpError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, serveError(404, CodeNotFound, "session "+s.id+" is deleted")
	}
	if s.shardSeqs[seq] {
		return false, nil // duplicate delivery; already durable
	}
	applied, err := s.acc.MergeSnapshot(bytes.NewReader(snapshot))
	if err != nil {
		return false, taxonomyError(err)
	}
	if err := s.saveLocked(); err != nil {
		return applied, taxonomyError(err)
	}
	if s.shardSeqs == nil {
		s.shardSeqs = map[int]bool{}
	}
	s.shardSeqs[seq] = true
	return applied, nil
}

// saveLocked checkpoints the accumulator and resets the WAL. Callers hold
// s.mu.
func (s *session) saveLocked() error {
	if err := s.acc.SaveCheckpoint(s.path); err != nil {
		return err
	}
	s.sinceSave = 0
	return s.wal.Reset()
}

// checkpoint durably saves the session's current state (drain and
// explicit-flush path).
func (s *session) checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.refused != nil {
		return nil
	}
	return s.saveLocked()
}

// clone snapshots the accumulator under the lock and restores a private
// copy outside it, so discovery runs on a frozen, consistent view while
// ingest continues. The clone shares no mutable state with the session.
func (s *session) clone() (*fdx.Accumulator, *httpError) {
	var buf bytes.Buffer
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, serveError(404, CodeNotFound, "session "+s.id+" is deleted")
	}
	err := s.acc.Snapshot(&buf)
	s.mu.Unlock()
	if err != nil {
		return nil, taxonomyError(err)
	}
	acc, err := fdx.RestoreAccumulator(&buf, s.opts)
	if err != nil {
		return nil, taxonomyError(err)
	}
	return acc, nil
}

// stats reports the session's current position.
func (s *session) stats() (rows, batches int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acc.Rows(), s.acc.Batches()
}

// close marks the session unusable and closes its WAL handle. It does not
// remove files; removeFiles does.
func (s *session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.wal != nil {
		s.wal.Close()
	}
}

// removeFiles deletes the session's manifest, checkpoint, and WAL.
func (s *session) removeFiles() {
	os.Remove(s.path + manifestSuffix)
	os.Remove(s.path)
	os.Remove(s.path + fdx.WALSuffix)
}

const (
	checkpointSuffix = ".fdx"
	manifestSuffix   = ".json"
)

// sessionStore owns the session table and its on-disk layout: for session
// id the directory holds <id>.fdx (checkpoint), <id>.fdx.wal (WAL), and
// <id>.fdx.json (manifest).
type sessionStore struct {
	dir      string
	registry *fdx.Metrics

	mu       sync.RWMutex
	sessions map[string]*session
}

func newSessionStore(dir string, registry *fdx.Metrics) *sessionStore {
	return &sessionStore{dir: dir, registry: registry, sessions: map[string]*session{}}
}

// create makes a new named session: an empty accumulator checkpointed
// immediately (so a crash before the first batch still restores) plus an
// open WAL, and a manifest recording identity and options. Creating an id
// that already exists with identical tenant/attributes/options is
// idempotent; a mismatch is a conflict.
func (st *sessionStore) create(id, tenant string, names []string, wopts SessionOptions) (s *session, created bool, herr *httpError) {
	if !nameRe.MatchString(id) {
		return nil, false, serveError(400, CodeBadInput, "session id must match "+nameRe.String())
	}
	if !nameRe.MatchString(tenant) {
		return nil, false, serveError(400, CodeBadInput, "tenant must match "+nameRe.String())
	}
	if len(names) < 2 {
		return nil, false, serveError(400, CodeBadInput, "a session needs at least two attributes")
	}
	if err := wopts.options(nil, tenant).Validate(); err != nil {
		return nil, false, taxonomyError(err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.sessions[id]; ok {
		if prev.tenant == tenant && prev.wopts == wopts && slices.Equal(prev.names, names) {
			return prev, false, nil // idempotent re-create
		}
		return nil, false, serveError(409, CodeConflict, "session "+id+" exists with different parameters")
	}
	s = &session{
		id:     id,
		tenant: tenant,
		names:  append([]string(nil), names...),
		wopts:  wopts,
		opts:   wopts.options(st.registry, tenant),
		path:   filepath.Join(st.dir, id+checkpointSuffix),
	}
	s.acc = fdx.NewAccumulator(s.names, s.opts)
	if err := writeManifest(s.path+manifestSuffix, manifest{
		ID: id, Tenant: tenant, Attributes: s.names, Options: wopts,
	}); err != nil {
		return nil, false, taxonomyError(err)
	}
	if err := s.acc.SaveCheckpoint(s.path); err != nil {
		os.Remove(s.path + manifestSuffix)
		return nil, false, taxonomyError(err)
	}
	wal, err := fdx.OpenWAL(s.path + fdx.WALSuffix)
	if err != nil {
		os.Remove(s.path + manifestSuffix)
		os.Remove(s.path)
		return nil, false, taxonomyError(err)
	}
	s.wal = wal
	st.sessions[id] = s
	return s, true, nil
}

// get looks a session up by id, enforcing tenant ownership: a session is
// invisible to other tenants (404, not 403, to avoid confirming the id
// exists).
func (st *sessionStore) get(id, tenant string) (*session, *httpError) {
	st.mu.RLock()
	s, ok := st.sessions[id]
	st.mu.RUnlock()
	if !ok || s.tenant != tenant {
		return nil, serveError(404, CodeNotFound, "no session "+id)
	}
	if s.refused != nil {
		return nil, s.refused
	}
	return s, nil
}

// remove deletes the session and its files.
func (st *sessionStore) remove(id, tenant string) *httpError {
	st.mu.Lock()
	s, ok := st.sessions[id]
	if ok && s.tenant == tenant {
		delete(st.sessions, id)
	}
	st.mu.Unlock()
	if !ok || s.tenant != tenant {
		return serveError(404, CodeNotFound, "no session "+id)
	}
	s.close()
	s.removeFiles()
	return nil
}

// all returns the live sessions sorted by id (deterministic drain order).
func (st *sessionStore) all() []*session {
	st.mu.RLock()
	out := make([]*session, 0, len(st.sessions))
	for _, s := range st.sessions {
		out = append(out, s)
	}
	st.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// closeAll closes every session's WAL handle (shutdown path; files stay).
func (st *sessionStore) closeAll() {
	for _, s := range st.all() {
		s.close()
	}
}

// restore rebuilds the session table from the data directory: every
// manifest names a session whose accumulator is LoadCheckpoint's job
// (checkpoint + WAL replay, torn tails truncated). Called once at startup
// before the server listens. A session that fails to restore aborts the
// boot — a half-visible session table would silently drop durable data.
// A manifest whose options fail fdx.Options.Validate (written before create
// checked them) is the exception: its session boots refused, so one bad
// session neither stops the server nor loses its files.
func (st *sessionStore) restore() error {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return fmt.Errorf("serve: reading data dir: %w", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, checkpointSuffix+manifestSuffix) {
			continue
		}
		var m manifest
		raw, err := os.ReadFile(filepath.Join(st.dir, name))
		if err != nil {
			return fmt.Errorf("serve: reading manifest %s: %w", name, err)
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			return fmt.Errorf("serve: parsing manifest %s: %w", name, err)
		}
		if !nameRe.MatchString(m.ID) || !nameRe.MatchString(m.Tenant) {
			return fmt.Errorf("serve: manifest %s has an invalid id or tenant", name)
		}
		s := &session{
			id:     m.ID,
			tenant: m.Tenant,
			names:  m.Attributes,
			wopts:  m.Options,
			opts:   m.Options.options(st.registry, m.Tenant),
			path:   filepath.Join(st.dir, m.ID+checkpointSuffix),
		}
		if err := s.opts.Validate(); err != nil {
			s.refused = taxonomyError(fmt.Errorf("serve: session %s was stored with invalid options; delete it: %w", m.ID, err))
			st.sessions[m.ID] = s
			continue
		}
		acc, err := fdx.LoadCheckpoint(s.path, s.opts)
		if err != nil {
			return fmt.Errorf("serve: restoring session %s: %w", m.ID, err)
		}
		wal, err := fdx.OpenWAL(s.path + fdx.WALSuffix)
		if err != nil {
			return fmt.Errorf("serve: reopening wal for session %s: %w", m.ID, err)
		}
		s.acc, s.wal = acc, wal
		// Replayed WAL records are in memory but the snapshot on disk
		// predates them; checkpoint now so the WAL can restart empty and a
		// second crash replays nothing twice.
		s.mu.Lock()
		err = s.saveLocked()
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("serve: re-checkpointing session %s: %w", m.ID, err)
		}
		st.sessions[m.ID] = s
	}
	return nil
}

// tenantSessions counts a tenant's live sessions (startup quota re-seed).
func (st *sessionStore) tenantSessions() map[string]int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	counts := map[string]int{}
	for _, s := range st.sessions {
		counts[s.tenant]++
	}
	return counts
}

// writeManifest writes the manifest atomically (temp + rename) so a crash
// mid-create never leaves a half-written manifest for restore to choke on.
func writeManifest(path string, m manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
