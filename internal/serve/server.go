// Package serve implements fdxd, the crash-safe FD-discovery service: named
// accumulator sessions with durable checkpoint+WAL state, batched
// idempotent ingest, queued discovery with a bounded worker pool, per-tenant
// admission control (package limit), and graceful drain. Every error on the
// wire carries a code from the fixed taxonomy in errors.go.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fdx"
	"fdx/internal/faults"
	"fdx/internal/fdxerr"
	"fdx/internal/obs"
	"fdx/internal/serve/limit"
)

// Config sizes the server. The zero value of each field selects the
// default noted on it.
type Config struct {
	// DataDir holds every session's manifest, checkpoint, and WAL.
	// Required.
	DataDir string
	// Quotas is the per-tenant admission policy (zero fields unlimited).
	Quotas limit.Quotas
	// CheckpointEvery checkpoints a session after this many absorbed
	// batches, bounding WAL replay after a crash. Default 16; negative
	// disables periodic checkpoints (drain and restore still save).
	CheckpointEvery int
	// RequestTimeout bounds each request's handling, propagated as a
	// context deadline into discovery. Default 30s.
	RequestTimeout time.Duration
	// DiscoverWorkers is the structure-learning worker-pool size.
	// Default 2.
	DiscoverWorkers int
	// QueueDepth bounds the discover backlog; a full queue sheds with 503
	// queue_full. Default 16.
	QueueDepth int
	// DrainTimeout bounds how long Drain waits for in-flight requests
	// before checkpointing anyway. Default 10s.
	DrainTimeout time.Duration
	// Metrics receives service counters and histograms; nil creates a
	// private registry (exposed at /metrics either way).
	Metrics *fdx.Metrics
	// Log receives request-scoped structured lines (trace/span ids,
	// tenant, session, seq) and operational events; nil discards them.
	Log *slog.Logger
	// SlowRequest is the slow-request log threshold: requests at or over
	// it are re-logged at Warn as "slow_request". Default 1s; negative
	// disables.
	SlowRequest time.Duration
}

func (c Config) withDefaults() Config {
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 16
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DiscoverWorkers <= 0 {
		c.DiscoverWorkers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = fdx.NewMetrics()
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = time.Second
	}
	return c
}

// Server is the fdxd request handler plus the state behind it. Create with
// New, mount Handler on an http.Server (or use HTTPServer), and call Drain
// on SIGTERM.
type Server struct {
	cfg      Config
	store    *sessionStore
	queue    *discoverQueue
	tenants  *limit.PerTenant
	draining atomic.Bool
	inflight sync.WaitGroup
}

// New builds a server over cfg.DataDir, restoring every session the
// directory describes (checkpoint + WAL replay) before returning, so a
// restart resumes streams bit-identically.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("serve: Config.DataDir is required")
	}
	sv := &Server{
		cfg:     cfg,
		store:   newSessionStore(cfg.DataDir, cfg.Metrics),
		tenants: limit.NewPerTenant(cfg.Quotas),
	}
	if err := sv.store.restore(); err != nil {
		return nil, err
	}
	// Re-seed the quota ledger with the restored sessions, so a restart
	// does not grant every tenant a fresh allowance.
	for tenant, n := range sv.store.tenantSessions() {
		for i := 0; i < n; i++ {
			sv.tenants.AcquireSession(tenant)
		}
		cfg.Metrics.Gauge(obs.Labeled(obs.MServeSessions, "tenant", tenant)).Set(float64(n))
	}
	sv.queue = newDiscoverQueue(cfg.DiscoverWorkers, cfg.QueueDepth, cfg.Metrics)
	return sv, nil
}

// Metrics returns the server's registry (for expvar publication or tests).
func (sv *Server) Metrics() *fdx.Metrics { return sv.cfg.Metrics }

// Handler returns the fdxd route table.
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", sv.route("create", sv.handleCreate))
	mux.HandleFunc("GET /v1/sessions/{id}", sv.route("get", sv.handleGet))
	mux.HandleFunc("DELETE /v1/sessions/{id}", sv.route("delete", sv.handleDelete))
	mux.HandleFunc("POST /v1/sessions/{id}/rows", sv.route("rows", sv.handleRows))
	mux.HandleFunc("POST /v1/sessions/{id}/shards", sv.route("shards", sv.handleShards))
	mux.HandleFunc("POST /v1/sessions/{id}/discover", sv.route("discover", sv.handleDiscover))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if sv.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		sv.cfg.Metrics.WritePrometheus(w)
	})
	return mux
}

// HTTPServer wraps Handler in an http.Server with slow-client protection:
// header/body read and response write deadlines, so one stalled peer
// cannot pin a connection goroutine forever.
func (sv *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           sv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       sv.cfg.RequestTimeout + 5*time.Second,
		WriteTimeout:      sv.cfg.RequestTimeout + 5*time.Second,
		IdleTimeout:       60 * time.Second,
	}
}

// route wraps a handler with the service envelope: drain shedding, the
// in-flight ledger, the per-request deadline, panic recovery, JSON error
// rendering — and the observability scope, which adopts the caller's W3C
// traceparent, echoes the server span in X-Fdx-Trace, and emits one
// structured log line per request (see middleware.go).
func (sv *Server) route(name string, h func(w http.ResponseWriter, r *http.Request) *httpError) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		//fdx:lint-ignore detsource request timing for logs and trace echo; never feeds FD scores
		start := time.Now()
		scope := beginScope(name, r, start)
		r = r.WithContext(context.WithValue(r.Context(), reqScopeKey{}, scope))
		ew := &echoWriter{ResponseWriter: w, scope: scope}
		if id := r.PathValue("id"); id != "" {
			annotate(r, "session", id)
		}
		if sv.draining.Load() {
			sv.shed(ew, serveError(http.StatusServiceUnavailable, CodeDraining,
				"server is draining").withRetry(sv.cfg.DrainTimeout))
			return
		}
		sv.inflight.Add(1)
		defer sv.inflight.Done()
		ctx, cancel := context.WithTimeout(r.Context(), sv.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		defer func() {
			if p := recover(); p != nil {
				sv.cfg.Log.Error("panic", "method", r.Method, "path", r.URL.Path,
					"trace_id", scope.traceID, "panic", fmt.Sprint(p))
				sv.writeError(ew, serveError(http.StatusInternalServerError, CodeInternal,
					fmt.Sprintf("recovered: %v", p)))
			}
			status := ew.status
			if status == 0 {
				status = http.StatusOK
			}
			//fdx:lint-ignore detsource request timing for logs and trace echo; never feeds FD scores
			sv.logRequest(r, scope, status, time.Since(start))
		}()
		if herr := h(ew, r); herr != nil {
			sv.writeError(ew, herr)
		}
	}
}

// shed answers a rejected request without touching the in-flight ledger
// (drain must not wait for the requests it is refusing).
func (sv *Server) shed(w http.ResponseWriter, herr *httpError) {
	sv.cfg.Metrics.Counter(obs.MServeShed).Inc()
	sv.writeError(w, herr)
}

// writeError renders the wire-error envelope with a Retry-After header
// when the error carries a backoff hint.
func (sv *Server) writeError(w http.ResponseWriter, herr *httpError) {
	w.Header().Set("Content-Type", "application/json")
	if herr.RetryAfterMS > 0 {
		secs := (herr.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.WriteHeader(herr.status)
	json.NewEncoder(w).Encode(map[string]wireError{"error": herr.wireError})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// tenantOf resolves the request's tenant: the X-Fdx-Tenant header, or
// "default".
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Fdx-Tenant"); t != "" {
		return t
	}
	return "default"
}

// decodeBody parses the JSON request body, capped by limitBody, into v,
// rejecting unknown fields so typos fail loudly instead of silently
// configuring nothing.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) *httpError {
	if herr := limitBody(w, r); herr != nil {
		return herr
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return bodyError("parsing request body", err)
	}
	return nil
}

// createRequest is the POST /v1/sessions body.
type createRequest struct {
	ID         string         `json:"id"`
	Tenant     string         `json:"tenant,omitempty"`
	Attributes []string       `json:"attributes"`
	Options    SessionOptions `json:"options,omitempty"`
}

// sessionReply describes a session's identity and stream position.
type sessionReply struct {
	ID         string   `json:"id"`
	Tenant     string   `json:"tenant"`
	Attributes []string `json:"attributes"`
	Rows       int      `json:"rows"`
	Batches    int      `json:"batches"`
}

func replyFor(s *session) sessionReply {
	rows, batches := s.stats()
	return sessionReply{ID: s.id, Tenant: s.tenant, Attributes: s.names, Rows: rows, Batches: batches}
}

func (sv *Server) handleCreate(w http.ResponseWriter, r *http.Request) *httpError {
	var req createRequest
	if herr := decodeBody(w, r, &req); herr != nil {
		return herr
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = tenantOf(r)
	}
	if !nameRe.MatchString(tenant) {
		return serveError(http.StatusBadRequest, CodeBadInput, "tenant must match "+nameRe.String())
	}
	if !sv.tenants.AcquireSession(tenant) {
		sv.cfg.Metrics.Counter(obs.Labeled(obs.MServeShed, "tenant", tenant)).Inc()
		return serveError(http.StatusTooManyRequests, CodeQuotaExceeded,
			fmt.Sprintf("tenant %s is at its session quota (%d)", tenant, sv.cfg.Quotas.MaxSessions)).
			withRetry(time.Second)
	}
	s, created, herr := sv.store.create(req.ID, tenant, req.Attributes, req.Options)
	if herr != nil {
		sv.tenants.ReleaseSession(tenant)
		return herr
	}
	status := http.StatusCreated
	if !created {
		// Idempotent re-create of an existing session: give back the slot
		// we optimistically took and answer 200.
		sv.tenants.ReleaseSession(tenant)
		status = http.StatusOK
	}
	sv.cfg.Metrics.Gauge(obs.Labeled(obs.MServeSessions, "tenant", tenant)).
		Set(float64(sv.store.tenantSessions()[tenant]))
	sv.cfg.Log.Info("session_created", "session", s.id, "tenant", tenant, "attributes", len(s.names))
	writeJSON(w, status, replyFor(s))
	return nil
}

func (sv *Server) handleGet(w http.ResponseWriter, r *http.Request) *httpError {
	s, herr := sv.store.get(r.PathValue("id"), tenantOf(r))
	if herr != nil {
		return herr
	}
	writeJSON(w, http.StatusOK, replyFor(s))
	return nil
}

func (sv *Server) handleDelete(w http.ResponseWriter, r *http.Request) *httpError {
	tenant := tenantOf(r)
	if herr := sv.store.remove(r.PathValue("id"), tenant); herr != nil {
		return herr
	}
	sv.tenants.ReleaseSession(tenant)
	sv.cfg.Metrics.Gauge(obs.Labeled(obs.MServeSessions, "tenant", tenant)).
		Set(float64(sv.store.tenantSessions()[tenant]))
	w.WriteHeader(http.StatusNoContent)
	return nil
}

type rowsReply struct {
	Applied bool `json:"applied"`
	Rows    int  `json:"rows"`
	Batches int  `json:"batches"`
}

// handleRows ingests one batch: POST /v1/sessions/{id}/rows with body
// {"seq": N, "rows": [[...], ...]}. Seq is the client's 1-based batch
// sequence number; retrying a batch with the same seq is safe (the
// duplicate is acknowledged without re-absorbing). The body is decoded and
// validated in full (decodeRows) before the batch spends rate tokens.
func (sv *Server) handleRows(w http.ResponseWriter, r *http.Request) *httpError {
	tenant := tenantOf(r)
	s, herr := sv.store.get(r.PathValue("id"), tenant)
	if herr != nil {
		return herr
	}
	body, herr := readBody(w, r)
	if herr != nil {
		return herr
	}
	seq, rel, herr := decodeRows(body.Bytes(), s.names)
	putBody(body)
	if herr != nil {
		return herr
	}
	annotate(r, "seq", seq)
	n := rel.NumRows()
	if ok, retry := sv.tenants.TakeRows(tenant, n); !ok {
		sv.cfg.Metrics.Counter(obs.Labeled(obs.MServeShed, "tenant", tenant)).Inc()
		return serveError(http.StatusTooManyRequests, CodeRateLimited,
			fmt.Sprintf("tenant %s is over its ingest rate (%g rows/s)", tenant, sv.cfg.Quotas.RowsPerSecond)).
			withRetry(retry)
	}
	//fdx:lint-ignore detsource ingest latency metric; never feeds FD scores
	t0 := time.Now()
	applied, herr := s.ingest(rel, seq, sv.cfg.CheckpointEvery)
	if herr != nil {
		return herr
	}
	if applied {
		sv.cfg.Metrics.Counter(obs.Labeled(obs.MServeRows, "tenant", tenant)).Add(uint64(n))
		sv.cfg.Metrics.Counter(obs.Labeled(obs.MServeBatches, "tenant", tenant)).Inc()
		//fdx:lint-ignore detsource ingest latency metric; never feeds FD scores
		sv.cfg.Metrics.HistogramBuckets(obs.Labeled(obs.MServeIngestSeconds, "tenant", tenant), obs.ServeBuckets).
			Observe(time.Since(t0).Seconds())
	}
	rows, batches := s.stats()
	writeJSON(w, http.StatusOK, rowsReply{Applied: applied, Rows: rows, Batches: batches})
	return nil
}

// handleShards applies a shard snapshot shipped by a worker (POST
// /v1/sessions/{id}/shards?seq=N, body application/octet-stream in the
// checkpoint snapshot encoding). Retries with the same seq are
// acknowledged idempotently; a snapshot from an incompatible accumulator
// answers 409 shard_mismatch and a corrupt body 500 corrupt_checkpoint,
// neither touching the session's state.
func (sv *Server) handleShards(w http.ResponseWriter, r *http.Request) *httpError {
	tenant := tenantOf(r)
	s, herr := sv.store.get(r.PathValue("id"), tenant)
	if herr != nil {
		return herr
	}
	seq, err := strconv.Atoi(r.URL.Query().Get("seq"))
	if err != nil || seq < 1 {
		return serveError(http.StatusBadRequest, CodeBadInput, "seq query parameter must be an integer >= 1")
	}
	annotate(r, "seq", seq)
	if herr := limitBody(w, r); herr != nil {
		return herr
	}
	snap, err := io.ReadAll(r.Body)
	if err != nil {
		return bodyError("reading shard snapshot", err)
	}
	applied, herr := s.mergeShard(snap, seq)
	if herr != nil {
		return herr
	}
	if applied {
		sv.cfg.Metrics.Counter(obs.Labeled(obs.MServeShardsMerged, "tenant", tenant)).Inc()
	} else {
		sv.cfg.Metrics.Counter(obs.Labeled(obs.MServeShardDuplicates, "tenant", tenant)).Inc()
	}
	rows, batches := s.stats()
	sv.cfg.Metrics.Gauge(obs.Labeled(obs.MServeShardBatches, "tenant", tenant)).Set(float64(batches))
	writeJSON(w, http.StatusOK, rowsReply{Applied: applied, Rows: rows, Batches: batches})
	return nil
}

// DiscoverResponse carries the full discovery result; B round-trips
// float64 exactly through JSON, so clients can verify bit-identical
// resumption. Exported for ShardClient callers.
type DiscoverResponse struct {
	Attributes []string    `json:"attributes"`
	FDs        []WireFD    `json:"fds"`
	B          [][]float64 `json:"b"`
	Rows       int         `json:"rows"`
	Batches    int         `json:"batches"`
	Degraded   bool        `json:"degraded,omitempty"`
}

// WireFD is one discovered dependency on the wire.
type WireFD struct {
	LHS   []string `json:"lhs"`
	RHS   string   `json:"rhs"`
	Score float64  `json:"score"`
}

func (sv *Server) handleDiscover(w http.ResponseWriter, r *http.Request) *httpError {
	tenant := tenantOf(r)
	s, herr := sv.store.get(r.PathValue("id"), tenant)
	if herr != nil {
		return herr
	}
	if !sv.tenants.AcquireDiscover(tenant) {
		sv.cfg.Metrics.Counter(obs.Labeled(obs.MServeShed, "tenant", tenant)).Inc()
		return serveError(http.StatusTooManyRequests, CodeQuotaExceeded,
			fmt.Sprintf("tenant %s is at its in-flight discover quota (%d)",
				tenant, sv.cfg.Quotas.MaxInflightDiscover)).withRetry(time.Second)
	}
	defer sv.tenants.ReleaseDiscover(tenant)

	clone, herr := s.clone()
	if herr != nil {
		return herr
	}
	// The counts come from the clone, not the live session: an ingest
	// landing after the clone must not make them describe a newer state
	// than the B this reply returns.
	rows, batches := clone.Rows(), clone.Batches()
	job := &discoverJob{ctx: r.Context(), acc: clone, done: make(chan discoverResult, 1)}
	if !sv.queue.submit(job) {
		sv.cfg.Metrics.Counter(obs.Labeled(obs.MServeShed, "tenant", tenant)).Inc()
		return serveError(http.StatusServiceUnavailable, CodeQueueFull,
			"discover queue is full").withRetry(time.Second)
	}
	//fdx:lint-ignore detsource discover latency metric; never feeds FD scores
	t0 := time.Now()
	var out discoverResult
	select {
	case out = <-job.done:
	case <-r.Context().Done():
		return taxonomyError(fdxerr.Cancelled(r.Context().Err()))
	}
	if out.err != nil {
		if errors.Is(out.err, context.DeadlineExceeded) || errors.Is(out.err, context.Canceled) {
			out.err = fdxerr.Cancelled(out.err)
		}
		return taxonomyError(out.err)
	}
	sv.cfg.Metrics.Counter(obs.Labeled(obs.MServeDiscovers, "tenant", tenant)).Inc()
	//fdx:lint-ignore detsource discover latency metric; never feeds FD scores
	sv.cfg.Metrics.HistogramBuckets(obs.Labeled(obs.MServeDiscoverSeconds, "tenant", tenant), obs.ServeBuckets).
		Observe(time.Since(t0).Seconds())
	res := out.res
	reply := DiscoverResponse{
		Attributes: res.Attributes,
		FDs:        make([]WireFD, 0, len(res.FDs)),
		B:          res.B,
		Rows:       rows,
		Batches:    batches,
		Degraded:   res.Diagnostics.Degraded(),
	}
	for _, fd := range res.FDs {
		reply.FDs = append(reply.FDs, WireFD{LHS: fd.LHS, RHS: fd.RHS, Score: fd.Score})
	}
	writeJSON(w, http.StatusOK, reply)
	return nil
}

// Drain performs the graceful-shutdown protocol: stop admitting (route
// sheds with 503 draining), wait up to DrainTimeout for in-flight requests
// and queued discoveries, then checkpoint every session — even on timeout,
// so a forced exit after a wedged drain still loses at most the WAL tail.
// Returns an error if the deadline passed with work still in flight.
func (sv *Server) Drain() error {
	if !sv.draining.CompareAndSwap(false, true) {
		return nil
	}
	sv.cfg.Log.Info("draining", "timeout", sv.cfg.DrainTimeout)
	//fdx:lint-ignore detsource drain duration metric; never feeds FD scores
	t0 := time.Now()
	done := make(chan struct{})
	go func() {
		faults.Sleep(faults.DrainTimeout)
		sv.inflight.Wait()
		sv.queue.close()
		close(done)
	}()
	timer := time.NewTimer(sv.cfg.DrainTimeout)
	defer timer.Stop()
	timedOut := false
	select {
	case <-done:
	case <-timer.C:
		timedOut = true
	}
	var firstErr error
	for _, s := range sv.store.all() {
		if err := s.checkpoint(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("serve: drain checkpoint of session %s: %w", s.id, err)
		}
	}
	sv.store.closeAll()
	//fdx:lint-ignore detsource drain duration metric; never feeds FD scores
	sv.cfg.Metrics.Gauge(obs.MServeDrainSeconds).Set(time.Since(t0).Seconds())
	if firstErr != nil {
		return firstErr
	}
	if timedOut {
		return fmt.Errorf("serve: drain deadline (%s) passed with requests still in flight; sessions checkpointed anyway", sv.cfg.DrainTimeout)
	}
	sv.cfg.Log.Info("drain_complete", "dur", time.Since(t0).Round(time.Millisecond))
	return nil
}
