package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"fdx"
	"fdx/internal/checkpoint"
	"fdx/internal/core"
	"fdx/internal/dataset"
	"fdx/internal/linalg"
	"fdx/internal/metrics"
	"fdx/internal/serve"
)

const (
	// ingestProcs is the GOMAXPROCS the server and its clients share
	// while set-up and the load run: one, so that the workload leaves the
	// second CPU to the kernel and the rest of the machine and a busy
	// neighbour does not take half of its throughput.
	ingestProcs = 1
	// ingestSetups is how many times set-up is timed: each takes a few
	// fsync-bound milliseconds with a long tail, so the median needs
	// many. The last server is the one measured.
	ingestSetups = 101
	// ingestQuiet is how many /discover requests each session gets after
	// the load, one at a time, for discover_s.
	ingestQuiet = 100
	tenant      = "bench"
)

// server is fdxd in this process: serve.New over a data directory,
// mounted on a loopback listener.
type server struct {
	dir    string
	base   string
	sv     *serve.Server
	hs     *http.Server
	served chan error
}

// startServer is the ingest workload's set-up: a server over a fresh
// data directory, its listener, and one session per client.
func startServer(dir string, attrs []string) (*server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sv, err := serve.New(serve.Config{DataDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, base: "http://" + ln.Addr().String(), sv: sv, hs: sv.HTTPServer(ln.Addr().String()), served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for c := 0; c < ingestClients; c++ {
		body, err := json.Marshal(map[string]any{"id": sessionID(c), "attributes": attrs})
		if err != nil {
			return nil, err
		}
		if err := post(hc, s.base+"/v1/sessions", body, nil); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// close drains the server, stops its listener, waits for it, and removes
// its data directory.
func (s *server) close() error {
	err := s.sv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := s.hs.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

func sessionID(c int) string { return fmt.Sprintf("s%d", c) }

// newHTTPClient returns a client holding at most one connection.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// post sends a JSON body and decodes a 200 or 201 reply into out (when
// non-nil).
func post(hc *http.Client, url string, body []byte, out any) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Fdx-Tenant", tenant)
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// rowsRequest and rowsReply mirror the /rows wire format.
type rowsRequest struct {
	Seq  int        `json:"seq"`
	Rows [][]string `json:"rows"`
}

type rowsReply struct {
	Applied bool `json:"applied"`
	Rows    int  `json:"rows"`
	Batches int  `json:"batches"`
}

// client is one closed-loop ingest client with its own session and
// connection: it POSTs a batch, waits for the ack, and after every 16th
// batch POSTs /discover.
type client struct {
	in   *ingestInput
	base string
	id   int
	hc   *http.Client

	seq       int // batches acknowledged
	rowsLat   []float64
	discLat   []float64
	cycleAt   time.Time // when the current 16-batch cycle began
	cycles    []float64 // seconds per completed cycle, its /discover included
	last      *serve.DiscoverResponse
	attempted int
	failures  []error
}

func (c *client) url(op string) string {
	return fmt.Sprintf("%s/v1/sessions/%s/%s", c.base, sessionID(c.id), op)
}

// loop runs the client until the deadline, and at least until it has
// sent one /discover, timing each request. When rep is non-nil it repeats
// each request's layers in traced calls after the ack.
func (c *client) loop(deadline time.Time, rep *replica) {
	c.cycleAt = time.Now()
	for n := 0; n < discoverEvery || time.Now().Before(deadline); n++ {
		c.batch(rep)
	}
}

func (c *client) batch(rep *replica) {
	seq := c.seq + 1
	body := c.in.rowsBody(seq)
	var reply rowsReply
	t0 := time.Now()
	err := post(c.hc, c.url("rows"), body, &reply)
	lat := time.Since(t0).Seconds()
	if err == nil && (!reply.Applied || reply.Rows != seq*batchRows) {
		err = fmt.Errorf("session %d batch %d: ack %+v, want %d rows applied", c.id, seq, reply, seq*batchRows)
	}
	c.record(err)
	if err != nil {
		return
	}
	c.seq = seq
	c.rowsLat = append(c.rowsLat, lat)
	if rep != nil {
		c.record(rep.batch(body))
	}
	if seq%discoverEvery == 0 {
		if lat, ok := c.discover(rep); ok {
			now := time.Now()
			c.discLat = append(c.discLat, lat)
			c.cycles = append(c.cycles, now.Sub(c.cycleAt).Seconds())
			c.cycleAt = now
		}
	}
}

// discover POSTs /discover and returns its round trip; ok is false when
// it failed.
func (c *client) discover(rep *replica) (lat float64, ok bool) {
	var resp serve.DiscoverResponse
	t0 := time.Now()
	err := post(c.hc, c.url("discover"), nil, &resp)
	lat = time.Since(t0).Seconds()
	if err == nil && resp.Rows != c.seq*batchRows {
		err = fmt.Errorf("session %d discover covers %d rows, want %d", c.id, resp.Rows, c.seq*batchRows)
	}
	c.record(err)
	if err != nil {
		return 0, false
	}
	c.last = &resp
	if rep != nil {
		c.record(rep.discover())
	}
	return lat, true
}

// quietDiscovers times ingestQuiet /discover requests per session, the
// sessions taking turns, so that no other request is in flight.
func quietDiscovers(clients []*client) []float64 {
	var lats []float64
	for range ingestQuiet {
		for _, c := range clients {
			if lat, ok := c.discover(nil); ok {
				lats = append(lats, lat)
			}
		}
	}
	return lats
}

func (c *client) record(err error) {
	c.attempted++
	if err != nil {
		c.failures = append(c.failures, err)
	}
}

// verify checks the session's final /discover against an in-process
// fdx.Accumulator fed the same batches: B must be bit-identical and the
// FD lists equal. It returns the served FDs.
func (c *client) verify() ([]namedFD, error) {
	if c.last == nil || c.last.Rows != c.seq*batchRows {
		return nil, fmt.Errorf("session %d has no discover covering all %d batches", c.id, c.seq)
	}
	acc := fdx.NewAccumulator(c.in.attrs, fdx.Options{})
	for seq := 1; seq <= c.seq; seq++ {
		rel := fdx.NewRelation("wire", c.in.attrs...)
		for _, row := range c.in.batches[c.in.batchIndex(seq)] {
			if err := rel.AppendRow(row); err != nil {
				return nil, err
			}
		}
		if err := acc.Add(rel); err != nil {
			return nil, err
		}
	}
	want, err := acc.Discover()
	if err != nil {
		return nil, err
	}
	found := make([]namedFD, len(c.last.FDs))
	for i, fd := range c.last.FDs {
		found[i] = namedFD{fd.LHS, fd.RHS}
	}
	got := fingerprint(fdLines(found), len(c.last.B), func(i, j int) float64 { return c.last.B[i][j] })
	ref := fingerprint(fdLines(wireFDs(want.FDs)), len(want.B), func(i, j int) float64 { return want.B[i][j] })
	if err := compare(fmt.Sprintf("session %d final discover vs in-process accumulator", c.id), got, ref); err != nil {
		return nil, err
	}
	return found, nil
}

func fdLines(fds []namedFD) []string {
	out := make([]string, len(fds))
	for i, fd := range fds {
		out[i] = fdx.FD{LHS: fd.lhs, RHS: fd.rhs}.String()
	}
	return out
}

// phase runs every client until the deadline and returns when all have
// stopped, with the time the last one did.
func phase(clients []*client, deadline time.Time, reps []*replica) time.Time {
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(deadline, reps[i])
		}()
	}
	wg.Wait()
	return time.Now()
}

// runIngest measures the ingest workload.
func runIngest(r *run) error {
	ins := make([]*ingestInput, ingestClients)
	for c := range ins {
		in, err := genIngest(r.seed, c)
		if err != nil {
			return err
		}
		ins[c] = in
	}
	procs := runtime.GOMAXPROCS(ingestProcs)
	defer runtime.GOMAXPROCS(procs)
	setups := 1
	if !r.trace {
		setups = ingestSetups
	}
	var (
		srv   *server
		times []float64
		err   error
	)
	for i := 0; i < setups; i++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		srv, err = startServer(filepath.Join(r.out, fmt.Sprintf("ingest-%d-%d", os.Getpid(), i)), ins[0].attrs)
		if err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}

	clients := make([]*client, ingestClients)
	for i := range clients {
		clients[i] = &client{in: ins[i], base: srv.base, id: i, hc: newHTTPClient()}
	}
	reps := make([]*replica, ingestClients)
	measured := r.seconds
	if r.trace {
		measured /= 2
	}
	var rss *rssSampler
	if !r.trace {
		rss = sampleRSS(time.Second)
	}
	a0 := totalAlloc()
	start := time.Now()
	end := phase(clients, start.Add(time.Duration(measured*float64(time.Second))), reps)
	alloc := float64(totalAlloc() - a0)
	rows, rowsLat, discLat, cycles := 0, []float64(nil), []float64(nil), []float64(nil)
	for _, c := range clients {
		// A client's first cycle warms its connection and the heap; a
		// short run keeps it when there is no other.
		cycles = append(cycles, c.cycles[max(0, min(1, len(c.cycles)-1)):]...)
		rows += c.seq * batchRows
		rowsLat = append(rowsLat, c.rowsLat...)
		discLat = append(discLat, c.discLat...)
	}

	if r.trace {
		err = traceIngest(r, clients, rowsLat, discLat)
	} else {
		var peaks []float64
		var reset bool
		if peaks, reset, err = rss.finish(); err == nil {
			setEndToEndIngest(r, times, rows, end.Sub(start).Seconds(), alloc, rowsLat, discLat, cycles, quietDiscovers(clients), peaks)
			if !reset {
				r.note("the kernel refused to reset the RSS high-water mark: peak_rss_mb includes set-up and earlier seconds")
			}
		}
	}
	if err != nil {
		srv.close()
		return err
	}
	runtime.GOMAXPROCS(procs)

	// The replays are independent; running them side by side halves the
	// time the check adds to the run.
	served := make([][]namedFD, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		c.discover(nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fds, err := c.verify()
			c.record(err)
			served[i] = fds
		}()
	}
	wg.Wait()
	for _, c := range clients {
		c.hc.CloseIdleConnections()
		r.attempted += c.attempted
		for _, f := range c.failures {
			r.failures = append(r.failures, f.Error())
		}
	}
	if !r.trace {
		r.note("f1 %.4f: FD recovery of both sessions' final /discover, pooled, against the planted truth", pooledF1(clients, served))
	}
	return srv.close()
}

// pooledF1 scores both sessions' served FDs together, each session's
// attributes shifted to their own index range, since each streams its
// own instance.
func pooledF1(clients []*client, served [][]namedFD) float64 {
	var truth, found []core.FD
	for i, c := range clients {
		off := i * ingestAttrs
		found = append(found, indexed(c.in.attrs, served[i], off)...)
		for _, fd := range c.in.truth {
			fd.LHS = slices.Clone(fd.LHS)
			for j := range fd.LHS {
				fd.LHS[j] += off
			}
			fd.RHS += off
			truth = append(truth, fd)
		}
	}
	return metrics.Evaluate(truth, found, false).F1
}

// setEndToEndIngest records the untraced run's metrics.
func setEndToEndIngest(r *run, setups []float64, rows int, elapsed, alloc float64, rowsLat, discLat, cycles, quiet, peaks []float64) {
	r.set("discover_s", median(quiet))
	r.set("rows_per_s", ingestClients*discoverEvery*batchRows/median(cycles))
	r.set("alloc_mb", alloc/float64(max(1, len(discLat)))/1e6)
	r.set("peak_rss_mb", median(peaks)/1e6)
	r.set("setup_s", median(setups))
	r.note("peak_rss_mb is the median of %d one-second RSS high-water marks under load, the highest %.4g MB", len(peaks), slices.Max(peaks)/1e6)
	r.note("rows_per_s is %d clients' rows per cycle (%d batches and a /discover) over the median of %d cycles; %.1f rows/s over the whole load", ingestClients, discoverEvery, len(cycles), float64(rows)/elapsed)
	r.note("discover_s is the median /discover round trip of %d after the load, one request at a time; alloc_mb is per %d-batch cycle ending in a /discover", len(quiet), discoverEvery)
	r.note("ingest_p50_ms %.4f ms, ingest_p99_ms %.4f ms over %d /rows requests", 1e3*percentile(rowsLat, 50), 1e3*percentile(rowsLat, 99), len(rowsLat))
	if len(rowsLat) < 1000 {
		r.note("fewer than 1000 /rows requests: ingest_p99_ms rests on %d samples", len(rowsLat))
	}
	r.note("serve_discover_p50_ms %.4f ms under load, over %d /discover requests", 1e3*median(discLat), len(discLat))
	if q, v, n, ok := tail(discLat); ok {
		r.note("serve_discover_tail_ms %.4f ms at p%d, %d samples beyond", 1e3*v, q, n)
	} else {
		r.note("serve_discover_tail_ms: fewer than 11 /discover samples")
	}
	q := quartiles(setups)
	r.note("set-up (serve.New, listener, %d sessions): median of %d, quartiles %.4g s", ingestClients, len(setups), q)
}

// traceIngest runs the traced half of the ingest run: each client repeats
// every acknowledged request's layers in traced calls on its own replica
// (decode, relation build, absorb, WAL append, every 16th batch a
// checkpoint save; per /discover the snapshot clone and the accumulator's
// discover, then the model stage call by call). rowsLat and discLat are
// the untraced half's latencies.
func traceIngest(r *run, clients []*client, rowsLat, discLat []float64) error {
	tr := newTracer(fmt.Sprintf("%s-seed%d", r.workload, r.seed))
	dir := filepath.Join(r.out, fmt.Sprintf("replica-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	reps := make([]*replica, len(clients))
	for i := range reps {
		rep, err := newReplica(tr, filepath.Join(dir, sessionID(i)), clients[i].in.attrs)
		if err != nil {
			return err
		}
		defer rep.wal.Close()
		reps[i] = rep
	}
	marks := make([][2]int, len(clients))
	for i, c := range clients {
		marks[i] = [2]int{len(c.rowsLat), len(c.discLat)}
	}
	phase(clients, time.Now().Add(time.Duration(r.seconds/2*float64(time.Second))), reps)
	var tRows, tDisc []float64
	for i, c := range clients {
		tRows = append(tRows, c.rowsLat[marks[i][0]:]...)
		tDisc = append(tDisc, c.discLat[marks[i][1]:]...)
	}

	rowsRoots, discRoots := tr.byRoot("rows"), tr.byRoot("discover")
	decode := medianSelf(rowsRoots, "serve.decode")
	parse := medianSelf(rowsRoots, "dataset.parse")
	absorb := medianSelf(rowsRoots, "core.absorb")
	wal := medianSelf(rowsRoots, "checkpoint.wal_append")
	clone := medianSelf(discRoots, "serve.clone")
	disc := medianTotal(discRoots, "core.discover")
	model := medianSelf(discRoots, "core.model")
	in := clients[0].in
	cells := 0
	for _, b := range in.batches {
		for _, row := range b {
			for _, v := range row {
				cells += len(v)
			}
		}
	}
	r.set("serve.decode_ms", 1e3*decode)
	r.set("dataset.parse_s", parse)
	r.set("dataset.parse_mb_per_s", float64(cells)/float64(len(in.batches))/1e6/parse)
	r.set("core.absorb_ms", 1e3*absorb)
	r.set("checkpoint.wal_append_ms", 1e3*wal)
	r.set("checkpoint.save_ms", 1e3*medianSelf(rowsRoots, "checkpoint.save"))
	r.set("serve.clone_ms", 1e3*clone)
	r.set("core.discover_ms", 1e3*disc)
	r.set("core.model_s", model)
	var walBytes, snapBytes int
	var parts *partsOut
	for _, rep := range reps {
		walBytes, snapBytes = max(walBytes, rep.walBytes), max(snapBytes, rep.snapBytes)
		if rep.parts != nil {
			parts = rep.parts
		}
	}
	if parts == nil {
		return errors.New("traced ingest phase ran no /discover")
	}
	r.set("checkpoint.wal_bytes", float64(walBytes))
	r.set("checkpoint.snapshot_bytes", float64(snapBytes))
	partsRoots := tr.byRoot("model-parts")
	setParts(r, partsRoots, parts)
	checkParts(r, partsRoots, model)

	request := median(tRows)
	layers := decode + parse + absorb + wal
	r.set("serve.unattributed_ms", 1e3*(request-layers))
	r.set("attributed_ratio", layers/request)
	r.set("unattributed_s", median(tDisc)-clone-disc)
	r.set("trace.overhead_ratio", request/median(rowsLat)-1)
	r.note("/rows p50 %.4f ms traced, %.4f ms untraced; layers decode+parse+absorb+wal %.4f ms", 1e3*request, 1e3*median(rowsLat), 1e3*layers)
	r.note("/discover p50 %.4f ms traced, %.4f ms untraced; clone+discover %.4f ms", 1e3*median(tDisc), 1e3*median(discLat), 1e3*(clone+disc))
	for _, n := range []string{
		"core.transform_s", "core.transform_pairs", "core.transform_mb", "stats.covariance_s",
		"stats.covariance_gflop", "stats.covariance_gflops", "core.transform_workers_speedup", "glasso.solve_workers_speedup",
	} {
		r.set(n, 0)
	}
	return tr.write(r.out)
}

// replica repeats, inside traced calls from this program, the layers a
// session's requests pass through in the server: the server itself is
// not instrumented.
type replica struct {
	tr    *tracer
	names []string
	opts  core.Options
	fp    uint64
	path  string
	acc   *core.Accumulator
	wal   *checkpoint.WAL

	batches   int
	walBytes  int
	snapBytes int
	parts     *partsOut
}

func newReplica(tr *tracer, path string, names []string) (*replica, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	wal, err := checkpoint.OpenWAL(path + checkpoint.WALSuffix)
	if err != nil {
		return nil, err
	}
	opts := core.Options{}
	return &replica{
		tr: tr, names: names, opts: opts, fp: checkpoint.Fingerprint(opts), path: path,
		acc: core.NewAccumulator(names, opts), wal: wal,
	}, nil
}

// batch repeats one /rows request: decode the body, build the relation,
// absorb it, append its delta to the WAL, and every 16th batch save a
// checkpoint and reset the WAL.
func (p *replica) batch(body []byte) error {
	tr := p.tr
	root := tr.start("rows", 0)
	defer tr.end(root)
	var (
		req rowsRequest
		rel *dataset.Relation
		d   *core.BatchDelta
		err error
	)
	tr.timed("serve.decode", root, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return err
	}
	tr.timed("dataset.parse", root, func() {
		rel = dataset.New("wire", p.names...)
		for _, row := range req.Rows {
			if err = rel.AppendRow(row); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	tr.timed("core.absorb", root, func() { d, err = p.acc.Absorb(rel) })
	if err != nil {
		return err
	}
	tr.timed("checkpoint.wal_append", root, func() { p.walBytes, err = p.wal.Append(d) })
	if err != nil {
		return err
	}
	if p.batches++; p.batches%discoverEvery == 0 {
		tr.timed("checkpoint.save", root, func() {
			var n int64
			if n, err = checkpoint.Save(p.path, p.acc.State(), p.fp); err == nil {
				p.snapBytes = int(n)
				err = p.wal.Reset()
			}
		})
	}
	return err
}

// discover repeats one /discover request: clone the accumulator through a
// snapshot, then its discover as the two calls it makes (pool the
// covariance, run the model stage), then the model stage call by call.
func (p *replica) discover() error {
	tr := p.tr
	root := tr.start("discover", 0)
	var (
		clone *core.Accumulator
		s     *linalg.Dense
		m     *core.Model
		err   error
	)
	tr.timed("serve.clone", root, func() {
		var buf bytes.Buffer
		if err = checkpoint.WriteSnapshot(&buf, p.acc.State(), p.fp); err != nil {
			return
		}
		var st *core.AccumulatorState
		if st, _, err = checkpoint.ReadSnapshot(&buf); err == nil {
			clone, err = core.NewAccumulatorFromState(st, p.opts)
		}
	})
	if err == nil {
		disc := tr.start("core.discover", root)
		tr.timed("core.covariance", disc, func() { s, err = clone.Covariance() })
		if err == nil {
			tr.timed("core.model", disc, func() { m, err = core.DiscoverFromCovarianceContext(context.Background(), s, p.names, p.opts) })
		}
		tr.end(disc)
	}
	tr.end(root)
	if err != nil {
		return err
	}
	parts, err := modelParts(tr, s, p.names)
	if err != nil {
		return err
	}
	p.parts = parts
	return sameFDs(p.names, parts.fds, m.FDs)
}
