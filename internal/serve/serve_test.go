package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newServer builds a Server over a temp data dir with test-friendly
// defaults; mod tweaks the config before New.
func newServer(t *testing.T, mod func(*Config)) *Server {
	t.Helper()
	cfg := Config{DataDir: t.TempDir(), RequestTimeout: 30 * time.Second}
	if mod != nil {
		mod(&cfg)
	}
	sv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sv
}

// do runs one request through the server's handler and decodes the JSON
// response body (when there is one).
func do(t *testing.T, sv *Server, method, path, tenant string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	if tenant != "" {
		req.Header.Set("X-Fdx-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, req)
	var decoded map[string]any
	if raw := rec.Body.Bytes(); len(raw) > 0 && strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("%s %s: undecodable JSON body %q: %v", method, path, raw, err)
		}
	}
	return rec, decoded
}

// errCode extracts the taxonomy code from an error envelope, failing the
// test if the envelope is malformed.
func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("response is not an error envelope: %v", body)
	}
	code, _ := e["code"].(string)
	if !KnownCode(code) {
		t.Fatalf("error code %q is outside the wire taxonomy", code)
	}
	return code
}

// genRows produces deterministic categorical rows over three attributes
// with b functionally determined by a.
func genRows(n, offset int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		v := offset + i
		rows[i] = []string{
			fmt.Sprintf("a%d", v%5),
			fmt.Sprintf("b%d", (v%5)*2),
			fmt.Sprintf("c%d", v%3),
		}
	}
	return rows
}

var testAttrs = []string{"a", "b", "c"}

func createSession(t *testing.T, sv *Server, id, tenant string) {
	t.Helper()
	rec, body := do(t, sv, "POST", "/v1/sessions", tenant,
		createRequest{ID: id, Attributes: testAttrs})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create %s: status %d, body %v", id, rec.Code, body)
	}
}

func ingest(t *testing.T, sv *Server, id, tenant string, seq, n, offset int) map[string]any {
	t.Helper()
	rec, body := do(t, sv, "POST", "/v1/sessions/"+id+"/rows", tenant,
		rowsRequest{Seq: seq, Rows: genRows(n, offset)})
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest seq %d: status %d, body %v", seq, rec.Code, body)
	}
	return body
}

func TestServeLifecycle(t *testing.T) {
	sv := newServer(t, nil)

	createSession(t, sv, "s1", "acme")

	// Idempotent re-create answers 200 with the same session.
	rec, _ := do(t, sv, "POST", "/v1/sessions", "acme", createRequest{ID: "s1", Attributes: testAttrs})
	if rec.Code != http.StatusOK {
		t.Fatalf("re-create: status %d, want 200", rec.Code)
	}
	// Re-create with different attributes is a conflict.
	rec, body := do(t, sv, "POST", "/v1/sessions", "acme",
		createRequest{ID: "s1", Attributes: []string{"x", "y"}})
	if rec.Code != http.StatusConflict || errCode(t, body) != CodeConflict {
		t.Fatalf("mismatched re-create: status %d code %v", rec.Code, body)
	}

	body = ingest(t, sv, "s1", "acme", 1, 40, 0)
	if body["applied"] != true || body["batches"] != float64(1) {
		t.Fatalf("first batch: %v", body)
	}
	// Duplicate seq is acknowledged without re-applying.
	body = ingest(t, sv, "s1", "acme", 1, 40, 0)
	if body["applied"] != false || body["batches"] != float64(1) {
		t.Fatalf("duplicate batch: %v", body)
	}
	// A gap is a conflict.
	rec, body = do(t, sv, "POST", "/v1/sessions/s1/rows", "acme",
		rowsRequest{Seq: 5, Rows: genRows(4, 0)})
	if rec.Code != http.StatusConflict || errCode(t, body) != CodeConflict {
		t.Fatalf("gap: status %d body %v", rec.Code, body)
	}

	ingest(t, sv, "s1", "acme", 2, 40, 40)

	rec, body = do(t, sv, "GET", "/v1/sessions/s1", "acme", nil)
	if rec.Code != http.StatusOK || body["rows"] != float64(80) || body["batches"] != float64(2) {
		t.Fatalf("get: status %d body %v", rec.Code, body)
	}

	rec, body = do(t, sv, "POST", "/v1/sessions/s1/discover", "acme", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("discover: status %d body %v", rec.Code, body)
	}
	if _, ok := body["b"].([]any); !ok {
		t.Fatalf("discover reply has no B matrix: %v", body)
	}
	if _, ok := body["fds"].([]any); !ok {
		t.Fatalf("discover reply has no fds: %v", body)
	}

	rec, _ = do(t, sv, "DELETE", "/v1/sessions/s1", "acme", nil)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", rec.Code)
	}
	rec, body = do(t, sv, "GET", "/v1/sessions/s1", "acme", nil)
	if rec.Code != http.StatusNotFound || errCode(t, body) != CodeNotFound {
		t.Fatalf("get after delete: status %d body %v", rec.Code, body)
	}
}

func TestServeTenantIsolation(t *testing.T) {
	sv := newServer(t, nil)
	createSession(t, sv, "s1", "acme")
	// Another tenant cannot see, feed, or delete the session.
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/sessions/s1"},
		{"DELETE", "/v1/sessions/s1"},
		{"POST", "/v1/sessions/s1/discover"},
	} {
		rec, body := do(t, sv, probe.method, probe.path, "rival", nil)
		if rec.Code != http.StatusNotFound || errCode(t, body) != CodeNotFound {
			t.Errorf("%s %s as rival: status %d body %v", probe.method, probe.path, rec.Code, body)
		}
	}
}

func TestServeSessionQuota(t *testing.T) {
	sv := newServer(t, func(c *Config) { c.Quotas.MaxSessions = 1 })
	createSession(t, sv, "s1", "acme")
	rec, body := do(t, sv, "POST", "/v1/sessions", "acme", createRequest{ID: "s2", Attributes: testAttrs})
	if rec.Code != http.StatusTooManyRequests || errCode(t, body) != CodeQuotaExceeded {
		t.Fatalf("over-quota create: status %d body %v", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	// Another tenant is unaffected.
	createSession(t, sv, "s3", "other")
	// Deleting frees the slot.
	do(t, sv, "DELETE", "/v1/sessions/s1", "acme", nil)
	createSession(t, sv, "s2", "acme")
}

func TestServeIngestRateLimit(t *testing.T) {
	sv := newServer(t, func(c *Config) { c.Quotas.RowsPerSecond = 50 })
	createSession(t, sv, "s1", "acme")
	ingest(t, sv, "s1", "acme", 1, 50, 0) // drains the burst
	rec, body := do(t, sv, "POST", "/v1/sessions/s1/rows", "acme",
		rowsRequest{Seq: 2, Rows: genRows(10, 50)})
	if rec.Code != http.StatusTooManyRequests || errCode(t, body) != CodeRateLimited {
		t.Fatalf("over-rate ingest: status %d body %v", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if e := body["error"].(map[string]any); e["retry_after_ms"] == nil {
		t.Error("429 body without retry_after_ms")
	}
	// A different tenant's bucket is untouched.
	createSession(t, sv, "s2", "other")
	ingest(t, sv, "s2", "other", 1, 50, 0)
}

func TestServeDiscoverInflightQuota(t *testing.T) {
	sv := newServer(t, func(c *Config) { c.Quotas.MaxInflightDiscover = 1 })
	createSession(t, sv, "s1", "acme")
	ingest(t, sv, "s1", "acme", 1, 40, 0)
	// Occupy the tenant's single slot directly, then observe the shed.
	if !sv.tenants.AcquireDiscover("acme") {
		t.Fatal("could not take the discover slot")
	}
	rec, body := do(t, sv, "POST", "/v1/sessions/s1/discover", "acme", nil)
	if rec.Code != http.StatusTooManyRequests || errCode(t, body) != CodeQuotaExceeded {
		t.Fatalf("over-quota discover: status %d body %v", rec.Code, body)
	}
	sv.tenants.ReleaseDiscover("acme")
	rec, body = do(t, sv, "POST", "/v1/sessions/s1/discover", "acme", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("discover after release: status %d body %v", rec.Code, body)
	}
}

func TestServeBadInput(t *testing.T) {
	sv := newServer(t, nil)
	createSession(t, sv, "s1", "acme")
	cases := []struct {
		name         string
		method, path string
		body         any
		wantStatus   int
		wantCode     string
	}{
		{"bad id", "POST", "/v1/sessions", createRequest{ID: "no/slash", Attributes: testAttrs}, 400, CodeBadInput},
		{"one attribute", "POST", "/v1/sessions", createRequest{ID: "s9", Attributes: []string{"a"}}, 400, CodeBadInput},
		{"unknown field", "POST", "/v1/sessions", map[string]any{"id": "s9", "attrs": []string{"a", "b"}}, 400, CodeBadInput},
		{"seq zero", "POST", "/v1/sessions/s1/rows", rowsRequest{Seq: 0, Rows: genRows(4, 0)}, 400, CodeBadInput},
		{"no rows", "POST", "/v1/sessions/s1/rows", rowsRequest{Seq: 1}, 400, CodeBadInput},
		{"row arity", "POST", "/v1/sessions/s1/rows", rowsRequest{Seq: 1, Rows: [][]string{{"x"}, {"y"}}}, 400, CodeBadInput},
		{"missing session", "POST", "/v1/sessions/ghost/rows", rowsRequest{Seq: 1, Rows: genRows(4, 0)}, 404, CodeNotFound},
	}
	for _, c := range cases {
		rec, body := do(t, sv, c.method, c.path, "acme", c.body)
		if rec.Code != c.wantStatus || errCode(t, body) != c.wantCode {
			t.Errorf("%s: status %d body %v, want %d %s", c.name, rec.Code, body, c.wantStatus, c.wantCode)
		}
	}
	// A syntactically broken body is bad_input too.
	req := httptest.NewRequest("POST", "/v1/sessions", strings.NewReader("{nope"))
	rec := httptest.NewRecorder()
	sv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("broken JSON: status %d, want 400", rec.Code)
	}
}

// TestServeCreateRejectsWorkersOption: the session wire options carry no
// worker count, so a create body that sends one names an unknown field
// and is bad input like any other.
func TestServeCreateRejectsWorkersOption(t *testing.T) {
	sv := newServer(t, nil)
	rec, body := do(t, sv, "POST", "/v1/sessions", "acme", map[string]any{
		"id": "s1", "attributes": testAttrs, "options": map[string]any{"workers": 2},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("create with options.workers: status %d body %v, want 400 %s", rec.Code, body, CodeBadInput)
	}
	if code := errCode(t, body); code != CodeBadInput {
		t.Errorf("create with options.workers: code %s, want %s", code, CodeBadInput)
	}
}

func TestServeDrainSheds(t *testing.T) {
	sv := newServer(t, func(c *Config) { c.DrainTimeout = time.Second })
	createSession(t, sv, "s1", "acme")
	ingest(t, sv, "s1", "acme", 1, 40, 0)
	if err := sv.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Every API request is shed with a typed 503 and a Retry-After.
	rec, body := do(t, sv, "POST", "/v1/sessions/s1/rows", "acme",
		rowsRequest{Seq: 2, Rows: genRows(4, 40)})
	if rec.Code != http.StatusServiceUnavailable || errCode(t, body) != CodeDraining {
		t.Fatalf("ingest during drain: status %d body %v", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After header")
	}
	rec, _ = do(t, sv, "GET", "/healthz", "", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status %d, want 503", rec.Code)
	}
	// Drain is idempotent.
	if err := sv.Drain(); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
	// Metrics stay readable during/after drain.
	rec, _ = do(t, sv, "GET", "/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Errorf("metrics during drain: status %d", rec.Code)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	sv := newServer(t, nil)
	createSession(t, sv, "s1", "acme")
	ingest(t, sv, "s1", "acme", 1, 40, 0)
	rec, body := do(t, sv, "POST", "/v1/sessions/s1/discover", "acme", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("discover: status %d body %v", rec.Code, body)
	}
	rec, _ = do(t, sv, "GET", "/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	out := rec.Body.String()
	for _, want := range []string{
		`fdx_serve_rows_total{tenant="acme"} 40`,
		`fdx_serve_batches_total{tenant="acme"} 1`,
		`fdx_serve_discover_total{tenant="acme"} 1`,
		`fdx_serve_sessions{tenant="acme"} 1`,
		`fdx_serve_ingest_seconds_count{tenant="acme"} 1`,
		`fdx_serve_discover_seconds_count{tenant="acme"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestServeRequestTimeout(t *testing.T) {
	// A deadline that expires before the worker picks the job up surfaces
	// as the timeout code, not a hang: one queue worker is busy with a job
	// whose own context is alive, so the second request waits in queue
	// until its 50ms deadline passes.
	sv := newServer(t, func(c *Config) {
		c.DiscoverWorkers = 1
		c.RequestTimeout = 50 * time.Millisecond
	})
	createSession(t, sv, "s1", "acme")
	ingest(t, sv, "s1", "acme", 1, 200, 0)
	rec, body := do(t, sv, "POST", "/v1/sessions/s1/discover", "acme", nil)
	// Tiny data usually finishes inside 50ms; either a success or a
	// typed timeout is acceptable here — what must not happen is an
	// untyped error.
	if rec.Code != http.StatusOK && rec.Code != http.StatusGatewayTimeout {
		if errCode(t, body) == "" {
			t.Fatalf("discover under deadline: status %d body %v", rec.Code, body)
		}
	}
}
