package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"fdx"
	"fdx/internal/faults"
	"fdx/internal/fdxerr"
	"fdx/internal/obs"
	"fdx/internal/serve/retry"
)

// ShardClient ships shard snapshots to an fdxd session and fetches the
// merged discovery result. Every call runs under the client's retry
// policy with a per-request deadline: transport failures, 429s, and 5xx
// responses are retried with capped exponential backoff (a server-named
// Retry-After overrides the schedule), while 4xx protocol errors fail
// immediately — re-sending the same bytes cannot fix a shard_mismatch.
type ShardClient struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Tenant rides the X-Fdx-Tenant header; empty means the server's
	// default tenant.
	Tenant string
	// HTTPClient overrides http.DefaultClient (tests inject transports).
	HTTPClient *http.Client
	// RequestTimeout bounds each individual attempt. Default 30s.
	RequestTimeout time.Duration
	// Retry paces re-attempts; the zero value uses the package defaults.
	Retry retry.Policy
	// Metrics, when set, counts retried requests (obs.MShardShipRetries).
	Metrics *fdx.Metrics
	// Obs, when it carries a tracer or parent span, records one client
	// span per attempt, injects its identity as a W3C `traceparent`
	// header, and grafts the server's echoed span (X-Fdx-Trace) back in —
	// so the caller's trace file shows both sides of the HTTP hop under
	// one trace id.
	Obs obs.Hooks
}

// RemoteError is a non-2xx response decoded from the wire-error envelope.
// Unwrap maps the taxonomy code back onto the fdxerr sentinel it came
// from, so errors.Is works across the HTTP hop.
type RemoteError struct {
	Status  int
	Code    string
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("serve: remote %d %s: %s", e.Status, e.Code, e.Message)
}

func (e *RemoteError) Unwrap() error {
	switch e.Code {
	case CodeBadInput:
		return fdxerr.ErrBadInput
	case CodeShardMismatch:
		return fdxerr.ErrShardMismatch
	case CodeCorruptCheckpoint:
		return fdxerr.ErrCorruptCheckpoint
	case CodeCheckpointVersion:
		return fdxerr.ErrCheckpointVersion
	case CodeTimeout:
		return fdxerr.ErrCancelled
	case CodeNotConverged:
		return fdxerr.ErrNotConverged
	case CodeSingular:
		return fdxerr.ErrSingularCovariance
	case CodeNonPositivePivot:
		return fdxerr.ErrNonPositivePivot
	case CodeInternal:
		return fdxerr.ErrInternal
	}
	return nil
}

// CreateSession creates (or idempotently re-creates) a session.
func (c *ShardClient) CreateSession(ctx context.Context, id string, attrs []string, opts SessionOptions) error {
	body, err := json.Marshal(createRequest{ID: id, Attributes: attrs, Options: opts})
	if err != nil {
		return err
	}
	return c.call(ctx, "create", http.MethodPost, "/v1/sessions", "application/json", body, nil)
}

// ShipShard sends one shard snapshot (checkpoint snapshot encoding) at the
// given 1-based sequence number. applied reports whether the merge changed
// the session's state; false means the server already held that coverage —
// the normal answer to a retried ship.
func (c *ShardClient) ShipShard(ctx context.Context, id string, seq int, snapshot []byte) (applied bool, err error) {
	var reply rowsReply
	path := fmt.Sprintf("/v1/sessions/%s/shards?seq=%d", id, seq)
	if err := c.call(ctx, "ship", http.MethodPost, path, "application/octet-stream", snapshot, &reply); err != nil {
		return false, err
	}
	return reply.Applied, nil
}

// Discover runs discovery on the session's merged state.
func (c *ShardClient) Discover(ctx context.Context, id string) (*DiscoverResponse, error) {
	var reply DiscoverResponse
	if err := c.call(ctx, "discover", http.MethodPost, "/v1/sessions/"+id+"/discover", "application/json", nil, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// call runs one request under the retry policy.
func (c *ShardClient) call(ctx context.Context, op, method, path, contentType string, body []byte, out any) error {
	p := c.Retry
	userNotify := p.Notify
	p.Notify = func(attempt int, wait time.Duration, err error) {
		if c.Metrics != nil {
			c.Metrics.Counter(obs.MShardShipRetries).Inc()
		}
		if userNotify != nil {
			userNotify(attempt, wait, err)
		}
	}
	return p.Do(ctx, func(attempt int) (time.Duration, error) {
		return c.once(ctx, op, attempt, method, path, contentType, body, out)
	})
}

// once performs a single attempt, classifying the outcome for the retry
// loop: nil on 2xx, a retryable error (with the server's Retry-After, if
// named) on transport failures and 429/5xx, retry.Permanent otherwise.
func (c *ShardClient) once(ctx context.Context, op string, attempt int, method, path, contentType string, body []byte, out any) (time.Duration, error) {
	sp := c.Obs.Start("serve." + op)
	defer sp.End()
	if attempt > 0 {
		sp.Attr("attempt", attempt+1)
	}
	timeout := c.RequestTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	// ShipTimeout burns this attempt's deadline before the request leaves,
	// forcing the timeout-then-retry path under chaos.
	faults.Sleep(faults.ShipTimeout)
	req, err := http.NewRequestWithContext(rctx, method, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, retry.Permanent(err)
	}
	req.Header.Set("Content-Type", contentType)
	if c.Tenant != "" {
		req.Header.Set("X-Fdx-Tenant", c.Tenant)
	}
	if tid := sp.TraceID(); tid != "" {
		req.Header.Set("traceparent", obs.Traceparent(tid, sp.SpanID()))
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		// Transport failure: the server may be restarting; retry.
		sp.Attr("error", err.Error())
		return 0, fmt.Errorf("serve: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	graftEcho(sp, resp.Header.Get(TraceEchoHeader))
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return 0, fmt.Errorf("serve: reading %s %s response: %w", method, path, err)
	}
	if resp.StatusCode/100 == 2 {
		if out == nil {
			return 0, nil
		}
		if err := json.Unmarshal(raw, out); err != nil {
			return 0, retry.Permanent(fmt.Errorf("serve: decoding %s %s response: %w", method, path, err))
		}
		return 0, nil
	}
	var envelope struct {
		Error wireError `json:"error"`
	}
	json.Unmarshal(raw, &envelope) // best effort; an empty code still errors below
	rerr := &RemoteError{Status: resp.StatusCode, Code: envelope.Error.Code, Message: envelope.Error.Message}
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		return time.Duration(envelope.Error.RetryAfterMS) * time.Millisecond, rerr
	}
	return 0, retry.Permanent(rerr)
}

// graftEcho attaches the server's echoed span (X-Fdx-Trace) under the
// client attempt span, preserving the remote span id and annotations.
// Best-effort: a missing or malformed echo changes nothing.
func graftEcho(sp *obs.Span, echo string) {
	if sp == nil || echo == "" {
		return
	}
	var wt WireTrace
	if err := json.Unmarshal([]byte(echo), &wt); err != nil || wt.Name == "" {
		return
	}
	keys := make([]string, 0, len(wt.Attrs))
	for k := range wt.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	attrs := make([]obs.Attr, 0, len(keys)+1)
	for _, k := range keys {
		attrs = append(attrs, obs.Attr{Key: k, Value: wt.Attrs[k]})
	}
	if wt.TraceID != "" {
		attrs = append(attrs, obs.Attr{Key: "trace_id", Value: wt.TraceID})
	}
	sp.AttachRemote(wt.Name, wt.SpanID, time.UnixMicro(wt.StartUnixUS),
		time.Duration(wt.DurUS)*time.Microsecond, attrs...)
}
