package apiv1

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// APIError is a non-2xx response decoded from the uniform error
// envelope. Clients dispatch on Code (and Status); RetryAfterSec is
// populated on shed responses.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code, Message and RetryAfterSec mirror the envelope fields.
	Code          string
	Message       string
	RetryAfterSec float64
}

func (e *APIError) Error() string {
	return fmt.Sprintf("apiv1: server returned %d (%s): %s", e.Status, e.Code, e.Message)
}

// RetryPolicy is the client's opt-in shed-retry behaviour: capped
// exponential backoff with deterministic jitter, honoring the server's
// Retry-After hint on 429 and 503 responses.
//
// Only responses that guarantee the job was never admitted are
// retried — the serving layer's shed statuses (429 overloaded/queue
// full, 503 draining/replica down) — and only on endpoints where a
// duplicate attempt is harmless (Multiply, Batch and the read-only
// GETs). Store mutations (StoreMatrix, DeleteMatrix) are never
// retried by policy, regardless of status: the client cannot know
// whether the mutation took effect before the response was lost.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (0 means 4, 1 disables retrying).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: attempt k sleeps
	// BaseDelay*2^(k-1), capped at MaxDelay (0 means 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 means 2s). A server Retry-After
	// hint overrides the computed backoff but is still capped here.
	MaxDelay time.Duration
	// Jitter scatters each delay uniformly in [delay*(1-Jitter),
	// delay] so synchronized clients do not re-stampede the server
	// (0 means 0.2; negative disables jitter).
	Jitter float64
	// Seed makes the jitter deterministic for tests (0 seeds from the
	// global source).
	Seed int64
	// Sleep replaces time.Sleep in tests; nil means time.Sleep.
	Sleep func(time.Duration)

	rngOnce sync.Once
	rng     *rand.Rand
	rngMu   sync.Mutex
}

// Client is the thin Go client of the /v1 API: one method per
// endpoint, every non-2xx decoded into *APIError. Requests and
// responses are JSON, except matrix payloads: an upload carrying Data
// is sent as MediaTypeCSR frames, and FetchMatrix asks for the frame
// and decodes whichever encoding the server answered with. The choice
// follows from the request alone; there is nothing to configure.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8097".
	BaseURL string
	// HTTP is the underlying client; nil means a client with a
	// 120-second timeout (multiplies are long-running requests).
	HTTP *http.Client
	// Retry enables shed-retry with backoff; nil means no retries
	// (every 429/503 surfaces immediately as *APIError).
	Retry *RetryPolicy
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: &http.Client{Timeout: 120 * time.Second}}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 120 * time.Second}
}

// retriable reports whether an attempt's outcome is a shed the policy
// may retry: HTTP 429 (overloaded, queue full) or 503 (draining,
// replica down) — statuses the server only sends before admission, so
// the job never ran.
func retriable(err error) bool {
	var ae *APIError
	if !errors.As(err, &ae) {
		return false
	}
	return ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable
}

// delay computes the sleep before retry attempt (1-based), preferring
// the server's Retry-After hint over the exponential schedule, capping
// at MaxDelay, then applying jitter.
func (p *RetryPolicy) delay(attempt int, hintSec float64) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	d := base << (attempt - 1)
	if hintSec > 0 {
		d = time.Duration(hintSec * float64(time.Second))
	}
	if d > maxd {
		d = maxd
	}
	jitter := p.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 0 {
		p.rngOnce.Do(func() {
			seed := p.Seed
			if seed == 0 {
				seed = time.Now().UnixNano()
			}
			p.rng = rand.New(rand.NewSource(seed))
		})
		p.rngMu.Lock()
		f := p.rng.Float64()
		p.rngMu.Unlock()
		d = d - time.Duration(f*jitter*float64(d))
	}
	if d < 0 {
		d = 0
	}
	return d
}

func (p *RetryPolicy) sleep(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// do sends one request and decodes the response into out (skipped when
// out is nil). Non-2xx responses become *APIError. When a retry policy
// is configured and the call is idempotent-safe, shed responses are
// retried with backoff honoring the Retry-After hint. The context
// bounds every attempt AND the backoff sleeps between them: a
// cancelled context stops the retry loop immediately.
func (c *Client) do(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	attempts := 1
	if c.Retry != nil && idempotent {
		attempts = c.Retry.MaxAttempts
		if attempts <= 0 {
			attempts = 4
		}
	}
	var err error
	for attempt := 1; ; attempt++ {
		err = c.doOnce(ctx, method, path, in, out)
		if err == nil || attempt >= attempts || !retriable(err) {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		var ae *APIError
		errors.As(err, &ae)
		c.Retry.sleep(c.Retry.delay(attempt, ae.RetryAfterSec))
	}
}

// encodeBody picks the request representation from what the request
// carries: a MatrixRequest with Data (Data wins over Handle and Spec,
// so the frame is the whole request) and a bulk upload made only of
// such requests go as binary frames; everything else is JSON.
func encodeBody(in any) (contentType string, body []byte, err error) {
	var buf bytes.Buffer
	switch req := in.(type) {
	case MatrixRequest:
		if req.Data != nil {
			buf.Grow(int(BinarySize(req.Data)))
			err = WriteMatrixBinary(&buf, req.Data)
			return MediaTypeCSR, buf.Bytes(), err
		}
	case MatrixBatchRequest:
		ds := make([]*MatrixData, 0, len(req.Matrices))
		size := int64(4)
		for i := range req.Matrices {
			if d := req.Matrices[i].Data; d != nil {
				ds = append(ds, d)
				size += BinarySize(d)
			}
		}
		if len(ds) == len(req.Matrices) && len(ds) > 0 {
			buf.Grow(int(size))
			err = writeBulkBinary(&buf, ds)
			return MediaTypeCSR, buf.Bytes(), err
		}
	}
	body, err = json.Marshal(in)
	return "application/json", body, err
}

// drainBytes bounds what doOnce reads of a body it has no use for.
const drainBytes = 4 << 10

// doOnce is one request/response exchange under the given context.
func (c *Client) doOnce(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	var contentType string
	if in != nil {
		var err error
		if contentType, body, err = encodeBody(in); err != nil {
			return err
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", contentType)
	}
	matrix, wantsMatrix := out.(*MatrixData)
	if wantsMatrix {
		req.Header.Set("Accept", MediaTypeCSR+", application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer func() {
		// net/http reuses the connection only for a body read to its end.
		// What may be left is short — the unread answer to a delete or a
		// health check, the newline after a JSON value — and draining it
		// is cheaper than dialling again; anything longer is dropped.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, drainBytes))
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var env ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return &APIError{
			Status: resp.StatusCode, Code: env.Code,
			Message: env.Error, RetryAfterSec: env.RetryAfterSec,
		}
	}
	if out == nil {
		return nil
	}
	// The response's own Content-Type decides: a server that ignored
	// Accept (an older one) answered JSON and is read as such.
	if wantsMatrix && isMediaType(resp.Header.Get("Content-Type"), MediaTypeCSR) {
		// The body length the server declared bounds the frame in it.
		limit := resp.ContentLength
		if limit < 0 {
			limit = math.MaxInt64
		}
		d, err := ReadMatrixBinary(resp.Body, limit)
		if err != nil {
			return err
		}
		*matrix = *d
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Multiply submits one job to POST /v1/multiply. Shed responses are
// retried under the client's retry policy: a 429/503 means the job was
// never admitted, so a duplicate attempt cannot double-run it.
func (c *Client) Multiply(req MultiplyRequest) (*MultiplyResponse, error) {
	return c.MultiplyCtx(context.Background(), req)
}

// MultiplyCtx is Multiply bounded by a caller context: the deadline
// covers the transport, independent of the job's own DeadlineSec
// (which budgets engine time after admission). The cluster tier uses
// this to give health-critical calls short transport timeouts without
// shrinking the job deadline.
func (c *Client) MultiplyCtx(ctx context.Context, req MultiplyRequest) (*MultiplyResponse, error) {
	var out MultiplyResponse
	if err := c.do(ctx, http.MethodPost, "/v1/multiply", req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Batch submits a DAG of multiplies to POST /v1/batch. A non-nil
// response means the batch was admitted; per-node failures live in the
// node statuses. Shed responses (the whole DAG rejected before
// admission) are retried under the client's retry policy.
func (c *Client) Batch(req BatchRequest) (*BatchResponse, error) {
	return c.BatchCtx(context.Background(), req)
}

// BatchCtx is Batch bounded by a caller context.
func (c *Client) BatchCtx(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	var out BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/batch", req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// StoreMatrix uploads a spec, raw data, or a re-value request via POST
// /v1/matrices and returns the stored matrix description. Never
// retried: a store mutation whose response was lost may still have
// taken effect.
func (c *Client) StoreMatrix(req MatrixRequest) (*MatrixResponse, error) {
	return c.StoreMatrixCtx(context.Background(), req)
}

// StoreMatrixCtx is StoreMatrix bounded by a caller context.
func (c *Client) StoreMatrixCtx(ctx context.Context, req MatrixRequest) (*MatrixResponse, error) {
	var out MatrixResponse
	if err := c.do(ctx, http.MethodPost, "/v1/matrices", req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// StoreMatrixBulk uploads several matrices in one POST
// /v1/matrices/bulk round trip — the pipelined transfer the cluster
// coordinator uses to re-home spill copies during failover. Never
// retried (store mutation).
func (c *Client) StoreMatrixBulk(ctx context.Context, req MatrixBatchRequest) (*MatrixBatchResponse, error) {
	var out MatrixBatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/matrices/bulk", req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// FetchMatrix downloads a stored matrix's raw CSR payload via GET
// /v1/matrices/{handle}, as a binary frame when the server offers one
// (the only encoding that carries NaN and ±Inf values).
func (c *Client) FetchMatrix(ctx context.Context, handle string) (*MatrixData, error) {
	var out MatrixData
	if err := c.do(ctx, http.MethodGet, "/v1/matrices/"+handle, nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteMatrix drops a stored handle via DELETE /v1/matrices/{handle}.
// Never retried (store mutation).
func (c *Client) DeleteMatrix(handle string) error {
	return c.DeleteMatrixCtx(context.Background(), handle)
}

// DeleteMatrixCtx is DeleteMatrix bounded by a caller context.
func (c *Client) DeleteMatrixCtx(ctx context.Context, handle string) error {
	return c.do(ctx, http.MethodDelete, "/v1/matrices/"+handle, nil, nil, false)
}

// Join registers (or heartbeats) a replica with a cluster coordinator
// via POST /v1/join. The client must point at the coordinator.
func (c *Client) Join(ctx context.Context, req JoinRequest) (*JoinResponse, error) {
	var out JoinResponse
	if err := c.do(ctx, http.MethodPost, "/v1/join", req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Drain asks the server to drain gracefully via POST /v1/admin/drain
// and returns its final counter snapshot. The call blocks until the
// drain completes, so the context should allow for the drain deadline.
func (c *Client) Drain(ctx context.Context, req DrainRequest) (*DrainResponse, error) {
	var out DrainResponse
	if err := c.do(ctx, http.MethodPost, "/v1/admin/drain", req, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the flat /metricsz snapshot. Integer counters and
// float hit rates share the map; truncate where ints are asserted.
func (c *Client) Metrics() (map[string]float64, error) {
	return c.MetricsCtx(context.Background())
}

// MetricsCtx is Metrics bounded by a caller context. Non-numeric
// values (the cluster endpoint annotates the body with its replica
// health map) are skipped: the method's contract is the counters.
func (c *Client) MetricsCtx(ctx context.Context) (map[string]float64, error) {
	raw := map[string]any{}
	if err := c.do(ctx, http.MethodGet, "/metricsz", nil, &raw, true); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// Ready fetches the GET /readyz body. A draining server answers 503
// with the same body, so the response is returned alongside the
// *APIError in that case — callers who only care about the status
// string can ignore err when out.Status is set.
func (c *Client) Ready() (*ReadyResponse, error) {
	return c.ReadyCtx(context.Background())
}

// ReadyCtx is Ready bounded by a caller context — the cluster prober
// gives it a timeout much shorter than a multiply's, so a hung replica
// is detected in probe time, not job time.
func (c *Client) ReadyCtx(ctx context.Context) (*ReadyResponse, error) {
	var out ReadyResponse
	// Bypass retry: readiness polls want the immediate answer.
	err := c.doOnce(ctx, http.MethodGet, "/readyz", nil, &out)
	if err != nil {
		var ae *APIError
		if errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable {
			// The 503 body is the ReadyResponse itself, which doOnce
			// discarded while decoding the envelope; re-fetch the fields
			// we can: a draining server is status "draining" by contract.
			return &ReadyResponse{Status: ReadyStatusDraining, Draining: true}, nil
		}
		return nil, err
	}
	return &out, nil
}

// WaitHealthy polls GET /healthz until the server answers 200 or the
// timeout passes.
func (c *Client) WaitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := c.do(ctx, http.MethodGet, "/healthz", nil, nil, false)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("apiv1: server at %s not healthy after %v: %w", c.BaseURL, timeout, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}
