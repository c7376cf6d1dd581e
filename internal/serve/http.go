package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	apiv1 "repro/spgemm/api/v1"
)

// Routes returns the HTTP surface over any API — the single server's
// and the cluster coordinator's are this one route table:
//
//	GET    /healthz              — liveness (200 while the process serves)
//	GET    /readyz               — readiness (503 once draining) + breaker or replica states
//	GET    /metricsz             — the flat counters + cache hit rates as JSON
//	POST   /v1/multiply          — submit a job (429 + Retry-After when shed)
//	POST   /v1/batch             — submit a DAG of multiplies (per-node statuses)
//	POST   /v1/matrices          — store a matrix (data, spec, or re-value a handle)
//	POST   /v1/matrices/bulk     — store several matrices in one round trip
//	GET    /v1/matrices/{handle} — fetch a stored matrix's raw CSR payload
//	DELETE /v1/matrices/{handle} — drop a stored matrix
//	POST   /v1/admin/drain       — drain gracefully, answer the final counters
//
// Every route answers a wrong method with 405, an Allow header and the
// shared error envelope; every error path emits the envelope with a
// machine-readable code from the apiv1 taxonomy. Bodies are read and
// answers written through apiv1's helpers, which bound every body
// (control routes by a constant, matrix routes by matrixBudget) and
// speak the binary matrix encoding on the three matrix routes when the
// request's Content-Type / Accept names it. metricsExtra, when not nil,
// adds keys to the /metricsz body. The caller may register more routes
// on the returned mux.
func Routes(api API, matrixBudget int64, metricsExtra func(body map[string]any)) *http.ServeMux {
	h := &routes{api: api, budget: matrixBudget, metricsExtra: metricsExtra}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", Guard(http.MethodGet, h.healthz))
	mux.HandleFunc("/readyz", Guard(http.MethodGet, h.readyz))
	mux.HandleFunc("/metricsz", Guard(http.MethodGet, h.metricsz))
	mux.HandleFunc("/v1/multiply", Guard(http.MethodPost, h.multiply))
	mux.HandleFunc("/v1/batch", Guard(http.MethodPost, h.batch))
	mux.HandleFunc("/v1/matrices", Guard(http.MethodPost, h.matrices))
	mux.HandleFunc("/v1/matrices/bulk", Guard(http.MethodPost, h.matricesBulk))
	mux.HandleFunc("/v1/matrices/", guardMethods(map[string]http.HandlerFunc{
		http.MethodGet:    h.matrixGet,
		http.MethodDelete: h.matrixDelete,
	}))
	mux.HandleFunc("/v1/admin/drain", Guard(http.MethodPost, h.adminDrain))
	return mux
}

// Handler returns the server's HTTP surface: Routes over the server,
// matrix bodies bounded by its store budget.
func (s *Server) Handler() http.Handler { return Routes(s, s.store.max, nil) }

// Guard enforces one allowed method per route: anything else is 405
// with the Allow header and the shared envelope.
func Guard(method string, h http.HandlerFunc) http.HandlerFunc {
	return guardMethods(map[string]http.HandlerFunc{method: h})
}

// guardMethods dispatches on the request method across the allowed
// set; anything else is 405 with a deterministic (sorted) Allow header
// and the shared envelope.
func guardMethods(handlers map[string]http.HandlerFunc) http.HandlerFunc {
	allowed := make([]string, 0, len(handlers))
	for m := range handlers {
		allowed = append(allowed, m)
	}
	sort.Strings(allowed)
	allow := strings.Join(allowed, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		h, ok := handlers[r.Method]
		if !ok {
			w.Header().Set("Allow", allow)
			apiv1.WriteJSON(w, http.StatusMethodNotAllowed, apiv1.ErrorResponse{
				Code:  apiv1.CodeMethodNotAllowed,
				Error: fmt.Sprintf("method %s not allowed (use %s)", r.Method, allow),
			})
			return
		}
		h(w, r)
	}
}

// routes binds the handlers to one API and its body budget.
type routes struct {
	api          API
	budget       int64
	metricsExtra func(body map[string]any)
}

func (h *routes) healthz(w http.ResponseWriter, _ *http.Request) {
	apiv1.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyz serves the readiness body. The Status string is the wire
// contract load balancers and the cluster coordinator dispatch on:
// "ready" and "degraded" answer 200 (still serving, a degraded server
// through its fallback paths, a degraded cluster on fewer replicas),
// "draining" answers 503.
func (h *routes) readyz(w http.ResponseWriter, _ *http.Request) {
	body := h.api.Ready()
	status := http.StatusOK
	if body.Status == apiv1.ReadyStatusDraining {
		status = http.StatusServiceUnavailable
	}
	apiv1.WriteJSON(w, status, body)
}

// metricsz serves the counters and the hit rates (0..1) derived from
// them — for a cluster, from the summed replica counters.
func (h *routes) metricsz(w http.ResponseWriter, _ *http.Request) {
	counters := h.api.Counters()
	body := make(map[string]any, len(counters)+3)
	for k, v := range counters {
		body[k] = v
	}
	rate := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	body["plan_cache_hit_rate"] = rate(counters[metrics.CounterPlanCacheHits], counters[metrics.CounterPlanCacheMisses])
	body["matrix_store_hit_rate"] = rate(counters[metrics.CounterMatrixStoreHits], counters[metrics.CounterMatrixStoreMisses])
	if h.metricsExtra != nil {
		h.metricsExtra(body)
	}
	apiv1.WriteJSON(w, http.StatusOK, body)
}

func (h *routes) multiply(w http.ResponseWriter, r *http.Request) {
	var req apiv1.MultiplyRequest
	if !apiv1.ReadJSON(w, r, &req) {
		return
	}
	resp, err := h.api.Multiply(req)
	if err != nil {
		WriteError(w, err)
		return
	}
	apiv1.WriteJSON(w, http.StatusOK, resp)
}

func (h *routes) batch(w http.ResponseWriter, r *http.Request) {
	var req apiv1.BatchRequest
	if !apiv1.ReadJSON(w, r, &req) {
		return
	}
	resp, err := h.api.SubmitBatch(&req)
	if err != nil {
		WriteError(w, err)
		return
	}
	apiv1.WriteJSON(w, http.StatusOK, resp)
}

func (h *routes) matrices(w http.ResponseWriter, r *http.Request) {
	req, ok := apiv1.ReadMatrixRequest(w, r, h.budget)
	if !ok {
		return
	}
	resp, err := h.api.StoreFromRequest(req)
	if err != nil {
		WriteError(w, err)
		return
	}
	apiv1.WriteJSON(w, http.StatusOK, resp)
}

func (h *routes) matricesBulk(w http.ResponseWriter, r *http.Request) {
	req, ok := apiv1.ReadMatrixBatchRequest(w, r, h.budget)
	if !ok {
		return
	}
	resp, err := h.api.StoreBulk(req)
	if err != nil {
		WriteError(w, err)
		return
	}
	apiv1.WriteJSON(w, http.StatusOK, resp)
}

// matrixGet answers the stored CSR payload, raw, so a peer can re-home
// the matrix byte-identically.
func (h *routes) matrixGet(w http.ResponseWriter, r *http.Request) {
	handle := strings.TrimPrefix(r.URL.Path, "/v1/matrices/")
	m, ok := h.api.Matrix(handle)
	if !ok {
		WriteError(w, &UnknownHandleError{Handle: handle})
		return
	}
	apiv1.WriteMatrix(w, r, apiv1.MatrixDataFrom(m))
}

func (h *routes) matrixDelete(w http.ResponseWriter, r *http.Request) {
	handle := strings.TrimPrefix(r.URL.Path, "/v1/matrices/")
	if !h.api.DeleteMatrix(handle) {
		WriteError(w, &UnknownHandleError{Handle: handle})
		return
	}
	apiv1.WriteJSON(w, http.StatusOK, map[string]string{"deleted": handle})
}

// adminDrain stops admitting, waits for in-flight work up to the
// requested timeout and answers the final counters. The call is
// idempotent: draining again just waits again and re-reads them.
func (h *routes) adminDrain(w http.ResponseWriter, r *http.Request) {
	var req apiv1.DrainRequest
	if !apiv1.ReadJSON(w, r, &req) {
		return
	}
	timeout := 30 * time.Second
	if req.TimeoutSec > 0 {
		timeout = time.Duration(req.TimeoutSec * float64(time.Second))
	}
	apiv1.WriteJSON(w, http.StatusOK, apiv1.DrainResponse{Counters: h.api.Drain(timeout)})
}

// WriteError maps the serving error taxonomy onto HTTP statuses and
// envelope codes: shedding is 429 with a Retry-After hint (header and
// body), a panic is a 500 for that job only, a deadline is 504, an
// up-front OOM rejection is 413, an unresolvable handle 404, a
// rejected batch DAG 400, an unreachable cluster 503 with Retry-After.
// Every route of Routes answers through it, and so does the
// coordinator's /v1/join.
func WriteError(w http.ResponseWriter, err error) {
	code := ErrorCode(err)
	resp := apiv1.ErrorResponse{Code: code, Error: err.Error()}
	var status int
	switch code {
	case apiv1.CodeUnknownHandle:
		status = http.StatusNotFound
	case apiv1.CodeDraining:
		status = http.StatusServiceUnavailable
	case apiv1.CodeReplicaDown:
		// No replica could take the request; it never ran anywhere.
		// Retryable like a shed, but 503: capacity is gone, not busy.
		status = http.StatusServiceUnavailable
		retry := time.Second
		if d, ok := RetryAfter(err); ok {
			retry = d
		}
		resp.RetryAfterSec = retry.Seconds()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(math.Ceil(retry.Seconds()))))
	case apiv1.CodeOverloaded, apiv1.CodeQueueFull:
		status = http.StatusTooManyRequests
		retry := time.Second
		if d, ok := RetryAfter(err); ok {
			retry = d
		}
		resp.RetryAfterSec = retry.Seconds()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(math.Ceil(retry.Seconds()))))
	case apiv1.CodeJobPanic, apiv1.CodeDeviceLost:
		status = http.StatusInternalServerError
	case apiv1.CodeDeadline:
		status = http.StatusGatewayTimeout
	case apiv1.CodeOOM:
		status = http.StatusRequestEntityTooLarge
	default:
		status = http.StatusBadRequest
	}
	apiv1.WriteJSON(w, status, resp)
}

// ErrorCode maps a serving error onto the machine-readable envelope
// code of the apiv1 taxonomy. Unknown errors are client errors
// (CodeBadRequest): the scheduler rejects them before running anything.
func ErrorCode(err error) string {
	var be *BatchError
	var uh *UnknownHandleError
	var de *DrainingError
	var oe *OverloadError
	var qe *QueueFullError
	switch {
	case errors.As(err, &be):
		return be.Code
	case errors.As(err, &uh):
		return apiv1.CodeUnknownHandle
	case errors.As(err, &de):
		// Before the Shedding check: DrainingError wraps ErrOverloaded.
		return apiv1.CodeDraining
	case errors.Is(err, faults.ErrReplicaDown):
		return apiv1.CodeReplicaDown
	case errors.As(err, &oe):
		return apiv1.CodeOverloaded
	case errors.As(err, &qe):
		return apiv1.CodeQueueFull
	case errors.Is(err, faults.ErrJobPanic):
		return apiv1.CodeJobPanic
	case errors.Is(err, faults.ErrDeadline):
		return apiv1.CodeDeadline
	case errors.Is(err, faults.ErrOOM):
		return apiv1.CodeOOM
	case errors.Is(err, faults.ErrDeviceLost):
		return apiv1.CodeDeviceLost
	default:
		return apiv1.CodeBadRequest
	}
}
