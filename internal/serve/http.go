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

// The wire types moved to the public versioned package
// repro/spgemm/api/v1 (shared by the server, the drive harnesses and
// the thin client). The aliases keep the old internal names working.
type (
	// MatrixSpec aliases apiv1.MatrixSpec.
	MatrixSpec = apiv1.MatrixSpec
	// MultiplyRequest aliases apiv1.MultiplyRequest.
	MultiplyRequest = apiv1.MultiplyRequest
	// MatrixRequest aliases apiv1.MatrixRequest.
	MatrixRequest = apiv1.MatrixRequest
	// MatrixResponse aliases apiv1.MatrixResponse.
	MatrixResponse = apiv1.MatrixResponse
	// MultiplyResponse aliases apiv1.MultiplyResponse.
	MultiplyResponse = apiv1.MultiplyResponse

	errorResponse = apiv1.ErrorResponse
)

// Handler returns the server's HTTP surface:
//
//	GET    /healthz              — liveness (200 while the process serves)
//	GET    /readyz               — readiness (503 once draining) + breaker states
//	GET    /metricsz             — the flat metrics snapshot + cache hit rates as JSON
//	POST   /v1/multiply          — submit a job (429 + Retry-After when shed)
//	POST   /v1/batch             — submit a DAG of multiplies (per-node statuses)
//	POST   /v1/matrices          — store a matrix (data, spec, or re-value a handle)
//	POST   /v1/matrices/bulk     — store several matrices in one round trip
//	GET    /v1/matrices/{handle} — fetch a stored matrix's raw CSR payload
//	DELETE /v1/matrices/{handle} — drop a stored matrix (and orphaned plans)
//	POST   /v1/admin/drain       — drain gracefully, answer the final counters
//
// Every route answers a wrong method with 405, an Allow header and the
// shared error envelope; every error path emits the envelope with a
// machine-readable code from the apiv1 taxonomy. Bodies are read and
// answers written through apiv1's helpers, which bound every body
// (control routes by a constant, matrix routes from the store budget)
// and speak the binary matrix encoding on the three matrix routes when
// the request's Content-Type / Accept names it.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", guarded(http.MethodGet, s.handleHealthz))
	mux.HandleFunc("/readyz", guarded(http.MethodGet, s.handleReadyz))
	mux.HandleFunc("/metricsz", guarded(http.MethodGet, s.handleMetricsz))
	mux.HandleFunc("/v1/multiply", guarded(http.MethodPost, s.handleMultiply))
	mux.HandleFunc("/v1/batch", guarded(http.MethodPost, s.handleBatch))
	mux.HandleFunc("/v1/matrices", guarded(http.MethodPost, s.handleMatrices))
	mux.HandleFunc("/v1/matrices/bulk", guarded(http.MethodPost, s.handleMatricesBulk))
	mux.HandleFunc("/v1/matrices/", guardedMethods(map[string]http.HandlerFunc{
		http.MethodGet:    s.handleMatrixGet,
		http.MethodDelete: s.handleMatrixDelete,
	}))
	mux.HandleFunc("/v1/admin/drain", guarded(http.MethodPost, s.handleAdminDrain))
	return mux
}

// guarded enforces one allowed method per route: anything else is 405
// with the Allow header and the shared envelope.
func guarded(method string, h http.HandlerFunc) http.HandlerFunc {
	return guardedMethods(map[string]http.HandlerFunc{method: h})
}

// guardedMethods dispatches on the request method across the allowed
// set; anything else is 405 with a deterministic (sorted) Allow header
// and the shared envelope.
func guardedMethods(handlers map[string]http.HandlerFunc) http.HandlerFunc {
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
			apiv1.WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{
				Code:  apiv1.CodeMethodNotAllowed,
				Error: fmt.Sprintf("method %s not allowed (use %s)", r.Method, allow),
			})
			return
		}
		h(w, r)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	apiv1.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz serves the readiness body. The Status string is the
// wire contract load balancers and the cluster coordinator dispatch
// on: "ready" and "degraded" answer 200 (the server still serves, a
// degraded one through its fallback paths), "draining" answers 503.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body := s.Ready()
	status := http.StatusOK
	if body.Status == apiv1.ReadyStatusDraining {
		status = http.StatusServiceUnavailable
	}
	apiv1.WriteJSON(w, status, body)
}

func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	snap := s.Snapshot()
	body := make(map[string]any, len(snap)+2)
	for k, v := range snap {
		body[k] = v
	}
	// Derived hit rates (0..1): counters alone force every dashboard to
	// re-derive them, so the endpoint publishes the ratio too.
	rate := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	body["plan_cache_hit_rate"] = rate(snap[metrics.CounterPlanCacheHits], snap[metrics.CounterPlanCacheMisses])
	body["matrix_store_hit_rate"] = rate(snap[metrics.CounterMatrixStoreHits], snap[metrics.CounterMatrixStoreMisses])
	apiv1.WriteJSON(w, http.StatusOK, body)
}

// handleMatrices stores a matrix from a spec, or re-values a stored
// handle when the body names one.
func (s *Server) handleMatrices(w http.ResponseWriter, r *http.Request) {
	req, ok := apiv1.ReadMatrixRequest(w, r, s.store.max)
	if !ok {
		return
	}
	resp, err := s.StoreFromRequest(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	apiv1.WriteJSON(w, http.StatusOK, resp)
}

// handleMatricesBulk serves POST /v1/matrices/bulk: several stores in
// one round trip (the cluster failover re-upload path).
func (s *Server) handleMatricesBulk(w http.ResponseWriter, r *http.Request) {
	req, ok := apiv1.ReadMatrixBatchRequest(w, r, s.store.max)
	if !ok {
		return
	}
	resp, err := s.StoreBulk(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	apiv1.WriteJSON(w, http.StatusOK, resp)
}

// handleMatrixGet serves GET /v1/matrices/{handle}: the stored CSR
// payload, raw, so a peer can re-home the matrix byte-identically.
func (s *Server) handleMatrixGet(w http.ResponseWriter, r *http.Request) {
	handle := strings.TrimPrefix(r.URL.Path, "/v1/matrices/")
	m, ok := s.Matrix(handle)
	if !ok {
		s.writeError(w, &UnknownHandleError{Handle: handle})
		return
	}
	apiv1.WriteMatrix(w, r, apiv1.MatrixDataFrom(m))
}

// handleMatrixDelete serves DELETE /v1/matrices/{handle}.
func (s *Server) handleMatrixDelete(w http.ResponseWriter, r *http.Request) {
	handle := strings.TrimPrefix(r.URL.Path, "/v1/matrices/")
	if !s.DeleteMatrix(handle) {
		s.writeError(w, &UnknownHandleError{Handle: handle})
		return
	}
	apiv1.WriteJSON(w, http.StatusOK, map[string]string{"deleted": handle})
}

// handleAdminDrain serves POST /v1/admin/drain: stop admitting, wait
// for in-flight work up to the requested timeout, answer the final
// counter snapshot. The call is idempotent — draining an already
// draining server just waits again and re-reads the counters.
func (s *Server) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	var req apiv1.DrainRequest
	if !apiv1.ReadJSON(w, r, &req) {
		return
	}
	timeout := 30 * time.Second
	if req.TimeoutSec > 0 {
		timeout = time.Duration(req.TimeoutSec * float64(time.Second))
	}
	apiv1.WriteJSON(w, http.StatusOK, apiv1.DrainResponse{Counters: s.Drain(timeout)})
}

func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	var req MultiplyRequest
	if !apiv1.ReadJSON(w, r, &req) {
		return
	}
	resp, err := s.Multiply(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	apiv1.WriteJSON(w, http.StatusOK, resp)
}

// handleBatch serves POST /v1/batch: one DAG of multiplies, admitted
// as a unit, with per-node statuses in the response.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req apiv1.BatchRequest
	if !apiv1.ReadJSON(w, r, &req) {
		return
	}
	resp, err := s.SubmitBatch(&req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	apiv1.WriteJSON(w, http.StatusOK, resp)
}

// writeError keeps the handler call sites short.
func (s *Server) writeError(w http.ResponseWriter, err error) { WriteError(w, err) }

// WriteError maps the serving error taxonomy onto HTTP statuses and
// envelope codes: shedding is 429 with a Retry-After hint (header and
// body), a panic is a 500 for that job only, a deadline is 504, an
// up-front OOM rejection is 413, an unresolvable handle 404, a
// rejected batch DAG 400, an unreachable cluster 503 with Retry-After.
// It is shared by the server's handlers and the cluster coordinator's
// HTTP surface, so both speak the identical wire taxonomy.
func WriteError(w http.ResponseWriter, err error) {
	code := ErrorCode(err)
	resp := errorResponse{Code: code, Error: err.Error()}
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
