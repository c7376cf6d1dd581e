package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/serve"
	apiv1 "repro/spgemm/api/v1"
)

// Handler returns the coordinator's HTTP surface — route-for-route the
// single server's API, so a client (or the apiv1.Client) pointed at a
// cluster cannot tell the difference:
//
//	GET    /healthz              — coordinator liveness
//	GET    /readyz               — aggregated readiness + per-replica states
//	GET    /metricsz             — cluster_* counters + summed replica counters
//	POST   /v1/multiply          — routed by structural fingerprint
//	POST   /v1/batch             — whole DAG routed to one replica
//	POST   /v1/matrices          — placed on the ring owner, spilled for failover
//	POST   /v1/matrices/bulk     — several matrices placed in one request
//	GET    /v1/matrices/{handle} — the spill copy's raw CSR payload
//	DELETE /v1/matrices/{handle} — dropped everywhere it lives
//	POST   /v1/join              — replica registration + heartbeat
//	POST   /v1/admin/drain       — drain every replica, answer merged counters
//
// Errors ride the shared apiv1 envelope via serve.WriteError, with the
// cluster-specific replica_down code (503 + Retry-After) when no
// replica could take a request. Bodies go through the same apiv1
// readers and writers as the single server's, so the caps and the
// binary matrix encoding are identical here.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", guard(http.MethodGet, c.handleHealthz))
	mux.HandleFunc("/readyz", guard(http.MethodGet, c.handleReadyz))
	mux.HandleFunc("/metricsz", guard(http.MethodGet, c.handleMetricsz))
	mux.HandleFunc("/v1/multiply", guard(http.MethodPost, c.handleMultiply))
	mux.HandleFunc("/v1/batch", guard(http.MethodPost, c.handleBatch))
	mux.HandleFunc("/v1/matrices", guard(http.MethodPost, c.handleMatrices))
	mux.HandleFunc("/v1/matrices/bulk", guard(http.MethodPost, c.handleMatricesBulk))
	mux.HandleFunc("/v1/matrices/", guardMethods(map[string]http.HandlerFunc{
		http.MethodGet:    c.handleMatrixGet,
		http.MethodDelete: c.handleMatrixDelete,
	}))
	mux.HandleFunc("/v1/join", guard(http.MethodPost, c.handleJoin))
	mux.HandleFunc("/v1/admin/drain", guard(http.MethodPost, c.handleAdminDrain))
	return mux
}

// matrixBodyBudget bounds the matrix uploads the coordinator reads. It
// keeps spill copies, not a budgeted store, so it applies the budget
// its replicas default to.
const matrixBodyBudget = serve.DefaultMatrixStoreBytes

func guard(method string, h http.HandlerFunc) http.HandlerFunc {
	return guardMethods(map[string]http.HandlerFunc{method: h})
}

// guardMethods dispatches on the allowed method set; anything else is
// 405 with a deterministic sorted Allow header and the envelope —
// identical behavior to the single server's guard, by contract.
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

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	apiv1.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz serves the aggregated readiness: the same wire statuses
// a single server emits, plus the per-replica health map. 503 only
// when draining — a degraded cluster still serves.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body := c.Ready()
	status := http.StatusOK
	if body.Status == apiv1.ReadyStatusDraining {
		status = http.StatusServiceUnavailable
	}
	apiv1.WriteJSON(w, status, body)
}

func (c *Coordinator) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	counters := c.Counters()
	body := make(map[string]any, len(counters)+1)
	for k, v := range counters {
		body[k] = v
	}
	body["cluster_replicas"] = c.Health()
	apiv1.WriteJSON(w, http.StatusOK, body)
}

func (c *Coordinator) handleMultiply(w http.ResponseWriter, r *http.Request) {
	var req apiv1.MultiplyRequest
	if !apiv1.ReadJSON(w, r, &req) {
		return
	}
	resp, err := c.Multiply(req)
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	apiv1.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req apiv1.BatchRequest
	if !apiv1.ReadJSON(w, r, &req) {
		return
	}
	resp, err := c.Batch(&req)
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	apiv1.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleMatrices(w http.ResponseWriter, r *http.Request) {
	req, ok := apiv1.ReadMatrixRequest(w, r, matrixBodyBudget)
	if !ok {
		return
	}
	resp, err := c.StoreFromRequest(req)
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	apiv1.WriteJSON(w, http.StatusOK, resp)
}

// handleMatricesBulk places several matrices in one request — the same
// bulk surface the replicas expose, so a client can speak to either.
func (c *Coordinator) handleMatricesBulk(w http.ResponseWriter, r *http.Request) {
	req, ok := apiv1.ReadMatrixBatchRequest(w, r, matrixBodyBudget)
	if !ok {
		return
	}
	resp, err := c.StoreBulk(req)
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	apiv1.WriteJSON(w, http.StatusOK, resp)
}

// handleMatrixGet answers from the coordinator's spill copy — the
// authoritative record of everything stored through it, reachable even
// while the handle's owner is down.
func (c *Coordinator) handleMatrixGet(w http.ResponseWriter, r *http.Request) {
	handle := strings.TrimPrefix(r.URL.Path, "/v1/matrices/")
	c.mu.Lock()
	ent := c.spill[handle]
	c.mu.Unlock()
	if ent == nil {
		serve.WriteError(w, &serve.UnknownHandleError{Handle: handle})
		return
	}
	apiv1.WriteMatrix(w, r, apiv1.MatrixDataFrom(ent.m))
}

func (c *Coordinator) handleMatrixDelete(w http.ResponseWriter, r *http.Request) {
	handle := strings.TrimPrefix(r.URL.Path, "/v1/matrices/")
	if !c.DeleteMatrix(handle) {
		serve.WriteError(w, &serve.UnknownHandleError{Handle: handle})
		return
	}
	apiv1.WriteJSON(w, http.StatusOK, map[string]string{"deleted": handle})
}

// handleJoin serves replica registration and heartbeat.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req apiv1.JoinRequest
	if !apiv1.ReadJSON(w, r, &req) {
		return
	}
	resp, err := c.Join(req)
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	apiv1.WriteJSON(w, http.StatusOK, resp)
}

// handleAdminDrain drains the whole cluster and answers the merged
// final counters — the reconciliation snapshot of the soak harness.
func (c *Coordinator) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	var req apiv1.DrainRequest
	if !apiv1.ReadJSON(w, r, &req) {
		return
	}
	timeout := 30 * time.Second
	if req.TimeoutSec > 0 {
		timeout = time.Duration(req.TimeoutSec * float64(time.Second))
	}
	apiv1.WriteJSON(w, http.StatusOK, apiv1.DrainResponse{Counters: c.Drain(timeout)})
}
