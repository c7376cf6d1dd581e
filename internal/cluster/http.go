package cluster

import (
	"net/http"

	"repro/internal/serve"
	apiv1 "repro/spgemm/api/v1"
)

// Handler returns the coordinator's HTTP surface: the single server's
// route table (serve.Routes) over the coordinator, so a client (or the
// apiv1.Client) pointed at a cluster cannot tell the difference, plus
// what is the coordinator's own:
//
//	POST   /v1/join              — replica registration + heartbeat
//
// and the per-replica health map, cluster_replicas, in /metricsz.
// Matrix bodies are bounded by the budget the replicas default to: the
// coordinator keeps spill copies, not a budgeted store.
func (c *Coordinator) Handler() http.Handler {
	mux := serve.Routes(c, serve.DefaultMatrixStoreBytes, func(body map[string]any) {
		body["cluster_replicas"] = c.Health()
	})
	mux.HandleFunc("/v1/join", serve.Guard(http.MethodPost, c.handleJoin))
	return mux
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
