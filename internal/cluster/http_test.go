package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]any{}
	_ = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	return resp, out
}

// TestClusterHTTPSurface drives the coordinator end to end over HTTP:
// upload, routed multiply, batch, aggregated readiness and metrics —
// the same wire surface a single server exposes.
func TestClusterHTTPSurface(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	ts := httptest.NewServer(tc.c.Handler())
	defer ts.Close()

	// Aggregated readiness: all up.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready apiv1.ReadyResponse
	_ = json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("readyz: %d %+v", resp.StatusCode, ready)
	}
	if len(ready.Replicas) != 3 || ready.Replicas["r0"] != "up" {
		t.Fatalf("replicas map: %v", ready.Replicas)
	}

	// Upload, multiply by handle, batch.
	hr, body := postJSON(t, ts.URL+"/v1/matrices", apiv1.MatrixRequest{
		Spec: &apiv1.MatrixSpec{Kind: "er", Rows: 32, Cols: 32, Density: 0.1, Seed: 1},
	})
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d %v", hr.StatusCode, body)
	}
	handle, _ := body["handle"].(string)
	if handle == "" {
		t.Fatalf("no handle in %v", body)
	}
	mr, mbody := postJSON(t, ts.URL+"/v1/multiply", apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle})
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("multiply: %d %v", mr.StatusCode, mbody)
	}
	br, bbody := postJSON(t, ts.URL+"/v1/batch", apiv1.BatchRequest{Engine: "cpu", Nodes: []apiv1.BatchNode{
		{ID: "sq", A: apiv1.Operand{Handle: handle}},
	}})
	if br.StatusCode != http.StatusOK || bbody["completed"].(float64) != 1 {
		t.Fatalf("batch: %d %v", br.StatusCode, bbody)
	}

	// Aggregated metrics: cluster_* plus summed replica counters.
	gr, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody := map[string]any{}
	_ = json.NewDecoder(gr.Body).Decode(&metricsBody)
	gr.Body.Close()
	if v, _ := metricsBody["cluster_requests_total"].(float64); v != 3 {
		t.Fatalf("cluster_requests_total = %v, want 3", metricsBody["cluster_requests_total"])
	}
	if v, _ := metricsBody["serve_jobs_accepted"].(float64); v < 2 {
		t.Fatalf("summed serve counters missing: %v", metricsBody["serve_jobs_accepted"])
	}
	if _, ok := metricsBody["cluster_replicas"].(map[string]any); !ok {
		t.Fatalf("cluster_replicas missing: %v", metricsBody["cluster_replicas"])
	}

	// Unknown handle delete: 404 envelope.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/matrices/m-bogus", nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus delete: %d", dr.StatusCode)
	}
}

// TestClusterHTTPMethodParity pins 405 + the deterministic Allow
// header + the envelope code on every route — the same contract the
// single server's surface keeps, so clients cannot tell them apart.
func TestClusterHTTPMethodParity(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	ts := httptest.NewServer(tc.c.Handler())
	defer ts.Close()

	routes := []struct {
		method, path, allow string
	}{
		{http.MethodPost, "/healthz", http.MethodGet},
		{http.MethodPost, "/readyz", http.MethodGet},
		{http.MethodPost, "/metricsz", http.MethodGet},
		{http.MethodGet, "/v1/multiply", http.MethodPost},
		{http.MethodGet, "/v1/batch", http.MethodPost},
		{http.MethodGet, "/v1/matrices", http.MethodPost},
		{http.MethodGet, "/v1/matrices/bulk", http.MethodPost},
		{http.MethodPut, "/v1/matrices/deadbeef", "DELETE, GET"},
		{http.MethodGet, "/v1/join", http.MethodPost},
		{http.MethodGet, "/v1/admin/drain", http.MethodPost},
	}
	for _, rt := range routes {
		req, _ := http.NewRequest(rt.method, ts.URL+rt.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env apiv1.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", rt.method, rt.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != rt.allow {
			t.Errorf("%s %s: Allow %q, want %q", rt.method, rt.path, got, rt.allow)
		}
		if env.Code != apiv1.CodeMethodNotAllowed {
			t.Errorf("%s %s: code %q, want %q", rt.method, rt.path, env.Code, apiv1.CodeMethodNotAllowed)
		}
	}
}

// TestClusterHTTPMalformedJSON pins the 400 bad_request envelope on
// every body-taking route.
func TestClusterHTTPMalformedJSON(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	ts := httptest.NewServer(tc.c.Handler())
	defer ts.Close()

	for _, path := range []string{
		"/v1/multiply", "/v1/batch", "/v1/matrices", "/v1/matrices/bulk",
		"/v1/join", "/v1/admin/drain",
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		var env apiv1.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || env.Code != apiv1.CodeBadRequest {
			t.Errorf("POST %s with garbage: status %d code %q, want 400 %q",
				path, resp.StatusCode, env.Code, apiv1.CodeBadRequest)
		}
	}
}

// TestClusterHTTPRetryAfterOnReplicaDown pins the Retry-After header on
// every request path's replica_down 503 — multiply, batch and store
// must all tell the client when to come back.
func TestClusterHTTPRetryAfterOnReplicaDown(t *testing.T) {
	tc := newTestCluster(t, 1, Config{})
	ts := httptest.NewServer(tc.c.Handler())
	defer ts.Close()
	tc.kill(t, "r0")
	tc.c.Probe()
	tc.c.Probe()

	bodies := map[string]any{
		"/v1/multiply": apiv1.MultiplyRequest{Engine: "cpu", A: apiv1.MatrixSpec{Kind: "er", Rows: 8, Cols: 8, Density: 0.5, Seed: 1}},
		"/v1/batch":    apiv1.BatchRequest{Engine: "cpu", Nodes: []apiv1.BatchNode{{ID: "n", A: apiv1.Operand{Spec: &apiv1.MatrixSpec{Kind: "er", Rows: 8, Cols: 8, Density: 0.5, Seed: 1}}}}},
		"/v1/matrices": apiv1.MatrixRequest{Spec: &apiv1.MatrixSpec{Kind: "er", Rows: 8, Cols: 8, Density: 0.5, Seed: 1}},
	}
	for path, body := range bodies {
		resp, env := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s all-down: status %d, want 503 (%v)", path, resp.StatusCode, env)
			continue
		}
		if code, _ := env["code"].(string); code != apiv1.CodeReplicaDown {
			t.Errorf("%s all-down: code %q, want %q", path, code, apiv1.CodeReplicaDown)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s all-down: missing Retry-After", path)
		}
	}
}

// TestClusterHTTPDegradedAndDown pins the degraded aggregation and the
// replica_down wire answer when the whole replica set is gone.
func TestClusterHTTPDegradedAndDown(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	ts := httptest.NewServer(tc.c.Handler())
	defer ts.Close()

	tc.kill(t, "r0")
	tc.c.Probe()
	tc.c.Probe()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready apiv1.ReadyResponse
	_ = json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ready.Status != "degraded" || ready.Replicas["r0"] != "down" {
		t.Fatalf("degraded readyz: %d %+v", resp.StatusCode, ready)
	}

	// Both replicas gone: 503 with the replica_down code and a
	// Retry-After hint, so clients treat it like any other shed.
	tc.kill(t, "r1")
	tc.c.Probe()
	tc.c.Probe()
	mr, mbody := postJSON(t, ts.URL+"/v1/multiply", apiv1.MultiplyRequest{
		Engine: "cpu",
		A:      apiv1.MatrixSpec{Kind: "er", Rows: 16, Cols: 16, Density: 0.2, Seed: 1},
	})
	if mr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-down multiply: %d %v", mr.StatusCode, mbody)
	}
	if code, _ := mbody["code"].(string); code != apiv1.CodeReplicaDown {
		t.Fatalf("all-down code %q, want %q", code, apiv1.CodeReplicaDown)
	}
	if mr.Header.Get("Retry-After") == "" {
		t.Fatal("all-down answer missing Retry-After")
	}
}

// TestClusterMetricszHitRates: the coordinator's /metricsz derives the
// hit rates from the summed replica counters it serves, as a single
// server derives them from its own. Remote replicas drop their *_rate
// keys when scraped, so nothing else would put them back.
func TestClusterMetricszHitRates(t *testing.T) {
	_, ts0 := remoteServe(t, serve.Config{MaxConcurrent: 2})
	_, ts1 := remoteServe(t, serve.Config{MaxConcurrent: 2})
	coord := New(Config{},
		NewRemoteReplica("r0", ts0.URL, RemoteConfig{}),
		NewRemoteReplica("r1", ts1.URL, RemoteConfig{}),
	)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	hr, body := postJSON(t, ts.URL+"/v1/matrices", apiv1.MatrixRequest{
		Spec: &apiv1.MatrixSpec{Kind: "er", Rows: 32, Cols: 32, Density: 0.1, Seed: 1},
	})
	handle, _ := body["handle"].(string)
	if hr.StatusCode != http.StatusOK || handle == "" {
		t.Fatalf("upload: %d %v", hr.StatusCode, body)
	}
	for i := 0; i < 3; i++ {
		if mr, mbody := postJSON(t, ts.URL+"/v1/multiply", apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle}); mr.StatusCode != http.StatusOK {
			t.Fatalf("multiply %d: %d %v", i, mr.StatusCode, mbody)
		}
	}

	gr, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]any{}
	_ = json.NewDecoder(gr.Body).Decode(&m)
	gr.Body.Close()
	for _, tc := range []struct{ rate, hits, misses string }{
		{"plan_cache_hit_rate", metrics.CounterPlanCacheHits, metrics.CounterPlanCacheMisses},
		{"matrix_store_hit_rate", metrics.CounterMatrixStoreHits, metrics.CounterMatrixStoreMisses},
	} {
		hits, _ := m[tc.hits].(float64)
		misses, _ := m[tc.misses].(float64)
		rate, ok := m[tc.rate].(float64)
		if !ok || hits+misses == 0 || rate != hits/(hits+misses) {
			t.Errorf("%s = %v, want %s/(%s+%s) = %v/(%v+%v)", tc.rate, m[tc.rate], tc.hits, tc.hits, tc.misses, hits, hits, misses)
		}
	}
	if hits, misses := m[metrics.CounterPlanCacheHits], m[metrics.CounterPlanCacheMisses]; hits != 2.0 || misses != 1.0 {
		t.Errorf("summed plan cache counters: %v hits, %v misses, want 2 and 1", hits, misses)
	}
}

// TestClusterBatchStoredNodeReachable: a batch node stored with
// store: true is cluster state like any upload. The coordinator records
// its placement without fetching it on the batch path; the copy is
// taken from the holder when first needed — here by a multiply whose
// ring owner is another replica, then served by GET byte for byte as
// the holder serves it.
func TestClusterBatchStoredNodeReachable(t *testing.T) {
	_, ts0 := remoteServe(t, serve.Config{MaxConcurrent: 2})
	_, ts1 := remoteServe(t, serve.Config{MaxConcurrent: 2})
	urls := map[string]string{"r0": ts0.URL, "r1": ts1.URL}
	coord := New(Config{},
		NewRemoteReplica("r0", ts0.URL, RemoteConfig{}),
		NewRemoteReplica("r1", ts1.URL, RemoteConfig{}),
	)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	// An operand whose square routes to the other replica, so the
	// multiply below needs the stored node placed away from its holder.
	var m, sq *spgemm.Matrix
	for seed := int64(1); ; seed++ {
		if seed > 64 {
			t.Fatal("no operand whose square has another ring owner")
		}
		m = testMatrix(seed)
		sq, _ = spgemm.Multiply(m, m)
		if tcOwner(coord, m) != tcOwner(coord, sq) {
			break
		}
	}
	holder := tcOwner(coord, m)
	want, err := spgemm.Multiply(sq, sq)
	if err != nil {
		t.Fatal(err)
	}

	handle, err := coord.StoreMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	br, bbody := postJSON(t, ts.URL+"/v1/batch", apiv1.BatchRequest{Engine: "cpu", Nodes: []apiv1.BatchNode{
		{ID: "sq", A: apiv1.Operand{Handle: handle}, Store: true},
	}})
	nodes, _ := bbody["nodes"].([]any)
	if br.StatusCode != http.StatusOK || len(nodes) != 1 {
		t.Fatalf("batch: %d %v", br.StatusCode, bbody)
	}
	stored, _ := nodes[0].(map[string]any)["handle"].(string)
	if stored == "" {
		t.Fatalf("stored node has no handle: %v", bbody)
	}
	coord.mu.Lock()
	ent := coord.spill[stored]
	coord.mu.Unlock()
	if ent == nil || ent.m != nil || !ent.placed[holder] {
		t.Fatalf("spill entry after the batch = %+v, want placement-only on %s", ent, holder)
	}

	mr, mbody := postJSON(t, ts.URL+"/v1/multiply", apiv1.MultiplyRequest{Engine: "cpu", AHandle: stored})
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("multiply on the stored node: %d %v", mr.StatusCode, mbody)
	}
	if nnz, _ := mbody["nnz_c"].(float64); int64(nnz) != want.Nnz() {
		t.Fatalf("multiply on the stored node: nnz_c %v, want %d", mbody["nnz_c"], want.Nnz())
	}

	fetch := func(base string) []byte {
		req, _ := http.NewRequest(http.MethodGet, base+"/v1/matrices/"+stored, nil)
		req.Header.Set("Accept", apiv1.MediaTypeCSR)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s from %s: %d %s", stored, base, resp.StatusCode, body)
		}
		return body
	}
	if got, want := fetch(ts.URL), fetch(urls[holder]); !bytes.Equal(got, want) {
		t.Fatalf("coordinator's copy (%d bytes) differs from the holder's (%d bytes)", len(got), len(want))
	}
}
