package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/speck"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// batchChain builds a k-stage Aᵏ chain request over one stored handle:
// s1 = A·A, s_k = s_{k-1}·A.
func batchChain(handle string, stages int) *apiv1.BatchRequest {
	nodes := []apiv1.BatchNode{{ID: "s1", A: apiv1.Operand{Handle: handle}}}
	for k := 2; k <= stages; k++ {
		nodes = append(nodes, apiv1.BatchNode{
			ID: nodeName(k),
			A:  apiv1.Operand{Node: nodeName(k - 1)},
			B:  &apiv1.Operand{Handle: handle},
		})
	}
	return &apiv1.BatchRequest{Engine: "cpu", Nodes: nodes}
}

func nodeName(k int) string { return "s" + string(rune('0'+k)) }

// TestBatchChainPipelines drives the tentpole scenario end to end: a
// 6-stage Aᵏ chain over a block-diagonal operand completes with
// exactly one cold symbolic phase, every later stage a plan-cache hit,
// intermediates never touching the matrix store, and the final product
// byte-equal to the sequentially computed reference.
func TestBatchChainPipelines(t *testing.T) {
	s := New(Config{MaxConcurrent: 2})
	defer s.Drain(0)
	a := spgemm.BlockDiag(16, 8, 7)
	h, err := s.StoreMatrix(a)
	if err != nil {
		t.Fatal(err)
	}

	req := batchChain(h, 6)
	req.Nodes[5].Store = true
	resp, err := s.SubmitBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Completed != 6 || resp.Failed != 0 || resp.Skipped != 0 {
		t.Fatalf("completed/failed/skipped = %d/%d/%d, want 6/0/0", resp.Completed, resp.Failed, resp.Skipped)
	}
	// Block-diagonal patterns are closed under multiplication: the whole
	// chain shares one plan, so exactly the first node runs cold.
	if resp.PlanCacheMisses != 1 || resp.PlanCacheHits != 5 {
		t.Fatalf("plan cache hits/misses = %d/%d, want 5/1", resp.PlanCacheHits, resp.PlanCacheMisses)
	}
	if resp.PlanCacheHitRate < 0.8 {
		t.Fatalf("plan cache hit rate = %.2f, want >= 0.8", resp.PlanCacheHitRate)
	}

	// Only the node that asked for store: true has a handle, and it
	// resolves to the reference product A⁷ (6 multiplies).
	for i, nr := range resp.Nodes {
		if nr.Status != apiv1.StatusOK {
			t.Fatalf("node %s status = %s", nr.ID, nr.Status)
		}
		if (nr.Handle != "") != (i == 5) {
			t.Fatalf("node %s handle = %q", nr.ID, nr.Handle)
		}
	}
	ref := a
	for k := 0; k < 6; k++ {
		if ref, err = spgemm.Multiply(ref, a); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := s.Matrix(resp.Nodes[5].Handle)
	if !ok {
		t.Fatal("stored handle of the final stage not found")
	}
	if !spgemm.Equal(got, ref, 1e-9) {
		t.Fatal("chain product differs from the sequential reference")
	}

	snap := s.Snapshot()
	if snap[metrics.CounterServeBatchesAccepted] != 1 || snap[metrics.CounterServeBatchesCompleted] != 1 {
		t.Fatalf("batch counters = %d accepted / %d completed, want 1/1",
			snap[metrics.CounterServeBatchesAccepted], snap[metrics.CounterServeBatchesCompleted])
	}
	if jobs, flops := s.Inflight(); jobs != 0 || flops != 0 {
		t.Fatalf("inflight after batch = %d jobs / %d flops, want 0/0", jobs, flops)
	}
}

// TestBatchPlanGroupSharing submits independent same-structure nodes in
// one batch: the plan group runs one cold symbolic phase (the leader)
// and every sibling replays numeric-only, even though all of them were
// ready simultaneously.
func TestBatchPlanGroupSharing(t *testing.T) {
	s := New(Config{MaxConcurrent: 4})
	defer s.Drain(0)
	h, err := s.StoreMatrix(spgemm.BlockDiag(16, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	req := &apiv1.BatchRequest{Engine: "cpu", Nodes: []apiv1.BatchNode{
		{ID: "n1", A: apiv1.Operand{Handle: h}},
		{ID: "n2", A: apiv1.Operand{Handle: h}},
		{ID: "n3", A: apiv1.Operand{Handle: h}},
		{ID: "n4", A: apiv1.Operand{Handle: h}},
	}}
	resp, err := s.SubmitBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Completed != 4 {
		t.Fatalf("completed = %d, want 4", resp.Completed)
	}
	if resp.PlanCacheMisses != 1 || resp.PlanCacheHits != 3 {
		t.Fatalf("plan cache hits/misses = %d/%d, want 3/1", resp.PlanCacheHits, resp.PlanCacheMisses)
	}
}

// TestBatchValidation covers the whole-batch rejections: every case is
// a 400-class *BatchError with a machine-readable code, and nothing is
// admitted or run.
func TestBatchValidation(t *testing.T) {
	s := New(Config{})
	defer s.Drain(0)
	h, err := s.StoreMatrix(testMatrix())
	if err != nil {
		t.Fatal(err)
	}
	wide, err := s.StoreMatrix(spgemm.ER(40, 13, 0.2, 2))
	if err != nil {
		t.Fatal(err)
	}

	big := make([]apiv1.BatchNode, apiv1.MaxBatchNodes+1)
	for i := range big {
		big[i] = apiv1.BatchNode{ID: nodeName(i), A: apiv1.Operand{Handle: h}}
	}

	cases := []struct {
		name     string
		nodes    []apiv1.BatchNode
		wantCode string
		wantNode string
	}{
		{"empty batch", nil, apiv1.CodeInvalidDAG, ""},
		{"oversized batch", big, apiv1.CodeInvalidDAG, ""},
		{"empty id", []apiv1.BatchNode{{A: apiv1.Operand{Handle: h}}}, apiv1.CodeInvalidDAG, ""},
		{"duplicate id", []apiv1.BatchNode{
			{ID: "x", A: apiv1.Operand{Handle: h}},
			{ID: "x", A: apiv1.Operand{Handle: h}},
		}, apiv1.CodeInvalidDAG, "x"},
		{"unknown node reference", []apiv1.BatchNode{
			{ID: "x", A: apiv1.Operand{Node: "ghost"}},
		}, apiv1.CodeInvalidDAG, "x"},
		{"no operand field", []apiv1.BatchNode{
			{ID: "x", A: apiv1.Operand{}},
		}, apiv1.CodeInvalidDAG, "x"},
		{"two operand fields", []apiv1.BatchNode{
			{ID: "x", A: apiv1.Operand{Handle: h, Node: "x"}},
		}, apiv1.CodeInvalidDAG, "x"},
		{"two-node cycle", []apiv1.BatchNode{
			{ID: "x", A: apiv1.Operand{Node: "y"}},
			{ID: "y", A: apiv1.Operand{Node: "x"}},
		}, apiv1.CodeInvalidDAG, ""},
		{"self cycle", []apiv1.BatchNode{
			{ID: "x", A: apiv1.Operand{Node: "x"}},
		}, apiv1.CodeInvalidDAG, "x"},
		{"direct shape mismatch", []apiv1.BatchNode{
			{ID: "x", A: apiv1.Operand{Handle: wide}, B: &apiv1.Operand{Handle: h}},
		}, apiv1.CodeShapeMismatch, "x"},
		{"propagated shape mismatch", []apiv1.BatchNode{
			// x is 40x13; feeding it into y against the 40x40 handle can
			// only be caught through static shape propagation.
			{ID: "x", A: apiv1.Operand{Handle: h}, B: &apiv1.Operand{Handle: wide}},
			{ID: "y", A: apiv1.Operand{Node: "x"}, B: &apiv1.Operand{Handle: h}},
		}, apiv1.CodeShapeMismatch, "y"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := s.Snapshot()
			_, err := s.SubmitBatch(&apiv1.BatchRequest{Engine: "cpu", Nodes: tc.nodes})
			var be *BatchError
			if !errors.As(err, &be) {
				t.Fatalf("err = %v, want *BatchError", err)
			}
			if be.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q", be.Code, tc.wantCode)
			}
			if tc.wantNode != "" && be.Node != tc.wantNode {
				t.Fatalf("node = %q, want %q", be.Node, tc.wantNode)
			}
			after := s.Snapshot()
			if after[metrics.CounterServeBatchesAccepted] != before[metrics.CounterServeBatchesAccepted] {
				t.Fatal("rejected batch was admitted")
			}
		})
	}
}

// TestBatchUnknownHandleFailsNode checks per-node failure semantics: a
// node whose handle is gone fails with code unknown_handle, every node
// downstream of it is skipped with code upstream_failed, and unrelated
// nodes complete — all in one 200-class response.
func TestBatchUnknownHandleFailsNode(t *testing.T) {
	s := New(Config{MaxConcurrent: 2})
	defer s.Drain(0)
	h, err := s.StoreMatrix(testMatrix())
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := s.StoreMatrix(spgemm.ER(40, 40, 0.2, 9))
	if err != nil {
		t.Fatal(err)
	}
	if !s.DeleteMatrix(doomed) {
		t.Fatal("delete failed")
	}

	resp, err := s.SubmitBatch(&apiv1.BatchRequest{Engine: "cpu", Nodes: []apiv1.BatchNode{
		{ID: "gone", A: apiv1.Operand{Handle: doomed}},
		{ID: "child", A: apiv1.Operand{Node: "gone"}, B: &apiv1.Operand{Handle: h}},
		{ID: "grandchild", A: apiv1.Operand{Node: "child"}, B: &apiv1.Operand{Handle: h}},
		{ID: "healthy", A: apiv1.Operand{Handle: h}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Completed != 1 || resp.Failed != 1 || resp.Skipped != 2 {
		t.Fatalf("completed/failed/skipped = %d/%d/%d, want 1/1/2", resp.Completed, resp.Failed, resp.Skipped)
	}
	byID := map[string]apiv1.NodeResult{}
	for _, nr := range resp.Nodes {
		byID[nr.ID] = nr
	}
	if nr := byID["gone"]; nr.Status != apiv1.StatusFailed || nr.Error == nil || nr.Error.Code != apiv1.CodeUnknownHandle {
		t.Fatalf("gone = %+v", nr)
	}
	for _, id := range []string{"child", "grandchild"} {
		if nr := byID[id]; nr.Status != apiv1.StatusSkipped || nr.Error == nil || nr.Error.Code != apiv1.CodeUpstreamFailed {
			t.Fatalf("%s = %+v", id, nr)
		}
	}
	if nr := byID["healthy"]; nr.Status != apiv1.StatusOK {
		t.Fatalf("healthy = %+v", nr)
	}
	if snap := s.Snapshot(); snap[metrics.CounterServeBatchSkipped] != 2 {
		t.Fatalf("skipped counter = %d, want 2", snap[metrics.CounterServeBatchSkipped])
	}
}

// TestBatchPanicPartialFailure injects a panicking engine into one
// node: that node fails with code job_panic, its dependent is skipped,
// the sibling chain completes, and the server stays healthy for later
// submissions (panic isolation is per node).
func TestBatchPanicPartialFailure(t *testing.T) {
	registerTestEngines()
	s := New(Config{MaxConcurrent: 2})
	defer s.Drain(0)
	h, err := s.StoreMatrix(testMatrix())
	if err != nil {
		t.Fatal(err)
	}

	resp, err := s.SubmitBatch(&apiv1.BatchRequest{Engine: "cpu", Nodes: []apiv1.BatchNode{
		{ID: "bad", Engine: "boom", A: apiv1.Operand{Handle: h}},
		{ID: "dead", A: apiv1.Operand{Node: "bad"}, B: &apiv1.Operand{Handle: h}},
		{ID: "ok1", A: apiv1.Operand{Handle: h}},
		{ID: "ok2", A: apiv1.Operand{Node: "ok1"}, B: &apiv1.Operand{Handle: h}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Completed != 2 || resp.Failed != 1 || resp.Skipped != 1 {
		t.Fatalf("completed/failed/skipped = %d/%d/%d, want 2/1/1", resp.Completed, resp.Failed, resp.Skipped)
	}
	byID := map[string]apiv1.NodeResult{}
	for _, nr := range resp.Nodes {
		byID[nr.ID] = nr
	}
	if nr := byID["bad"]; nr.Status != apiv1.StatusFailed || nr.Error == nil || nr.Error.Code != apiv1.CodeJobPanic {
		t.Fatalf("bad = %+v", nr)
	}
	if nr := byID["dead"]; nr.Status != apiv1.StatusSkipped || nr.Error == nil || nr.Error.Code != apiv1.CodeUpstreamFailed {
		t.Fatalf("dead = %+v", nr)
	}

	// The panic charged the breaker and the panic counter, not the batch
	// accounting: a fresh submission still works.
	if snap := s.Snapshot(); snap[metrics.CounterServePanicked] != 1 {
		t.Fatalf("panic counter = %d, want 1", snap[metrics.CounterServePanicked])
	}
	if _, err := s.Submit(Job{Engine: "cpu", AHandle: h, BHandle: h}); err != nil {
		t.Fatalf("server unhealthy after batch panic: %v", err)
	}
}

// TestBatchOverloadShedsWhole pins a job in flight and submits a batch
// that exceeds the flop budget: the whole DAG is shed as one unit with
// a typed OverloadError carrying a retry hint, and nothing ran.
func TestBatchOverloadShedsWhole(t *testing.T) {
	registerTestEngines()
	gate := openGate()
	s := New(Config{MaxConcurrent: 1, MaxInflightFlops: 1000})
	defer s.Drain(0)
	a := testMatrix()
	h, err := s.StoreMatrix(a)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = s.Submit(Job{Engine: "block", A: a, B: a})
	}()
	waitInflight(t, s, 1)

	_, err = s.SubmitBatch(batchChain(h, 4))
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("retry hint = %v, want > 0", oe.RetryAfter)
	}
	if ErrorCode(err) != apiv1.CodeOverloaded {
		t.Fatalf("code = %q, want %q", ErrorCode(err), apiv1.CodeOverloaded)
	}

	close(gate)
	<-done
}

// TestBatchDrainingRejects drains the server and submits a batch: the
// typed DrainingError maps to code draining (HTTP 503), matching the
// single-job surface.
func TestBatchDrainingRejects(t *testing.T) {
	s := New(Config{})
	h, err := s.StoreMatrix(testMatrix())
	if err != nil {
		t.Fatal(err)
	}
	s.Drain(0)
	_, err = s.SubmitBatch(batchChain(h, 2))
	var de *DrainingError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DrainingError", err)
	}
	if ErrorCode(err) != apiv1.CodeDraining {
		t.Fatalf("code = %q, want %q", ErrorCode(err), apiv1.CodeDraining)
	}
}

// TestHTTPBatch exercises the /v1/batch route: a valid DAG returns 200
// with per-node statuses, an invalid DAG 400 with code invalid_dag in
// the shared envelope.
func TestHTTPBatch(t *testing.T) {
	s := New(Config{MaxConcurrent: 2})
	defer s.Drain(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cli := apiv1.NewClient(ts.URL)

	mr, err := cli.StoreMatrix(apiv1.MatrixRequest{Spec: &apiv1.MatrixSpec{Kind: "blocks", N: 64, Block: 8, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Batch(*batchChain(mr.Handle, 3))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Completed != 3 || len(resp.Nodes) != 3 {
		t.Fatalf("batch response = %+v", resp)
	}

	_, err = cli.Batch(apiv1.BatchRequest{Engine: "cpu", Nodes: []apiv1.BatchNode{
		{ID: "x", A: apiv1.Operand{Node: "x"}},
	}})
	var ae *apiv1.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *apiv1.APIError", err)
	}
	if ae.Status != http.StatusBadRequest || ae.Code != apiv1.CodeInvalidDAG {
		t.Fatalf("cycle rejection = %d %q, want 400 %q", ae.Status, ae.Code, apiv1.CodeInvalidDAG)
	}
}

// TestHTTPMethodNotAllowed sweeps every route with a wrong method: all
// of them answer 405 with the Allow header and the envelope's
// method_not_allowed code — the uniform HTTP semantics satellite.
func TestHTTPMethodNotAllowed(t *testing.T) {
	s := New(Config{})
	defer s.Drain(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	routes := []struct {
		method, path, allow string
	}{
		{http.MethodPost, "/healthz", http.MethodGet},
		{http.MethodPost, "/readyz", http.MethodGet},
		{http.MethodDelete, "/metricsz", http.MethodGet},
		{http.MethodGet, "/v1/multiply", http.MethodPost},
		{http.MethodGet, "/v1/batch", http.MethodPost},
		{http.MethodPut, "/v1/matrices", http.MethodPost},
		{http.MethodGet, "/v1/matrices/bulk", http.MethodPost},
		{http.MethodPut, "/v1/matrices/deadbeef", "DELETE, GET"},
		{http.MethodGet, "/v1/admin/drain", http.MethodPost},
	}
	for _, rt := range routes {
		req, err := http.NewRequest(rt.method, ts.URL+rt.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body apiv1.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", rt.method, rt.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != rt.allow {
			t.Errorf("%s %s Allow = %q, want %q", rt.method, rt.path, got, rt.allow)
		}
		if body.Code != apiv1.CodeMethodNotAllowed {
			t.Errorf("%s %s code = %q, want %q", rt.method, rt.path, body.Code, apiv1.CodeMethodNotAllowed)
		}
	}
}

// TestHTTP429CarriesRetryAfterBody pins the envelope contract on 429:
// the machine-readable code and the retry hint appear in the body, not
// only the header.
func TestHTTP429CarriesRetryAfterBody(t *testing.T) {
	registerTestEngines()
	gate := openGate()
	s := New(Config{MaxConcurrent: 1, MaxInflightFlops: 1000})
	defer s.Drain(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := testMatrix()
	h, err := s.StoreMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = s.Submit(Job{Engine: "block", A: a, B: a})
	}()
	waitInflight(t, s, 1)

	body, err := json.Marshal(batchChain(h, 2))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var envelope apiv1.ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&envelope)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if envelope.Code != apiv1.CodeOverloaded || envelope.RetryAfterSec <= 0 {
		t.Fatalf("envelope = %+v, want code %q with retry_after_sec > 0", envelope, apiv1.CodeOverloaded)
	}

	close(gate)
	<-done
}

// TestBatchChainsBuildTwoSchedules: twenty chains over one stored
// handle build at most two replay schedules, one per pair of operand
// records a warm node of the chain meets (the stored matrix times
// itself, the plan's own product times it); every other warm node runs
// a bound schedule without checking it again, and the last chain's
// product is still the reference.
func TestBatchChainsBuildTwoSchedules(t *testing.T) {
	s := New(Config{MaxConcurrent: 2})
	defer s.Drain(0)
	a := spgemm.BlockDiag(16, 8, 5)
	h, err := s.StoreMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	before := speck.SchedulesBuilt()
	var resp *apiv1.BatchResponse
	for i := 0; i < 20; i++ {
		req := batchChain(h, 4)
		req.Nodes[3].Store = true
		if resp, err = s.SubmitBatch(req); err != nil {
			t.Fatal(err)
		}
		if resp.Completed != 4 {
			t.Fatalf("chain %d completed %d of 4 nodes", i, resp.Completed)
		}
	}
	n := speck.SchedulesBuilt() - before
	t.Logf("20 chains built %d schedules", n)
	if n > 2 {
		t.Fatalf("20 chains built %d schedules, want at most 2", n)
	}
	ref := a
	for k := 0; k < 4; k++ {
		if ref, err = spgemm.Multiply(ref, a); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := s.Matrix(resp.Nodes[3].Handle)
	if !ok || !spgemm.Equal(got, ref, 0) {
		t.Fatal("the last chain's product is not the reference")
	}
}
