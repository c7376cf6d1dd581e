package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// TestMatrixStoreContentAddressing: identical uploads are idempotent,
// a values-only change yields a new handle with the same structural
// fingerprint, a different pattern changes the fingerprint.
func TestMatrixStoreContentAddressing(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer s.Drain(0)
	a := spgemm.ER(60, 60, 0.05, 7)
	h1, err := s.StoreMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s.StoreMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("re-upload of identical content changed the handle: %s vs %s", h1, h2)
	}
	entries, _, _, _, _ := s.store.stats()
	if entries != 1 {
		t.Fatalf("store holds %d entries after idempotent upload, want 1", entries)
	}
	h3, err := s.RevalueMatrix(h1, 99)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("re-valued matrix kept the old handle")
	}
	m1, _ := s.Matrix(h1)
	m3, ok := s.Matrix(h3)
	if !ok {
		t.Fatal("re-valued handle not resolvable")
	}
	if spgemm.Fingerprint(m1) != spgemm.Fingerprint(m3) {
		t.Fatal("values-only change altered the structural fingerprint")
	}
	if spgemm.FingerprintValues(m1) == spgemm.FingerprintValues(m3) {
		t.Fatal("re-valued matrix carries identical values")
	}
	if _, ok := s.Matrix("m-nope"); ok {
		t.Fatal("unknown handle resolved")
	}
}

// TestServeHandleRepeatsHitPlanCache is the acceptance scenario:
// repeated handle-based multiplies on one pattern hit the plan cache,
// a values-only change (re-value) drops nothing and stays warm, and
// deleting a pattern retires it from the store while its plan stays: a
// re-upload of the pattern replays warm.
func TestServeHandleRepeatsHitPlanCache(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer s.Drain(0)
	a := spgemm.ER(80, 80, 0.05, 8)
	b := spgemm.ER(80, 80, 0.05, 9)
	ha, err := s.StoreMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := s.StoreMatrix(b)
	if err != nil {
		t.Fatal(err)
	}

	// Three repeats on pattern a: 1 miss + 2 hits.
	var first, repeat *Result
	for i := 0; i < 3; i++ {
		res, err := s.Submit(Job{Engine: "cpu", AHandle: ha, BHandle: ha})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		} else {
			repeat = res
		}
	}
	hits, misses, _ := s.PlanCache().Counters()
	if misses != 1 || hits != 2 {
		t.Fatalf("after 3 repeats: hits=%d misses=%d, want 2/1", hits, misses)
	}
	if !spgemm.Equal(first.C, repeat.C, 0) {
		t.Fatal("warm repeat product differs from the first run")
	}

	// One job on pattern b: its own miss.
	if _, err := s.Submit(Job{Engine: "cpu", AHandle: hb, BHandle: hb}); err != nil {
		t.Fatal(err)
	}

	// Values-only change: re-value pattern a, multiply by the new
	// handle — still warm, nothing invalidated.
	ha2, err := s.RevalueMatrix(ha, 123)
	if err != nil {
		t.Fatal(err)
	}
	lenBefore := s.PlanCache().Len()
	if _, err := s.Submit(Job{Engine: "cpu", AHandle: ha2, BHandle: ha2}); err != nil {
		t.Fatal(err)
	}
	hits2, misses2, _ := s.PlanCache().Counters()
	if misses2 != 2 || hits2 != 3 {
		t.Fatalf("after values-only change: hits=%d misses=%d, want 3/2", hits2, misses2)
	}
	if s.PlanCache().Len() != lenBefore {
		t.Fatalf("values-only change changed cached entries %d -> %d", lenBefore, s.PlanCache().Len())
	}

	// Pattern retirement: delete both of pattern a's handles. The second
	// delete retires the pattern from the store; the plan cache keeps
	// every plan, and pattern b stays warm.
	if !s.DeleteMatrix(ha) || !s.DeleteMatrix(ha2) {
		t.Fatal("delete of stored handles failed")
	}
	if s.PlanCache().Len() != lenBefore {
		t.Fatalf("pattern delete left %d entries, want all %d", s.PlanCache().Len(), lenBefore)
	}
	if _, err := s.Submit(Job{Engine: "cpu", AHandle: hb, BHandle: hb}); err != nil {
		t.Fatal(err)
	}
	hits3, _, _ := s.PlanCache().Counters()
	if hits3 != hits2+1 {
		t.Fatalf("pattern b lost its warm plan after deleting pattern a (hits %d -> %d)", hits2, hits3)
	}
	// The retired pattern's handles are gone from the store.
	if _, ok := s.Matrix(ha); ok {
		t.Fatal("deleted handle still resolves")
	}
	// A job naming it is rejected with the typed error.
	if _, err := s.Submit(Job{Engine: "cpu", AHandle: ha, BHandle: ha}); err == nil {
		t.Fatal("job on deleted handle admitted")
	} else {
		var uh *UnknownHandleError
		if !errors.As(err, &uh) {
			t.Fatalf("error %v, want UnknownHandleError", err)
		}
	}

	// The retired pattern, uploaded again in arrays of its own, replays
	// the plan it left behind: a hit, no miss.
	ha3, err := s.StoreMatrix(a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Submit(Job{Engine: "cpu", AHandle: ha3, BHandle: ha3})
	if err != nil {
		t.Fatal(err)
	}
	if hits4, misses4, _ := s.PlanCache().Counters(); hits4 != hits3+1 || misses4 != misses2 {
		t.Fatalf("re-uploaded retired pattern: hits %d -> %d, misses %d -> %d; want one hit, no miss", hits3, hits4, misses2, misses4)
	}
	if !spgemm.Equal(first.C, again.C, 0) {
		t.Fatal("the re-uploaded pattern's warm product differs from the first run")
	}

	// Counters reconcile in the snapshot: the serving totals match the
	// cache's own view.
	snap := s.Snapshot()
	ch, cm, _ := s.PlanCache().Counters()
	if snap[metrics.CounterPlanCacheHits] != ch || snap[metrics.CounterPlanCacheMisses] != cm {
		t.Fatalf("snapshot counters (%d/%d) disagree with cache (%d/%d)",
			snap[metrics.CounterPlanCacheHits], snap[metrics.CounterPlanCacheMisses], ch, cm)
	}
}

// TestMatrixStoreLRUEviction bounds the store by bytes, and checks that
// an evicted pattern's plan outlives it in the plan cache until the
// cache's own budget evicts it.
func TestMatrixStoreLRUEviction(t *testing.T) {
	a := spgemm.ER(64, 64, 0.05, 10)
	budget := 2*a.Bytes() + a.Bytes()/2 // room for two matrices, not three
	s := New(Config{MaxConcurrent: 1, MatrixStoreBytes: budget, PlanCacheBytes: 1 << 20})
	defer s.Drain(0)
	ha, err := s.StoreMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Job{Engine: "cpu", AHandle: ha, BHandle: ha}); err != nil {
		t.Fatal(err)
	}
	planned := s.PlanCache().Len()
	if planned == 0 {
		t.Fatal("no plan cached for stored pattern")
	}
	hb, err := s.StoreMatrix(spgemm.ER(64, 64, 0.05, 11))
	if err != nil {
		t.Fatal(err)
	}
	hc, err := s.StoreMatrix(spgemm.ER(64, 64, 0.05, 12))
	if err != nil {
		t.Fatal(err) // evicts ha (LRU)
	}
	if _, ok := s.Matrix(ha); ok {
		t.Fatal("LRU matrix survived eviction")
	}
	// The order is by use, not by arrival: resolving hb makes hc the
	// oldest, so the next upload evicts hc and keeps hb.
	if _, ok := s.Matrix(hb); !ok {
		t.Fatal("hb evicted before the store was full")
	}
	if _, err := s.StoreMatrix(spgemm.ER(64, 64, 0.05, 14)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Matrix(hc); ok {
		t.Fatal("the least recently used matrix (hc) survived the second eviction")
	}
	if _, ok := s.Matrix(hb); !ok {
		t.Fatal("the recently resolved matrix (hb) was evicted instead of the oldest")
	}
	key := spgemm.RunOptions{}.PlanKey(a, a)
	if s.PlanCache().Len() != planned || !s.PlanCache().HasPlan(key) {
		t.Fatalf("the evicted pattern's plan left with it: %d plans, want %d", s.PlanCache().Len(), planned)
	}
	snap := s.Snapshot()
	if snap[metrics.CounterMatrixStoreEvictions] == 0 {
		t.Fatal("no store eviction counted")
	}
	// Only the plan cache's budget evicts the plan: inline products of
	// new patterns fill the cache until it goes.
	for seed := int64(100); s.PlanCache().HasPlan(key); seed++ {
		m := spgemm.ER(400, 400, 0.02, seed)
		if _, err := s.Submit(Job{Engine: "cpu", A: m, B: m}); err != nil {
			t.Fatal(err)
		}
		if seed == 200 {
			t.Fatal("a hundred new patterns did not evict the retired pattern's plan")
		}
	}
	if _, _, evictions := s.PlanCache().Counters(); evictions == 0 {
		t.Fatal("the plan left the cache without an eviction")
	}
	// Oversized upload is rejected outright.
	if _, err := s.StoreMatrix(spgemm.ER(512, 512, 0.2, 13)); err == nil {
		t.Fatal("oversized matrix accepted")
	}
}

// TestHTTPMatrixEndpoints drives the handle lifecycle over HTTP:
// upload, re-value, handle-based multiply, delete, and the hit-rate
// fields in /metricsz.
func TestHTTPMatrixEndpoints(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer s.Drain(0)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(path string, body any) (*http.Response, map[string]any) {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]any{}
		_ = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		return resp, out
	}

	resp, body := post("/v1/matrices", apiv1.MatrixRequest{Spec: &apiv1.MatrixSpec{Kind: "er", Rows: 64, Cols: 64, Density: 0.05, Seed: 3}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d %v", resp.StatusCode, body)
	}
	handle, _ := body["handle"].(string)
	structFP, _ := body["structure_fingerprint"].(string)
	if handle == "" || structFP == "" {
		t.Fatalf("upload response incomplete: %v", body)
	}

	// Two handle-based multiplies: second is warm.
	for i := 0; i < 2; i++ {
		resp, body = post("/v1/multiply", apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("multiply %d: %d %v", i, resp.StatusCode, body)
		}
	}

	// Re-value keeps the structural fingerprint.
	resp, body = post("/v1/matrices", apiv1.MatrixRequest{Handle: handle, ValuesSeed: 42})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("revalue: %d %v", resp.StatusCode, body)
	}
	if got, _ := body["structure_fingerprint"].(string); got != structFP {
		t.Fatalf("revalue changed structure fingerprint %s -> %s", structFP, got)
	}

	// Metrics carry the counters and derived hit rates.
	mresp, err := http.Get(srv.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody := map[string]any{}
	_ = json.NewDecoder(mresp.Body).Decode(&metricsBody)
	mresp.Body.Close()
	if hits, _ := metricsBody["plan_cache_hits"].(float64); hits != 1 {
		t.Fatalf("plan_cache_hits = %v, want 1", metricsBody["plan_cache_hits"])
	}
	if rate, _ := metricsBody["plan_cache_hit_rate"].(float64); rate != 0.5 {
		t.Fatalf("plan_cache_hit_rate = %v, want 0.5", metricsBody["plan_cache_hit_rate"])
	}
	// Beyond the counter snapshot the endpoint derives exactly the two
	// hit rates, and nothing it emits describes a symbolic strategy.
	snap := s.Snapshot()
	var derived []string
	for k := range metricsBody {
		if _, counter := snap[k]; !counter {
			derived = append(derived, k)
		}
		if strings.HasPrefix(k, "symbolic_") || k == "plan_cache_upgrades" {
			t.Fatalf("metricsz emits %q", k)
		}
	}
	slices.Sort(derived)
	if want := []string{"matrix_store_hit_rate", "plan_cache_hit_rate"}; !slices.Equal(derived, want) {
		t.Fatalf("metricsz derived keys = %v, want %v", derived, want)
	}

	// Delete; a multiply by the dead handle is a 404.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/matrices/"+handle, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	resp, body = post("/v1/multiply", apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("multiply on deleted handle: %d %v", resp.StatusCode, body)
	}
	// Unknown-handle revalue is a 404 too.
	resp, _ = post("/v1/matrices", apiv1.MatrixRequest{Handle: "m-gone", ValuesSeed: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("revalue of unknown handle: %d", resp.StatusCode)
	}
}
