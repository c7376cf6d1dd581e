package serve

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/metrics"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// The tests below pin what happens to a pattern's plans when the store
// retires the pattern: nothing. The plans stay in the plan cache, which
// checks every hit against the structure a plan was built from, so a
// re-upload of the pattern replays warm and a colliding pattern runs
// cold.

// uncached is the product of a·b on the engine with no plan cache.
func uncached(t *testing.T, engine string, a, b *spgemm.Matrix, opts *spgemm.RunOptions) *spgemm.Matrix {
	t.Helper()
	eng, err := spgemm.ByName(engine)
	if err != nil {
		t.Fatal(err)
	}
	var o spgemm.RunOptions
	if opts != nil {
		o = *opts
	}
	c, _, err := eng.Run(a, b, &o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRetiredPatternReplaysWarm uploads, multiplies and deletes a
// matrix, then uploads the same content again in arrays of its own, and
// then the same pattern with new values: each later multiply is a plan
// cache hit, no miss, and bit for bit the uncached product — on the cpu
// engine and on the hybrid one.
func TestRetiredPatternReplaysWarm(t *testing.T) {
	for _, engine := range []string{"cpu", "hybrid"} {
		t.Run(engine, func(t *testing.T) {
			s := New(Config{MaxConcurrent: 1})
			defer s.Drain(0)
			var opts *spgemm.RunOptions
			if engine == "hybrid" {
				opts = healthyHybridOpts()
			}
			a := hostileSquare(rand.New(rand.NewSource(9)), 48, 0.1)
			multiply := func(what string, m *spgemm.Matrix, wantHit bool) {
				t.Helper()
				h, err := s.StoreMatrix(m)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Submit(Job{Engine: engine, AHandle: h, BHandle: h, Opts: opts})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if hit := res.Snapshot[metrics.CounterPlanCacheHits] == 1; hit != wantHit || res.Snapshot[metrics.CounterPlanCacheMisses] != map[bool]int64{true: 0, false: 1}[wantHit] {
					t.Fatalf("%s: plan cache hit %v (snapshot %v), want %v", what, hit, res.Snapshot, wantHit)
				}
				if !bitIdentical(res.C, uncached(t, engine, m, m, opts)) {
					t.Fatalf("%s: the product differs from the uncached one", what)
				}
				if !s.DeleteMatrix(h) {
					t.Fatalf("%s: delete failed", what)
				}
			}
			multiply("first upload", a, false)
			multiply("the same content, uploaded again", a.Clone(), true)
			fresh := a.Clone()
			for i := range fresh.Data {
				fresh.Data[i] = float64(i%7) - 2.5
			}
			multiply("the same pattern, new values", fresh, true)
			if hits, misses, _ := s.PlanCache().Counters(); hits != 2 || misses != 1 {
				t.Fatalf("plan cache counted %d hits, %d misses; want 2 and 1", hits, misses)
			}
		})
	}
}

// collidingOperands is a 4 × 4 A and two B operands of one shape and nnz
// under one structural fingerprint (collidingPatterns): every row of
// A·B holds one or two entries whichever B it is, so a replay of one
// product's plan into the other would fit row for row.
func collidingOperands(t *testing.T) (a, resident, collider *spgemm.Matrix) {
	a = &spgemm.Matrix{Rows: 4, Cols: 4, RowOffsets: []int64{0, 2, 3, 4, 6},
		ColIDs: []int32{0, 3, 1, 2, 0, 3}, Data: []float64{1, 5, 2, 3, 4, 6}}
	resident, collider = collidingPatterns(t, math.MaxInt32)
	return a, resident, collider
}

// TestCollidingReuploadRunsCold: over HTTP, a·resident is multiplied and
// the resident deleted, which retires its pattern but leaves its plan
// cached; a pattern colliding with it can then be stored, and a·collider
// must come back as the uncached product, counted as a plan-cache miss
// and a collision, and leave the resident's plan in place.
func TestCollidingReuploadRunsCold(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer s.Drain(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cli := apiv1.NewClient(ts.URL)
	store := func(m *spgemm.Matrix) string {
		t.Helper()
		resp, err := cli.StoreMatrix(apiv1.MatrixRequest{Data: apiv1.MatrixDataFrom(m)})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Handle
	}
	a, resident, collider := collidingOperands(t)
	ha, hr := store(a), store(resident)
	if _, err := cli.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: ha, BHandle: hr}); err != nil {
		t.Fatal(err)
	}
	if err := cli.DeleteMatrix(hr); err != nil {
		t.Fatal(err)
	}
	hc := store(collider)
	resp, err := cli.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: ha, BHandle: hc, StoreC: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := cli.FetchMatrix(context.Background(), resp.CHandle)
	if err != nil {
		t.Fatal(err)
	}
	got, err := data.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(got, uncached(t, "cpu", a, collider, nil)) {
		t.Fatal("a·collider differs from the uncached product: the resident's plan was replayed")
	}
	m, err := cli.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m[metrics.CounterPlanCacheCollisions] != 1 || m[metrics.CounterPlanCacheMisses] != 2 || m[metrics.CounterPlanCacheHits] != 0 {
		t.Fatalf("metrics: %v collisions, %v misses, %v hits; want 1, 2 and 0", m[metrics.CounterPlanCacheCollisions],
			m[metrics.CounterPlanCacheMisses], m[metrics.CounterPlanCacheHits])
	}
	if !s.PlanCache().HasPlan(spgemm.RunOptions{}.PlanKey(a, resident)) {
		t.Fatal("the collision displaced the resident's plan")
	}
}

// TestBatchNodeCollidingOutputRunsCold: a batch node's output is keyed
// by its fingerprint like any operand, and a client shapes its structure
// through the node's operands — here a permutation S times an upload X
// whose rows, reversed, are a pattern colliding with a resident one. A
// later node multiplying that output must not replay the plan cached
// for the resident pattern: it runs cold and returns the uncached
// product.
func TestBatchNodeCollidingOutputRunsCold(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer s.Drain(0)
	a, resident, collider := collidingOperands(t)
	perm := &spgemm.Matrix{Rows: 4, Cols: 4, RowOffsets: []int64{0, 1, 2, 3, 4},
		ColIDs: []int32{3, 2, 1, 0}, Data: []float64{1, 1, 1, 1}}
	x := uncached(t, "cpu", perm, collider, nil) // the collider's rows, reversed
	handles := map[string]string{}
	for name, m := range map[string]*spgemm.Matrix{"a": a, "resident": resident, "perm": perm, "x": x} {
		h, err := s.StoreMatrix(m)
		if err != nil {
			t.Fatal(err)
		}
		handles[name] = h
	}
	if _, err := s.Submit(Job{Engine: "cpu", AHandle: handles["a"], BHandle: handles["resident"]}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.SubmitBatch(&apiv1.BatchRequest{Engine: "cpu", Nodes: []apiv1.BatchNode{
		{ID: "shaped", A: apiv1.Operand{Handle: handles["perm"]}, B: &apiv1.Operand{Handle: handles["x"]}},
		{ID: "victim", A: apiv1.Operand{Handle: handles["a"]}, B: &apiv1.Operand{Node: "shaped"}, Store: true},
	}})
	if err != nil || resp.Completed != 2 || resp.Nodes[1].Status != apiv1.StatusOK {
		t.Fatalf("%v, %+v", err, resp)
	}
	if resp.Nodes[1].PlanCacheHit {
		t.Fatal("the node whose operand collides with the resident pattern replayed its plan")
	}
	got, ok := s.Matrix(resp.Nodes[1].Handle)
	if !ok {
		t.Fatal("the node's stored output does not resolve")
	}
	if !bitIdentical(got, uncached(t, "cpu", a, collider, nil)) {
		t.Fatal("a·(S·X) differs from the uncached product: the resident's plan was replayed")
	}
	if n := s.Snapshot()[metrics.CounterPlanCacheCollisions]; n != 1 {
		t.Fatalf("%d collisions counted, want 1", n)
	}
}
