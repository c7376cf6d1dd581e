package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cpuspgemm"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// TestReleaseKeepsStoredProductsIntact drives, in parallel over one
// pattern and two value sets, every place the server hands a product's
// values back to its plan: handle multiplies without store_c, store_c
// multiplies that dedupe after the first, and 4-node chains with a p·p
// node that store their first product (deduping with the store_c
// multiplies) and their last. A released array the server still held
// would show as a collision on a dedupe or as a stored matrix whose
// values no longer hash to its handle or equal the reference.
func TestReleaseKeepsStoredProductsIntact(t *testing.T) {
	s := New(Config{MaxConcurrent: 4})
	defer s.Drain(0)
	a := spgemm.BlockDiag(24, 6, 3)
	ops := []*spgemm.Matrix{a, spgemm.Revalue(a, 8)}
	handles := make([]string, len(ops))
	want := map[int]map[int]*spgemm.Matrix{} // operand, power -> product, in the chain's order
	for i, m := range ops {
		var err error
		if handles[i], err = s.StoreMatrix(m); err != nil {
			t.Fatal(err)
		}
		want[i] = map[int]*spgemm.Matrix{1: m}
		for _, f := range [][3]int{{2, 1, 1}, {3, 2, 1}, {6, 3, 3}, {7, 6, 1}} {
			if want[i][f[0]], err = cpuspgemm.Sequential(want[i][f[1]], want[i][f[2]]); err != nil {
				t.Fatal(err)
			}
		}
	}
	chain := func(h string) *apiv1.BatchRequest {
		return &apiv1.BatchRequest{Engine: "cpu", Nodes: []apiv1.BatchNode{
			{ID: "p2", A: apiv1.Operand{Handle: h}, Store: true},
			{ID: "p3", A: apiv1.Operand{Node: "p2"}, B: &apiv1.Operand{Handle: h}},
			{ID: "p6", A: apiv1.Operand{Node: "p3"}, B: &apiv1.Operand{Node: "p3"}},
			{ID: "p7", A: apiv1.Operand{Node: "p6"}, B: &apiv1.Operand{Handle: h}, Store: true},
		}}
	}

	type stored struct {
		handle    string
		op, power int
	}
	var mu sync.Mutex
	var kept []stored
	var errs []error
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := g % len(ops)
			h := handles[op]
			for round := 0; round < 8; round++ {
				var got []stored
				var err error
				switch g / len(ops) {
				case 0:
					_, err = s.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: h})
				case 1:
					var resp *apiv1.MultiplyResponse
					if resp, err = s.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: h, StoreC: true}); err == nil {
						got = append(got, stored{resp.CHandle, op, 2})
					}
				default:
					var resp *apiv1.BatchResponse
					if resp, err = s.SubmitBatch(chain(h)); err == nil && resp.Completed != 4 {
						err = fmt.Errorf("chain completed %d of 4 nodes: %+v", resp.Completed, resp.Nodes)
					}
					if err == nil {
						got = append(got, stored{resp.Nodes[0].Handle, op, 2}, stored{resp.Nodes[3].Handle, op, 7})
					}
				}
				mu.Lock()
				kept = append(kept, got...)
				if err != nil {
					errs = append(errs, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		var ce *CollisionError
		if errors.As(err, &ce) {
			t.Fatalf("a dedupe met a changed array: %v", err)
		}
		t.Fatal(err)
	}
	for _, k := range kept {
		m, ok := s.Matrix(k.handle)
		if !ok {
			t.Fatalf("stored product %s is gone", k.handle)
		}
		if h := handleFor(spgemm.Fingerprint(m), spgemm.FingerprintValues(m)); h != k.handle {
			t.Fatalf("stored product %s re-hashes to %s", k.handle, h)
		}
		if !bitIdentical(m, want[k.op][k.power]) {
			t.Fatalf("stored product %s (operand %d to the power %d) differs from the sequential product", k.handle, k.op, k.power)
		}
	}
}
