package spgemm

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// refreshValues returns a copy of m sharing the sparsity pattern with
// new deterministic values — the iterative-workload shape (fixed
// structure, fresh numerics) the plan cache accelerates.
func refreshValues(m *Matrix, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	out := &Matrix{
		Rows: m.Rows, Cols: m.Cols,
		RowOffsets: m.RowOffsets, ColIDs: m.ColIDs,
		Data: make([]float64, len(m.Data)),
	}
	for i := range out.Data {
		out.Data[i] = rng.NormFloat64()
	}
	return out
}

func mustBitIdentical(t *testing.T, cold, warm *Matrix) {
	t.Helper()
	if cold.Rows != warm.Rows || cold.Cols != warm.Cols || len(cold.ColIDs) != len(warm.ColIDs) {
		t.Fatalf("shape/nnz mismatch: %dx%d/%d vs %dx%d/%d",
			cold.Rows, cold.Cols, len(cold.ColIDs), warm.Rows, warm.Cols, len(warm.ColIDs))
	}
	for i := range cold.RowOffsets {
		if cold.RowOffsets[i] != warm.RowOffsets[i] {
			t.Fatalf("row offset %d: %d != %d", i, cold.RowOffsets[i], warm.RowOffsets[i])
		}
	}
	for i := range cold.ColIDs {
		if cold.ColIDs[i] != warm.ColIDs[i] {
			t.Fatalf("col id %d: %d != %d", i, cold.ColIDs[i], warm.ColIDs[i])
		}
	}
	for i := range cold.Data {
		if math.Float64bits(cold.Data[i]) != math.Float64bits(warm.Data[i]) {
			t.Fatalf("value %d: bits differ (%v vs %v)", i, cold.Data[i], warm.Data[i])
		}
	}
}

// symbolicWallSpans counts the run's wall-clock spans that name a
// symbolic pass (row analysis, symbolic phase, classification).
func symbolicWallSpans(col *Collector) int {
	n := 0
	for _, s := range col.Spans() {
		if s.Domain == metrics.Wall && (strings.Contains(s.Label, "analysis") ||
			strings.Contains(s.Label, "symbolic") || strings.Contains(s.Label, "classify")) {
			n++
		}
	}
	return n
}

// TestPlanCacheEngines runs each cache-aware registry engine twice on
// a fixed pattern with refreshed values: the second run must hit the
// cache and stay byte-identical to an uncached run of the same inputs.
// A cold device run pays exactly one whole-matrix symbolic pass (where
// it plans the grid); a warm one pays none — the row analysis the
// hybrid engines' host cost model needs comes back with the plan.
func TestPlanCacheEngines(t *testing.T) {
	a := RMAT(9, 8, 0.57, 0.19, 0.19, 41)
	for _, name := range []string{"cpu", "gpu", "gpu-sync", "hybrid", "multigpu"} {
		pc := NewPlanCache(0)
		eng, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := runOptsFor(name)
		opts.PlanCache = pc
		opts.Metrics = NewCollector()
		if _, _, err := eng.Run(a, a, opts); err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		if n := symbolicWallSpans(opts.Metrics); DeviceBacked(name) && n != 1 {
			t.Fatalf("%s cold: %d whole-matrix symbolic passes, want 1", name, n)
		}
		opts.Metrics = NewCollector()
		fresh := refreshValues(a, 42)
		cold, _, err := eng.Run(fresh, fresh, runOptsFor(name))
		if err != nil {
			t.Fatalf("%s uncached: %v", name, err)
		}
		warm, _, err := eng.Run(fresh, fresh, opts)
		if err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
		mustBitIdentical(t, cold, warm)
		hits, misses, _ := pc.Counters()
		if hits == 0 {
			t.Fatalf("%s: no plan cache hits after a repeat run (misses=%d)", name, misses)
		}
		if n := symbolicWallSpans(opts.Metrics); n != 0 {
			t.Fatalf("%s warm: %d symbolic wall spans, want none", name, n)
		}
	}
}

// TestPlanCacheCPUCounters pins the cpu engine's hit/miss accounting:
// N runs on one pattern are 1 miss + N-1 hits, in both the cache's own
// counters and the per-run metrics collector.
func TestPlanCacheCPUCounters(t *testing.T) {
	a := ER(300, 300, 0.02, 43)
	pc := NewPlanCache(0)
	col := NewCollector()
	eng, _ := ByName("cpu")
	const runs = 4
	for i := 0; i < runs; i++ {
		if _, _, err := eng.Run(a, a, &RunOptions{PlanCache: pc, Metrics: col}); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, _ := pc.Counters()
	if misses != 1 || hits != runs-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, runs-1)
	}
	if got := col.Counter(metrics.CounterPlanCacheHits); got != hits {
		t.Fatalf("metrics hit counter %d != cache %d", got, hits)
	}
	if got := col.Counter(metrics.CounterPlanCacheMisses); got != misses {
		t.Fatalf("metrics miss counter %d != cache %d", got, misses)
	}
}

// TestPlanCacheInvalidateFacade invalidates one pattern's fingerprint
// and checks exactly its entries (cpu and device halves) disappear.
func TestPlanCacheInvalidateFacade(t *testing.T) {
	a := ER(200, 200, 0.03, 44)
	b := ER(200, 200, 0.03, 45)
	pc := NewPlanCache(0)
	for _, eng := range []string{"cpu", "gpu"} {
		e, _ := ByName(eng)
		for _, m := range []*Matrix{a, b} {
			opts := runOptsFor(eng)
			opts.PlanCache = pc
			if _, _, err := e.Run(m, m, opts); err != nil {
				t.Fatalf("%s: %v", eng, err)
			}
		}
	}
	before := pc.Len()
	if before != 4 { // 2 patterns x (cpu sym + device plan)
		t.Fatalf("cache has %d entries, want 4", before)
	}
	if n := pc.Invalidate(Fingerprint(a)); n < 2 {
		t.Fatalf("invalidated %d entries for pattern a, want >= 2 (cpu + device)", n)
	}
	if pc.Len() != 2 {
		t.Fatalf("cache has %d entries after invalidate, want 2", pc.Len())
	}
	// Pattern b must still be warm on both engines.
	h0, _, _ := pc.Counters()
	for _, eng := range []string{"cpu", "gpu"} {
		e, _ := ByName(eng)
		opts := runOptsFor(eng)
		opts.PlanCache = pc
		if _, _, err := e.Run(b, b, opts); err != nil {
			t.Fatal(err)
		}
	}
	h1, _, _ := pc.Counters()
	if h1-h0 != 2 {
		t.Fatalf("pattern b got %d hits after invalidating a, want 2", h1-h0)
	}
}

// TestEstimateCostPlansOnce is the double-planning fix: EstimateCost
// writes the planned grid back into opts.Core, so the engine run that
// follows sees a non-zero grid and skips its own Plan call.
func TestEstimateCostPlansOnce(t *testing.T) {
	a := RMAT(9, 8, 0.57, 0.19, 0.19, 46)
	opts := runOptsFor("gpu")
	cost, err := EstimateCost("gpu", a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Core.RowPanels == 0 || opts.Core.ColPanels == 0 {
		t.Fatalf("EstimateCost did not thread the planned grid back (grid %dx%d)",
			opts.Core.RowPanels, opts.Core.ColPanels)
	}
	if got := opts.Core.RowPanels * opts.Core.ColPanels; got != cost.Chunks {
		t.Fatalf("written-back grid %d chunks != estimated %d", got, cost.Chunks)
	}
	// The run must agree with the estimate — same grid, no re-plan.
	eng, _ := ByName("gpu")
	_, rep, err := eng.Run(a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("no report")
	}
	// And a second estimate with the grid already present is stable.
	cost2, err := EstimateCost("gpu", a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cost2.Chunks != cost.Chunks {
		t.Fatalf("re-estimate changed chunks %d -> %d", cost.Chunks, cost2.Chunks)
	}
}
