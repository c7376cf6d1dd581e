package spgemm

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/cpuspgemm"
	"repro/internal/csr"
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
// symbolic pass (row analysis, the product's structure emit, symbolic
// phase, classification).
func symbolicWallSpans(col *Collector) int {
	n := 0
	for _, s := range col.Spans() {
		if s.Domain == metrics.Wall && (strings.Contains(s.Label, "analysis") || s.Label == "structure" ||
			strings.Contains(s.Label, "symbolic") || strings.Contains(s.Label, "classify")) {
			n++
		}
	}
	return n
}

// TestPlanCacheEngines runs each cache-aware registry engine twice on
// a fixed pattern with refreshed values: the second run must hit the
// cache and stay byte-identical to an uncached run of the same inputs.
// A cold device run pays exactly two whole-matrix symbolic passes — the
// count where it plans the grid, the emit of C's structure before the
// first chunk — however many chunks the grid has; a warm one pays none:
// the row analysis and the structure come back with the plan.
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
		if n := symbolicWallSpans(opts.Metrics); DeviceBacked(name) && n != 2 {
			t.Fatalf("%s cold: %d whole-matrix symbolic passes, want 2 (count, emit)", name, n)
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

// TestPlanCacheGridMemo pins the grid memo's contract: the planning call
// hands its row analysis on, the memo keeps the grid only, a repeated
// plan() of the same pair and device size is served from the memo
// without a second row-analysis pass, and the device size is part of
// the key.
func TestPlanCacheGridMemo(t *testing.T) {
	a := RMAT(9, 8, 0.57, 0.19, 0.19, 52)
	cfg := V100WithMemory(1 << 20)
	pc := NewPlanCache(0)

	col := NewCollector()
	planned, err := pc.plan(a, a, RunOptions{Device: &cfg, Metrics: col})
	if err != nil {
		t.Fatal(err)
	}
	if planned.Analysis == nil {
		t.Fatal("the planning pass did not hand its row analysis on")
	}
	if n := symbolicWallSpans(col); n != 1 {
		t.Fatalf("planning pass: %d row-analysis wall spans, want 1", n)
	}
	want, err := Plan(a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want.Analysis = nil
	key := gridKey{fpA: Fingerprint(a), fpB: Fingerprint(a), nnzA: a.Nnz(), nnzB: a.Nnz(), memBytes: cfg.MemoryBytes}
	if memo, ok := pc.grids[key]; !ok || memo != want {
		t.Fatalf("memo %+v (present=%v), want the planned grid without its analysis %+v", memo, ok, want)
	}

	col = NewCollector()
	served, err := pc.plan(a, a, RunOptions{Device: &cfg, Metrics: col})
	if err != nil {
		t.Fatal(err)
	}
	if served != want {
		t.Fatalf("repeated plan() returned %+v, want the memoised grid %+v", served, want)
	}
	if n := symbolicWallSpans(col); n != 0 {
		t.Fatalf("memoised plan(): %d row-analysis wall spans, want none", n)
	}

	col = NewCollector()
	bigger := V100WithMemory(2 << 20)
	if _, err := pc.plan(a, a, RunOptions{Device: &bigger, Metrics: col}); err != nil {
		t.Fatal(err)
	}
	if n := symbolicWallSpans(col); n != 1 || len(pc.grids) != 2 {
		t.Fatalf("a different device size: %d row-analysis spans, %d memos; want 1 and 2", n, len(pc.grids))
	}
}

// TestPlanCacheConcurrentColdRuns starts N cpu-engine runs of one
// pattern on an empty shared cache: however many of them miss and plan,
// the cache ends with one entry accounted once (first store wins), each
// run counts as exactly one hit or miss, and every product is the same.
func TestPlanCacheConcurrentColdRuns(t *testing.T) {
	a := RMAT(10, 8, 0.57, 0.19, 0.19, 44)
	pc := NewPlanCache(0)
	eng, _ := ByName("cpu")
	const runs = 8
	products := make([]*Matrix, runs)
	errs := make([]error, runs)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			products[i], _, errs[i] = eng.Run(a, a, &RunOptions{PlanCache: pc})
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		mustBitIdentical(t, products[0], products[i])
	}
	hits, misses, _ := pc.Counters()
	if misses < 1 || hits+misses != runs {
		t.Fatalf("hits=%d misses=%d, want %d in total with at least one miss", hits, misses, runs)
	}
	if pc.Len() != 1 {
		t.Fatalf("Len = %d, want 1", pc.Len())
	}
	key := RunOptions{}.PlanKey(a, a)
	stored := pc.acquireCPU(key)
	if stored == nil || pc.bytes != stored.bytes || stored.bytes != stored.sym.Bytes()+csr.IdentityBytes {
		t.Fatalf("cache accounts %d bytes, want one plan's %d", pc.bytes, stored.bytes)
	}
	// A late store of the same pattern — what a run that missed beside
	// the winner does — changes neither the entry nor the account.
	_, late, err := cpuspgemm.MultiplyPlanned(a, a, cpuspgemm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pc.storeCPU(key, late)
	if got := pc.acquireCPU(key); got != stored || pc.bytes != stored.bytes || pc.Len() != 1 {
		t.Fatal("a second store of one pattern displaced or double-counted the first")
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
