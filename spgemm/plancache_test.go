package spgemm

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/metrics"
	"repro/internal/speck"
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
// symbolic pass or the product's structure (row analysis, the product's
// split table, symbolic phase, classification).
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
// A cold device run pays exactly two whole-matrix structure spans — the
// walk that counts and emits C's structure where it plans the grid, the
// split table before the first chunk — however many chunks the grid
// has; a warm one pays none: the row analysis and the structure come
// back with the plan.
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
			t.Fatalf("%s cold: %d whole-matrix structure spans, want 2 (walk, split table)", name, n)
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
	planned, _, err := pc.plan(a, a, RunOptions{Device: &cfg, Metrics: col})
	if err != nil {
		t.Fatal(err)
	}
	if planned.analysisOf(a, a) == nil {
		t.Fatal("the planning pass did not hand its row analysis on")
	}
	if n := symbolicWallSpans(col); n != 1 {
		t.Fatalf("planning pass: %d row-analysis wall spans, want 1", n)
	}
	want, err := Plan(a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows, cols, _, ok := pc.core().Grid(RunOptions{}.PlanKey(a, a), cfg.MemoryBytes); !ok || rows != want.RowPanels || cols != want.ColPanels {
		t.Fatalf("memo %dx%d (present=%v), want the planned grid %dx%d", rows, cols, ok, want.RowPanels, want.ColPanels)
	}

	col = NewCollector()
	served, _, err := pc.plan(a, a, RunOptions{Device: &cfg, Metrics: col})
	if err != nil {
		t.Fatal(err)
	}
	if served.RowPanels != want.RowPanels || served.ColPanels != want.ColPanels || !served.planned || served.analysisOf(a, a) != nil {
		t.Fatalf("repeated plan() returned %+v, want the memoised grid %+v, planned, without an analysis", served, want)
	}
	if n := symbolicWallSpans(col); n != 0 {
		t.Fatalf("memoised plan(): %d row-analysis wall spans, want none", n)
	}

	col = NewCollector()
	bigger := V100WithMemory(2 << 20)
	if _, _, err := pc.plan(a, a, RunOptions{Device: &bigger, Metrics: col}); err != nil {
		t.Fatal(err)
	}
	if n := symbolicWallSpans(col); n != 1 || pc.core().Memos() != 2 {
		t.Fatalf("a different device size: %d row-analysis spans, %d memos; want 1 and 2", n, pc.core().Memos())
	}
}

// TestPlanCacheConcurrentColdRuns starts N cpu-engine runs of one
// pattern on an empty shared cache: however many of them miss and plan,
// the cache ends with one entry accounted once (first store wins: the
// plan, the product's record and one copy of the operand structure,
// which is A's and B's both), each run counts as exactly one hit or
// miss, and every product is the same.
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
	stored, _ := pc.acquireCPU(a, a, RunOptions{})
	if stored == nil {
		t.Fatal("no plan cached")
	}
	storedBytes, _, _ := pc.core().Held(stored)
	if pc.core().Bytes() != storedBytes || storedBytes != stored.Sym.Bytes()+csr.IdentityBytes+structBytes(a) {
		t.Fatalf("cache accounts %d bytes, want one plan's %d", pc.core().Bytes(), storedBytes)
	}
	// A late store of the same pattern — what a run that missed beside
	// the winner does — changes neither the entry nor the account.
	_, late, err := cpuspgemm.MultiplyPlanned(a, a, cpuspgemm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pc.storeCPU(a, a, RunOptions{}, late)
	if got, _ := pc.acquireCPU(a, a, RunOptions{}); got != stored || pc.core().Bytes() != storedBytes || pc.Len() != 1 {
		t.Fatal("a second store of one pattern displaced or double-counted the first")
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

// TestPlanCacheBindsSchedules: the first warm replay whose operands come
// with their records builds and checks the plan's replay schedule and
// binds it to those records, charged to the entry's bytes beside the
// plan, the product's record and the operands' structure, charged once
// (the plan shares A's arrays, which are B's too); a later replay with
// the same records builds none and is bit for bit the checked replay's
// product. Operands without records or with a record of another matrix
// take the checked build per chunk and bind nothing. The plan remembers
// two record pairs, the least recently passed going first when a third
// arrives; a pair of the plan's own arrays adds no operand bytes.
func TestPlanCacheBindsSchedules(t *testing.T) {
	a := BlockDiag(40, 8, 3)
	eng, _ := ByName("cpu")
	pc := NewPlanCache(0)
	aid := mustIdentify(t, a)
	bound := &RunOptions{PlanCache: pc, AID: aid, BID: aid, Threads: 1}
	if _, _, err := eng.Run(a, a, bound); err != nil {
		t.Fatal(err)
	}
	ent := pc.peekCPU(a, a, *bound)
	fresh := refreshValues(a, 5) // a's structure arrays, other values
	want, _, err := eng.Run(fresh, fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(what string, o *RunOptions) (built int64) {
		t.Helper()
		before := speck.SchedulesBuilt()
		got, _, err := eng.Run(fresh, fresh, o)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		mustBitIdentical(t, want, got)
		return speck.SchedulesBuilt() - before
	}
	schedBytes := ent.Sym.Schedule(a, a).Bytes()
	held := func(what string, wantScheds int) {
		t.Helper()
		entBytes, n, _ := pc.core().Held(ent)
		want := ent.Sym.Bytes() + csr.IdentityBytes + structBytes(a) + int64(wantScheds)*schedBytes
		if n != wantScheds || entBytes != want || pc.core().Bytes() != entBytes {
			t.Fatalf("%s: %d schedules bound, entry charged %d bytes, cache %d; want %d and %d (plan, record, operand structure once, schedules)",
				what, n, entBytes, pc.core().Bytes(), wantScheds, want)
		}
	}

	if n := run("first bound replay", bound); n != 1 {
		t.Fatalf("first bound replay: %d schedules built, want 1", n)
	}
	held("first bound replay", 1)
	for i := 0; i < 3; i++ {
		if n := run("bound replay", bound); n != 0 {
			t.Fatalf("bound replay %d built %d schedules, want 0", i, n)
		}
	}
	foreign := mustIdentify(t, BlockDiag(40, 8, 4)) // one pattern, other arrays
	for what, o := range map[string]*RunOptions{
		"no records":                 {PlanCache: pc, Threads: 1},
		"a record of another matrix": {PlanCache: pc, AID: foreign, BID: foreign, Threads: 1},
		"one record of two":          {PlanCache: pc, AID: aid, Threads: 1},
	} {
		if n := run(what, o); n == 0 {
			t.Fatalf("%s: no schedule built, want a checked build", what)
		}
		held(what, 1)
	}
	pair := func() *RunOptions {
		id := mustIdentify(t, a) // a's arrays, another record
		return &RunOptions{PlanCache: pc, AID: id, BID: id, Threads: 1}
	}
	second, third := pair(), pair()
	for _, step := range []struct {
		what  string
		o     *RunOptions
		built int64
	}{
		{"a second pair", second, 1},
		{"the first pair beside the second", bound, 0},
		{"a third pair, displacing the second", third, 1},
		{"the first pair beside the third", bound, 0},
		{"the third pair", third, 0},
		{"the displaced second pair", second, 1},
	} {
		if n := run(step.what, step.o); n != step.built {
			t.Fatalf("%s: %d schedules built, want %d", step.what, n, step.built)
		}
		held(step.what, 2)
	}
}

// TestPlanCacheScheduleConcurrentReplays runs bound, unbound and binding
// warm replays of one plan from several goroutines, on the plan's own
// operand arrays and on a copy of them that each hit compares (a race
// detector run checks the publication of schedules and the record pairs
// that pass, displace each other and are charged); every product is the
// checked replay's, bit for bit.
func TestPlanCacheScheduleConcurrentReplays(t *testing.T) {
	a := BlockDiag(32, 8, 6)
	eng, _ := ByName("cpu")
	pc := NewPlanCache(0)
	if _, _, err := eng.Run(a, a, &RunOptions{PlanCache: pc}); err != nil {
		t.Fatal(err)
	}
	fresh := refreshValues(a, 7)
	want, _, err := eng.Run(fresh, fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	copied := fresh.Clone() // the pattern in arrays of its own
	type operand struct {
		m  *Matrix
		id *Identity
	}
	ops := []operand{{fresh, nil}, {fresh, mustIdentify(t, a)}, {fresh, mustIdentify(t, a)}, {fresh, mustIdentify(t, a)},
		{copied, nil}, {copied, mustIdentify(t, copied)}}
	var wg sync.WaitGroup
	errs := make(chan error, 8*10)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				op := ops[(g+i)%len(ops)]
				got, _, err := eng.Run(op.m, op.m, &RunOptions{PlanCache: pc, AID: op.id, BID: op.id, Threads: 2})
				if err == nil && !slices.EqualFunc(got.Data, want.Data, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
					err = errors.New("a concurrent warm replay differs from the checked one")
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPlanCacheBoundsGridMemos admits and runs many distinct device
// patterns through one small cache, as a server does with inline
// operands it never stores: the grid memos are charged to the cache's
// one budget and evicted with the plans, so after every job the cache
// holds no more than its budget (or its one youngest entry) and the
// memos do not pile up.
func TestPlanCacheBoundsGridMemos(t *testing.T) {
	const budget, patterns = 64 << 10, 400
	const memoBytes = 512 // what the cache charges a grid memo
	pc := NewPlanCache(budget)
	eng, _ := ByName("hybrid")
	for i := 0; i < patterns; i++ {
		a := ER(48, 48, 0.08, int64(1000+i))
		o := runOptsFor("hybrid")
		o.PlanCache = pc
		if _, err := EstimateCost("hybrid", a, a, o); err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.Run(a, a, o); err != nil {
			t.Fatal(err)
		}
		held, entries := pc.core().Bytes(), pc.Len()+pc.core().Memos()
		if held > budget && entries > 1 {
			t.Fatalf("job %d: cache holds %d bytes in %d entries, over its %d-byte budget", i, held, entries, budget)
		}
		if memos := pc.core().Memos(); memos > budget/memoBytes {
			t.Fatalf("job %d: %d grid memos held, more than %d fit the budget", i, memos, budget/memoBytes)
		}
	}
}

// TestPlanCacheOneBudget fills a cache with CPU plans only: they may use
// the whole budget, not half of it, and none is evicted while they fit.
// Each is charged its plan, its product's record and one copy of its
// operand's structure.
func TestPlanCacheOneBudget(t *testing.T) {
	const budget = 1 << 20
	pc := NewPlanCache(budget)
	eng, _ := ByName("cpu")
	var total int64
	plans := 0
	for seed := int64(1); total <= budget*3/4; seed++ {
		a := ER(400, 400, 0.02, seed)
		_, sym, err := cpuspgemm.MultiplyPlanned(a, a, cpuspgemm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.Run(a, a, &RunOptions{PlanCache: pc}); err != nil {
			t.Fatal(err)
		}
		total += sym.Bytes() + csr.IdentityBytes + structBytes(a)
		plans++
	}
	if total > budget {
		t.Fatalf("the plans take %d bytes, more than the %d-byte budget", total, budget)
	}
	_, _, evictions := pc.Counters()
	if evictions != 0 || pc.Len() != plans || pc.core().Bytes() != total {
		t.Fatalf("cache holds %d of %d plans in %d bytes after %d evictions; want all %d bytes, none evicted",
			pc.Len(), plans, pc.core().Bytes(), evictions, total)
	}
}

// TestEstimateCostReadsTheGridMemo: the grid memo keeps the pair's flop
// count, so a second device-engine estimate of operands with their
// records is served from it — no planning pass and no flop scan.
func TestEstimateCostReadsTheGridMemo(t *testing.T) {
	a := RMAT(9, 8, 0.57, 0.19, 0.19, 53)
	aid := mustIdentify(t, a)
	pc := NewPlanCache(0)
	estimate := func() (Cost, int64) {
		t.Helper()
		o := runOptsFor("hybrid")
		o.PlanCache, o.AID, o.BID, o.Metrics = pc, aid, aid, NewCollector()
		cost, err := EstimateCost("hybrid", a, a, o)
		if err != nil {
			t.Fatal(err)
		}
		return cost, passes(o.Metrics)
	}
	first, _ := estimate()
	second, n := estimate()
	if n != 0 || second != first || second.Flops != Flops(a, a) {
		t.Fatalf("second estimate %+v with %d identity passes; want %+v (%d flops) and none", second, n, first, Flops(a, a))
	}
}
