package core_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/matgen"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/speck"
)

// diffBits reports the first difference between two matrices, values
// compared by bit pattern (-0.0 differs from 0.0) and NaNs by payload
// too when nanPayloads is set.
func diffBits(got, want *csr.Matrix, nanPayloads bool) error {
	if got == nil {
		return fmt.Errorf("no matrix")
	}
	if got.Rows != want.Rows || got.Cols != want.Cols || got.Nnz() != want.Nnz() {
		return fmt.Errorf("shape %dx%d with %d nnz, want %dx%d with %d",
			got.Rows, got.Cols, got.Nnz(), want.Rows, want.Cols, want.Nnz())
	}
	for i, off := range want.RowOffsets {
		if got.RowOffsets[i] != off {
			return fmt.Errorf("row offset %d is %d, want %d", i, got.RowOffsets[i], off)
		}
	}
	for i, col := range want.ColIDs {
		if got.ColIDs[i] != col {
			return fmt.Errorf("column id %d is %d, want %d", i, got.ColIDs[i], col)
		}
		g, w := got.Data[i], want.Data[i]
		if !nanPayloads && math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("value %d is %v (%#x), want %v (%#x)", i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	return nil
}

func requireBitIdentical(t *testing.T, want, got *csr.Matrix) {
	t.Helper()
	if err := diffBits(got, want, true); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheCountersReconcile runs N jobs on one pattern and one on
// another: hits+misses must equal the job count, and the per-run
// metrics counters must agree with the cache's own totals.
func TestPlanCacheCountersReconcile(t *testing.T) {
	a := matgen.ER(200, 200, 0.03, 24)
	b := matgen.ER(200, 200, 0.03, 25)
	pc := core.NewPlanCache(0)
	col := metrics.New()
	opts := core.Options{RowPanels: 2, ColPanels: 2, PlanCache: pc, Metrics: col}
	const jobsA, jobsB = 4, 2
	for i := 0; i < jobsA; i++ {
		if _, _, err := run(a, a, testCfg(64<<20), opts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < jobsB; i++ {
		if _, _, err := run(b, b, testCfg(64<<20), opts); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, evictions := pc.Counters()
	if hits+misses != jobsA+jobsB {
		t.Fatalf("hits %d + misses %d != %d jobs", hits, misses, jobsA+jobsB)
	}
	if misses != 2 || hits != jobsA+jobsB-2 {
		t.Fatalf("hits=%d misses=%d, want %d/2", hits, misses, jobsA+jobsB-2)
	}
	if evictions != 0 {
		t.Fatalf("unexpected evictions %d", evictions)
	}
	if got := col.Counter(metrics.CounterPlanCacheHits); got != hits {
		t.Fatalf("metrics hit counter %d != cache %d", got, hits)
	}
	if got := col.Counter(metrics.CounterPlanCacheMisses); got != misses {
		t.Fatalf("metrics miss counter %d != cache %d", got, misses)
	}
}

// TestPlanCacheLRUEviction bounds the cache by bytes: inserting a
// second pattern over a tiny budget evicts the least-recently-used.
func TestPlanCacheLRUEviction(t *testing.T) {
	a := matgen.ER(300, 300, 0.03, 28)
	b := matgen.ER(300, 300, 0.03, 29)
	const budget = 1 // smaller than any plan: every insert evicts the previous
	pc := core.NewPlanCache(budget)
	opts := core.Options{RowPanels: 2, ColPanels: 2, PlanCache: pc}
	if _, _, err := run(a, a, testCfg(64<<20), opts); err != nil {
		t.Fatal(err)
	}
	if _, _, err := run(b, b, testCfg(64<<20), opts); err != nil {
		t.Fatal(err)
	}
	_, _, evictions := pc.Counters()
	if evictions == 0 {
		t.Fatal("no evictions under a 1-byte budget")
	}
	if pc.Bytes() > budget+1 && pc.Len() > 1 {
		t.Fatalf("cache retains %d bytes across %d entries over budget", pc.Bytes(), pc.Len())
	}
}

// TestPlanCacheDeviceLossInvalidatesResidency is the chaos scenario:
// a device dies while a cached plan's panels are recorded resident.
// The loss must clear the residency record, and the next run on the
// pattern must fall back to cold panel transfers (BytesH2D > 0) and
// still produce the exact product — never serve stale residency.
func TestPlanCacheDeviceLossInvalidatesResidency(t *testing.T) {
	a := matgen.RMAT(8, 8, 0.57, 0.19, 0.19, 30)
	pc := core.NewPlanCache(0)
	base := core.Options{RowPanels: 2, ColPanels: 2, PlanCache: pc}

	// Job 1: cold; records plan and panel residency.
	want, _, err := run(a, a, testCfg(64<<20), base)
	if err != nil {
		t.Fatal(err)
	}

	// Job 2: warm, but the device is lost mid-run.
	lossy := base
	lossy.Faults = faults.Config{Seed: 1, LossAfterOps: 3}
	if _, _, err := run(a, a, testCfg(64<<20), lossy); err == nil {
		t.Fatal("device-loss run unexpectedly succeeded")
	}

	// Job 3: fault-free warm run. The plan structure is still valid,
	// but residency must have been invalidated: the panels transfer
	// again from the host.
	got, st, err := run(a, a, testCfg(64<<20), base)
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesH2D == 0 {
		t.Fatal("run after device loss moved no H2D bytes: stale residency served")
	}
	requireBitIdentical(t, want, got)
}

// TestPlanCacheDynamicAllocStaysCold pins that unmodified-spECK mode
// never engages the plan cache.
func TestPlanCacheDynamicAllocStaysCold(t *testing.T) {
	a := matgen.ER(100, 100, 0.05, 31)
	pc := core.NewPlanCache(0)
	opts := core.Options{RowPanels: 2, ColPanels: 2, DynamicAlloc: true, PlanCache: pc}
	for i := 0; i < 2; i++ {
		if _, _, err := run(a, a, testCfg(64<<20), opts); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, _ := pc.Counters()
	if hits != 0 || misses != 0 || pc.Len() != 0 {
		t.Fatalf("dynamic mode touched the plan cache: hits=%d misses=%d len=%d", hits, misses, pc.Len())
	}
}

// TestPlanCacheRowAnalysis pins the row analysis' place in the plan
// entry: the first engine on a pattern computes it (or is handed it)
// and records it beside the chunk flops, byte-accounted; every later
// engine on the pattern gets the same value back without a symbolic
// pass; an engine handed the analysis on an empty cache records it.
func TestPlanCacheRowAnalysis(t *testing.T) {
	a := matgen.RMAT(8, 8, 0.57, 0.19, 0.19, 31)
	pc := core.NewPlanCache(0)
	analyze := func(opts core.Options) (*speck.RowAnalysis, int) {
		opts.RowPanels, opts.ColPanels, opts.PlanCache = 2, 2, pc
		opts.Metrics = metrics.New()
		eng, err := core.NewEngine(gpusim.NewDevice(sim.NewEnv(), testCfg(64<<20)), a, a, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Teardown()
		ra := eng.RowAnalysis()
		passes := 0
		for _, s := range opts.Metrics.Spans() {
			if s.Domain == metrics.Wall && s.Label == "row analysis" {
				passes++
			}
		}
		return ra, passes
	}

	cold, passes := analyze(core.Options{})
	if passes != 1 {
		t.Fatalf("cold engine ran %d row analyses, want 1", passes)
	}
	if want := speck.Analyze(a, a, 1); !reflect.DeepEqual(cold, want) {
		t.Fatal("engine's row analysis differs from speck.Analyze")
	}
	withAnalysis := pc.Bytes()
	warm, passes := analyze(core.Options{})
	if warm != cold || passes != 0 {
		t.Fatalf("warm engine: same analysis %v, %d symbolic passes; want the cached value and none", warm == cold, passes)
	}
	if pc.Bytes() != withAnalysis {
		t.Fatalf("re-recording the analysis grew the cache: %d -> %d", withAnalysis, pc.Bytes())
	}

	// A handed-in analysis (the planner's) is taken as is and recorded.
	pc = core.NewPlanCache(0)
	handed, passes := analyze(core.Options{Analysis: cold})
	if handed != cold || passes != 0 {
		t.Fatal("engine recomputed an analysis it was handed")
	}
	if pc.Bytes() != withAnalysis {
		t.Fatalf("cache holds %d bytes with a handed-in analysis, want %d", pc.Bytes(), withAnalysis)
	}
	if again, passes := analyze(core.Options{}); again != cold || passes != 0 {
		t.Fatal("handed-in analysis was not recorded on the plan entry")
	}
}
