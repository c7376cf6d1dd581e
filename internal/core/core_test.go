package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/matgen"
	"repro/internal/metrics"
	"repro/internal/multigpu"
)

// testCfg returns a device sized so the test matrices are genuinely
// out-of-core (the whole product cannot fit at once).
func testCfg(memBytes int64) gpusim.DeviceConfig {
	return gpusim.ScaledV100Config(memBytes)
}

// run multiplies A·B on the driver's GPU-only node — one device, no CPU
// worker, the paper's out-of-core GPU framework — and returns its core
// stats, the whole report of such a run.
func run(a, b *csr.Matrix, cfg gpusim.DeviceConfig, opts core.Options) (*csr.Matrix, core.Stats, error) {
	c, st, err := multigpu.Run(a, b, cfg, multigpu.Options{Core: opts})
	return c, st.Stats, err
}

// timeline is run returning the simulated timeline its metrics collector
// received: the kernel, DMA and barrier spans behind Figures 5 and 6.
func timeline(t *testing.T, a, b *csr.Matrix, cfg gpusim.DeviceConfig, opts core.Options) (*csr.Matrix, []metrics.Span) {
	t.Helper()
	opts.Metrics = metrics.New()
	c, _, err := run(a, b, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, opts.Metrics.SpansIn(metrics.Sim)
}

func TestRunMatchesSequentialAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mats := []*csr.Matrix{
		matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 11),
		matgen.Band(600, 3, 12),
		matgen.ER(300, 300, 0.03, rng.Int63()),
	}
	grids := []struct{ r, c int }{{1, 1}, {2, 3}, {4, 4}}
	for mi, a := range mats {
		want, err := cpuspgemm.Sequential(a, a)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range grids {
			for _, mode := range []struct {
				name string
				opts core.Options
			}{
				{"sync-prealloc", core.Options{RowPanels: g.r, ColPanels: g.c}},
				{"sync-dynamic", core.Options{RowPanels: g.r, ColPanels: g.c, DynamicAlloc: true}},
				{"async", core.Options{RowPanels: g.r, ColPanels: g.c, Async: true}},
				{"async-reorder", core.Options{RowPanels: g.r, ColPanels: g.c, Async: true, Reorder: true}},
			} {
				got, st, err := run(a, a, testCfg(64<<20), mode.opts)
				if err != nil {
					t.Fatalf("matrix %d %s grid %dx%d: %v", mi, mode.name, g.r, g.c, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("matrix %d %s: invalid product: %v", mi, mode.name, err)
				}
				if !csr.Equal(got, want, 1e-9) {
					t.Fatalf("matrix %d %s grid %dx%d: %s", mi, mode.name, g.r, g.c, csr.Diff(got, want, 1e-9))
				}
				if st.TotalSec <= 0 || st.GFLOPS <= 0 {
					t.Fatalf("matrix %d %s: bad stats %+v", mi, mode.name, st)
				}
				if st.Chunks != g.r*g.c {
					t.Fatalf("matrix %d %s: chunks %d, want %d", mi, mode.name, st.Chunks, g.r*g.c)
				}
			}
		}
	}
}

func TestAsyncFasterThanSync(t *testing.T) {
	a := matgen.RMAT(11, 10, 0.57, 0.19, 0.19, 13)
	opts := core.Options{RowPanels: 3, ColPanels: 3}
	_, syncSt, err := run(a, a, testCfg(256<<20), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Async = true
	_, asyncSt, err := run(a, a, testCfg(256<<20), opts)
	if err != nil {
		t.Fatal(err)
	}
	if asyncSt.TotalSec >= syncSt.TotalSec {
		t.Fatalf("async (%.4fs) not faster than sync (%.4fs)", asyncSt.TotalSec, syncSt.TotalSec)
	}
	speedup := syncSt.TotalSec / asyncSt.TotalSec
	if speedup > 1.0/(1.0-syncSt.TransferFraction)+0.01 {
		t.Fatalf("async speedup %.3f exceeds the overlap bound %.3f",
			speedup, 1.0/(1.0-syncSt.TransferFraction))
	}
}

func TestSyncTransferFractionDominates(t *testing.T) {
	// The motivation experiment (Figure 4): for graph-like matrices the
	// transfer share of synchronous execution is very high.
	a := matgen.RMAT(11, 10, 0.57, 0.19, 0.19, 14)
	_, st, err := run(a, a, testCfg(256<<20), core.Options{RowPanels: 3, ColPanels: 3, DynamicAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.TransferFraction < 0.6 || st.TransferFraction > 0.99 {
		t.Fatalf("sync transfer fraction %.3f outside plausible band", st.TransferFraction)
	}
}

func TestMallocCounts(t *testing.T) {
	a := matgen.Band(500, 2, 15)
	_, st, err := run(a, a, testCfg(64<<20), core.Options{RowPanels: 2, ColPanels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mallocs != 1 {
		t.Fatalf("prealloc mode made %d mallocs, want 1", st.Mallocs)
	}
	_, st, err = run(a, a, testCfg(64<<20), core.Options{RowPanels: 2, ColPanels: 2, DynamicAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic mode allocates row info, group info and output per chunk
	// (3 each for 4 chunks) plus one allocation per cached input panel.
	if st.Mallocs < 4*3+4 {
		t.Fatalf("dynamic mode made %d mallocs, want at least %d", st.Mallocs, 4*3+4)
	}
}

// TestScheduleOrder pins the order the GPU-only node runs chunks in, end
// to end through the driver's split: the synchronous pipeline's kernels
// visit the chunks row-major by default and by decreasing flops with
// reordering.
func TestScheduleOrder(t *testing.T) {
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 16)
	opts := core.Options{RowPanels: 2, ColPanels: 3}
	eng, err := core.NewEngine(gpusim.NewDevice(nil, testCfg(64<<20)), a, a, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	flops := eng.ChunkFlops()
	var sum int64
	for _, f := range flops {
		sum += f
	}
	if want := csr.Flops(a, a); sum != want {
		t.Fatalf("chunk flops sum %d, want %d", sum, want)
	}
	for _, reorder := range []bool{false, true} {
		opts.Reorder = reorder
		_, tl := timeline(t, a, a, testCfg(64<<20), opts)
		var ord []int
		for _, label := range laneOrder(tl, "kernel") {
			var id int
			if _, err := fmt.Sscanf(strings.Fields(label)[1], "c%d", &id); err != nil {
				t.Fatalf("kernel label %q: %v", label, err)
			}
			if len(ord) == 0 || ord[len(ord)-1] != id {
				ord = append(ord, id)
			}
		}
		if len(ord) != len(flops) {
			t.Fatalf("reorder=%v: kernels visited chunks %v, want each of %d once", reorder, ord, len(flops))
		}
		for i, id := range ord {
			if !reorder && id != i || reorder && i > 0 && flops[ord[i-1]] < flops[id] {
				t.Fatalf("reorder=%v: chunk order %v (flops %v)", reorder, ord, flops)
			}
		}
	}
}

func TestTooSmallDeviceMemoryErrors(t *testing.T) {
	a := matgen.RMAT(10, 10, 0.57, 0.19, 0.19, 17)
	for _, async := range []bool{false, true} {
		_, _, err := run(a, a, testCfg(1<<16), core.Options{RowPanels: 1, ColPanels: 1, Async: async})
		if err == nil {
			t.Fatalf("async=%v: expected out-of-memory error for tiny device", async)
		}
		if !strings.Contains(err.Error(), "arena") && !strings.Contains(err.Error(), "memory") {
			t.Fatalf("async=%v: unhelpful error: %v", async, err)
		}
	}
}

func TestDimensionMismatch(t *testing.T) {
	_, _, err := run(csr.New(3, 4), csr.New(5, 5), testCfg(1<<20), core.Options{})
	if err == nil {
		t.Fatal("expected dimension mismatch")
	}
}

func TestSplitFractionVariants(t *testing.T) {
	a := matgen.RMAT(10, 8, 0.57, 0.19, 0.19, 18)
	want, _ := cpuspgemm.Sequential(a, a)
	for _, frac := range []float64{0.1, 0.33, 0.5, 0.9} {
		got, _, err := run(a, a, testCfg(128<<20), core.Options{RowPanels: 2, ColPanels: 2, Async: true, SplitFraction: frac})
		if err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}
		if !csr.Equal(got, want, 1e-9) {
			t.Fatalf("frac %v: wrong product", frac)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	a := matgen.Band(20, 1, 20)
	eng, err := core.NewEngine(gpusim.NewDevice(nil, testCfg(1<<20)), a, a, core.Options{Async: true, DynamicAlloc: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := eng.Opts
	if o.DynamicAlloc {
		t.Fatal("Async must disable DynamicAlloc")
	}
	if o.SplitFraction <= 0.32 || o.SplitFraction >= 0.34 {
		t.Fatalf("default split fraction = %v", o.SplitFraction)
	}
	if o.RowPanels != 1 || o.ColPanels != 1 {
		t.Fatal("zero panels must default to 1")
	}
}

func TestAssembleMissingChunk(t *testing.T) {
	a := matgen.Band(100, 2, 19)
	dev := gpusim.NewDevice(nil, testCfg(64<<20))
	eng, err := core.NewEngine(dev, a, a, core.Options{RowPanels: 2, ColPanels: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Assemble(); err == nil {
		t.Fatal("expected error for missing chunks")
	}
}

func TestEmptyMatrixRun(t *testing.T) {
	a := csr.New(16, 16)
	got, st, err := run(a, a, testCfg(1<<20), core.Options{RowPanels: 2, ColPanels: 2, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Nnz() != 0 {
		t.Fatal("empty product has nnz")
	}
	if st.Flops != 0 {
		t.Fatalf("flops = %d", st.Flops)
	}
}

func TestTightMemoryForcesPanelEviction(t *testing.T) {
	// Size the device so input panels cannot all stay resident: the
	// cache must evict and re-transfer, and the result must still be
	// exact. Compare H2D traffic against a roomy device to prove the
	// eviction path actually ran.
	// A uniform random matrix: every chunk is non-empty, so the
	// row-major sweep cycles through all B panels each row panel and
	// evicted panels must be re-fetched.
	a := matgen.ER(2000, 2000, 0.004, 45)
	want, err := cpuspgemm.Sequential(a, a)
	if err != nil {
		t.Fatal(err)
	}

	_, roomyTl := timeline(t, a, a, testCfg(64<<20), core.Options{RowPanels: 4, ColPanels: 4, Async: true})

	// Tight: the combined input panels (~0.7 MB) cannot all fit next
	// to the output slots, so panels churn.
	got, tightTl := timeline(t, a, a, testCfg(400<<10), core.Options{RowPanels: 8, ColPanels: 8, Async: true})
	if !csr.Equal(got, want, 1e-9) {
		t.Fatal("tight-memory run produced a wrong product")
	}

	h2d := func(tl []metrics.Span) int {
		n := 0
		for _, s := range tl {
			if s.Lane == "h2d" {
				n++
			}
		}
		return n
	}
	// The tight run has more panels AND must reload evicted ones; it
	// must perform strictly more H2D transfers than the roomy run's
	// panel count (8+8 at most without eviction is 16, roomy needs 8).
	if h2d(tightTl) <= 16 {
		t.Fatalf("tight run made only %d H2D transfers — eviction never happened", h2d(tightTl))
	}
	if h2d(roomyTl) > 8 {
		t.Fatalf("roomy run re-transferred panels: %d H2D transfers", h2d(roomyTl))
	}
}

// TestInputCacheEvictionUnderShrunkenArena: co-tenant pressure
// (Faults.OOMShrink) shrinks usable capacity; a run that fit before
// must now evict panels FIFO mid-run yet still produce the product.
func TestInputCacheEvictionUnderShrunkenArena(t *testing.T) {
	a := matgen.RMAT(8, 8, 0.57, 0.19, 0.19, 98)
	roomy, roomySt, err := run(a, a, testCfg(24<<20), core.Options{RowPanels: 3, ColPanels: 3})
	if err != nil {
		t.Fatal(err)
	}
	shrunk, st, err := run(a, a, testCfg(24<<20), core.Options{
		RowPanels: 3, ColPanels: 3,
		Faults: faults.Config{Seed: 5, OOMShrink: 0.5},
	})
	if err != nil {
		t.Fatalf("shrunken-arena run failed: %v", err)
	}
	requireBitIdentical(t, roomy, shrunk)
	// Evicted panels are re-transferred on their next use, so the
	// shrunken run moves at least as many H2D bytes.
	if st.BytesH2D < roomySt.BytesH2D {
		t.Fatalf("shrunken arena moved fewer H2D bytes (%d) than the roomy run (%d)", st.BytesH2D, roomySt.BytesH2D)
	}
}

func TestEngineAccessors(t *testing.T) {
	a := matgen.Band(100, 2, 46)
	dev := gpusim.NewDevice(nil, testCfg(8<<20))
	eng, err := core.NewEngine(dev, a, a, core.Options{RowPanels: 2, ColPanels: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Err() != nil {
		t.Fatal("fresh engine has an error")
	}
	if eng.NumChunks() != 4 {
		t.Fatalf("NumChunks = %d", eng.NumChunks())
	}
}
