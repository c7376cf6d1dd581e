package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/gpusim"
	"repro/internal/matgen"
	"repro/internal/sim"
)

// testCfg returns a device sized so the test matrices are genuinely
// out-of-core (the whole product cannot fit at once).
func testCfg(memBytes int64) gpusim.DeviceConfig {
	return gpusim.ScaledV100Config(memBytes)
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
				opts Options
			}{
				{"sync-prealloc", Options{RowPanels: g.r, ColPanels: g.c}},
				{"sync-dynamic", Options{RowPanels: g.r, ColPanels: g.c, DynamicAlloc: true}},
				{"async", Options{RowPanels: g.r, ColPanels: g.c, Async: true}},
				{"async-reorder", Options{RowPanels: g.r, ColPanels: g.c, Async: true, Reorder: true}},
			} {
				got, st, err := Run(a, a, testCfg(64<<20), mode.opts)
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
	opts := Options{RowPanels: 3, ColPanels: 3}
	_, syncSt, err := Run(a, a, testCfg(256<<20), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Async = true
	_, asyncSt, err := Run(a, a, testCfg(256<<20), opts)
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
	_, st, err := Run(a, a, testCfg(256<<20), Options{RowPanels: 3, ColPanels: 3, DynamicAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.TransferFraction < 0.6 || st.TransferFraction > 0.99 {
		t.Fatalf("sync transfer fraction %.3f outside plausible band", st.TransferFraction)
	}
}

func TestMallocCounts(t *testing.T) {
	a := matgen.Band(500, 2, 15)
	_, st, err := Run(a, a, testCfg(64<<20), Options{RowPanels: 2, ColPanels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mallocs != 1 {
		t.Fatalf("prealloc mode made %d mallocs, want 1", st.Mallocs)
	}
	_, st, err = Run(a, a, testCfg(64<<20), Options{RowPanels: 2, ColPanels: 2, DynamicAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic mode allocates row info, group info and output per chunk
	// (3 each for 4 chunks) plus one allocation per cached input panel.
	if st.Mallocs < 4*3+4 {
		t.Fatalf("dynamic mode made %d mallocs, want at least %d", st.Mallocs, 4*3+4)
	}
}

func TestScheduleOrder(t *testing.T) {
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 16)
	dev := gpusim.NewDevice(nil, testCfg(64<<20))
	eng, err := NewEngine(dev, a, a, Options{RowPanels: 2, ColPanels: 3})
	if err != nil {
		t.Fatal(err)
	}
	def := eng.ScheduleOrder()
	for i, id := range def {
		if id != i {
			t.Fatalf("default order = %v", def)
		}
	}
	eng.Opts.Reorder = true
	flops := eng.ChunkFlops()
	ord := eng.ScheduleOrder()
	for i := 1; i < len(ord); i++ {
		if flops[ord[i-1]] < flops[ord[i]] {
			t.Fatalf("reorder not decreasing: %v (flops %v)", ord, flops)
		}
	}
	var sum int64
	for _, f := range flops {
		sum += f
	}
	if want := csr.Flops(a, a); sum != want {
		t.Fatalf("chunk flops sum %d, want %d", sum, want)
	}
}

func TestTooSmallDeviceMemoryErrors(t *testing.T) {
	a := matgen.RMAT(10, 10, 0.57, 0.19, 0.19, 17)
	for _, async := range []bool{false, true} {
		_, _, err := Run(a, a, testCfg(1<<16), Options{RowPanels: 1, ColPanels: 1, Async: async})
		if err == nil {
			t.Fatalf("async=%v: expected out-of-memory error for tiny device", async)
		}
		if !strings.Contains(err.Error(), "arena") && !strings.Contains(err.Error(), "memory") {
			t.Fatalf("async=%v: unhelpful error: %v", async, err)
		}
	}
}

func TestDimensionMismatch(t *testing.T) {
	_, _, err := Run(csr.New(3, 4), csr.New(5, 5), testCfg(1<<20), Options{})
	if err == nil {
		t.Fatal("expected dimension mismatch")
	}
}

func TestSplitFractionVariants(t *testing.T) {
	a := matgen.RMAT(10, 8, 0.57, 0.19, 0.19, 18)
	want, _ := cpuspgemm.Sequential(a, a)
	for _, frac := range []float64{0.1, 0.33, 0.5, 0.9} {
		got, _, err := Run(a, a, testCfg(128<<20), Options{RowPanels: 2, ColPanels: 2, Async: true, SplitFraction: frac})
		if err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}
		if !csr.Equal(got, want, 1e-9) {
			t.Fatalf("frac %v: wrong product", frac)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{Async: true, DynamicAlloc: true}.withDefaults()
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
	eng, err := NewEngine(dev, a, a, Options{RowPanels: 2, ColPanels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Assemble(); err == nil {
		t.Fatal("expected error for missing chunks")
	}
}

func TestEmptyMatrixRun(t *testing.T) {
	a := csr.New(16, 16)
	got, st, err := Run(a, a, testCfg(1<<20), Options{RowPanels: 2, ColPanels: 2, Async: true})
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

	roomy := testCfg(64 << 20)
	_, _, roomyTl, err := RunTraced(a, a, roomy, Options{RowPanels: 4, ColPanels: 4, Async: true})
	if err != nil {
		t.Fatal(err)
	}

	// Tight: the combined input panels (~0.7 MB) cannot all fit next
	// to the output slots, so panels churn.
	tight := testCfg(400 << 10)
	got, _, tightTl, err := RunTraced(a, a, tight, Options{RowPanels: 8, ColPanels: 8, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if !csr.Equal(got, want, 1e-9) {
		t.Fatal("tight-memory run produced a wrong product")
	}

	h2d := func(tl []sim.Span) int {
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

func TestEngineAccessors(t *testing.T) {
	a := matgen.Band(100, 2, 46)
	dev := gpusim.NewDevice(nil, testCfg(8<<20))
	eng, err := NewEngine(dev, a, a, Options{RowPanels: 2, ColPanels: 2})
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
