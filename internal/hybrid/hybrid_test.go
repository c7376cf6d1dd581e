package hybrid_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/gpusim"
	"repro/internal/hybrid"
	"repro/internal/matgen"
	"repro/internal/multigpu"
	"repro/internal/speck"
)

func cfg() gpusim.DeviceConfig { return gpusim.ScaledV100Config(256 << 20) }

// node is the paper's hybrid node on an r x c grid: the one driver with
// one asynchronous GPU beside the CPU worker, chunks flop-sorted or
// row-major.
func node(r, c int, reorder bool) multigpu.Options {
	return multigpu.Options{
		Core:    core.Options{RowPanels: r, ColPanels: c, Async: true, Reorder: reorder},
		NumGPUs: 1, UseCPU: true,
	}
}

// gpuOnly is node without the CPU worker: the paper's out-of-core GPU
// framework, the driver's zero node.
func gpuOnly(r, c int) multigpu.Options {
	return multigpu.Options{Core: core.Options{RowPanels: r, ColPanels: c, Async: true, Reorder: true}}
}

func TestSplitBasic(t *testing.T) {
	flops := []int64{10, 40, 30, 20} // total 100
	gpu, cpu := hybrid.Split(flops, 0.65, true)
	// Sorted desc: 1(40), 2(30), 3(20), 0(10); prefix >= 65 at 40+30=70.
	if len(gpu) != 2 || gpu[0] != 1 || gpu[1] != 2 {
		t.Fatalf("gpu = %v", gpu)
	}
	if len(cpu) != 2 || cpu[0] != 3 || cpu[1] != 0 {
		t.Fatalf("cpu = %v", cpu)
	}

	gpu, cpu = hybrid.Split(flops, 0.65, false)
	// Default order: 10+40+30 = 80 >= 65 at index 2.
	if len(gpu) != 3 || gpu[0] != 0 || gpu[2] != 2 {
		t.Fatalf("default gpu = %v", gpu)
	}
	if len(cpu) != 1 || cpu[0] != 3 {
		t.Fatalf("default cpu = %v", cpu)
	}
}

func TestSplitEdgeCases(t *testing.T) {
	gpu, cpu := hybrid.Split(nil, 0.65, true)
	if len(gpu) != 0 || len(cpu) != 0 {
		t.Fatal("empty split wrong")
	}
	gpu, cpu = hybrid.Split([]int64{0, 0}, 0.65, true)
	if len(gpu) != 2 || len(cpu) != 0 {
		t.Fatalf("zero-flop split: gpu=%v cpu=%v", gpu, cpu)
	}
	// Ratio 1.0: everything on GPU.
	gpu, cpu = hybrid.Split([]int64{5, 5}, 1.0, true)
	if len(gpu) != 2 || len(cpu) != 0 {
		t.Fatalf("ratio 1: gpu=%v cpu=%v", gpu, cpu)
	}
}

func TestHybridMatchesSequential(t *testing.T) {
	mats := []*csr.Matrix{
		matgen.RMAT(10, 8, 0.57, 0.19, 0.19, 21),
		matgen.Band(800, 3, 22),
	}
	for mi, a := range mats {
		want, err := cpuspgemm.Sequential(a, a)
		if err != nil {
			t.Fatal(err)
		}
		for _, reorder := range []bool{false, true} {
			got, st, err := multigpu.Run(a, a, cfg(), node(3, 3, reorder))
			if err != nil {
				t.Fatalf("matrix %d reorder=%v: %v", mi, reorder, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("matrix %d: invalid: %v", mi, err)
			}
			if !csr.Equal(got, want, 1e-9) {
				t.Fatalf("matrix %d reorder=%v: %s", mi, reorder, csr.Diff(got, want, 1e-9))
			}
			if st.GPUChunks[0]+st.CPUChunks != 9 {
				t.Fatalf("chunks %d + %d != 9", st.GPUChunks[0], st.CPUChunks)
			}
			if st.GPUFlops+st.CPUFlops != st.Flops {
				t.Fatalf("flop split %d+%d != %d", st.GPUFlops, st.CPUFlops, st.Flops)
			}
		}
	}
}

func TestHybridFlopShareRespectsRatio(t *testing.T) {
	a := matgen.RMAT(10, 10, 0.57, 0.19, 0.19, 23)
	opts := node(3, 4, true)
	opts.Ratio = 0.65
	_, st, err := multigpu.Run(a, a, cfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	share := float64(st.GPUFlops) / float64(st.Flops)
	if share < 0.65 {
		t.Fatalf("GPU share %.3f below the requested ratio", share)
	}
	// The prefix stops at the first chunk crossing the ratio, so the
	// share must not wildly exceed it either (one chunk of slack).
	if share > 0.95 {
		t.Fatalf("GPU share %.3f suspiciously high", share)
	}
}

func TestHybridFasterThanGPUOnly(t *testing.T) {
	a := matgen.RMAT(11, 10, 0.57, 0.19, 0.19, 24)
	_, gpuSt, err := multigpu.Run(a, a, cfg(), gpuOnly(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	_, hySt, err := multigpu.Run(a, a, cfg(), node(3, 3, true))
	if err != nil {
		t.Fatal(err)
	}
	if hySt.TotalSec >= gpuSt.TotalSec {
		t.Fatalf("hybrid %.4fs not faster than GPU-only %.4fs", hySt.TotalSec, gpuSt.TotalSec)
	}
}

func TestReorderingEffect(t *testing.T) {
	// Figure 9: reordering must clearly help on banded matrices (whose
	// default row-major order mixes empty and diagonal chunks) and stay
	// within chunk-granularity noise of the default on skewed graphs.
	band := matgen.Band(6000, 5, 29)
	_, def, err := multigpu.Run(band, band, cfg(), node(5, 4, false))
	if err != nil {
		t.Fatal(err)
	}
	_, reord, err := multigpu.Run(band, band, cfg(), node(5, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	if reord.TotalSec >= def.TotalSec {
		t.Fatalf("reordering did not help on band: %.4fs vs default %.4fs", reord.TotalSec, def.TotalSec)
	}

	rmat := matgen.RMAT(11, 12, 0.6, 0.17, 0.17, 25)
	_, def, err = multigpu.Run(rmat, rmat, cfg(), node(4, 4, false))
	if err != nil {
		t.Fatal(err)
	}
	_, reord, err = multigpu.Run(rmat, rmat, cfg(), node(4, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	if reord.TotalSec > def.TotalSec*1.10 {
		t.Fatalf("reordering hurt beyond noise: %.4fs vs default %.4fs", reord.TotalSec, def.TotalSec)
	}
}

func TestRunCPUOnly(t *testing.T) {
	a := matgen.Band(600, 4, 26)
	want, _ := cpuspgemm.Sequential(a, a)
	got, st, err := hybrid.RunCPUOnly(a, a, cfg(), hybrid.HostModel{})
	if err != nil {
		t.Fatal(err)
	}
	if !csr.Equal(got, want, 1e-9) {
		t.Fatalf("CPU-only product wrong: %s", csr.Diff(got, want, 1e-9))
	}
	if st.TotalSec <= 0 || st.GFLOPS <= 0 {
		t.Fatalf("bad stats %+v", st)
	}
	if st.Flops != csr.Flops(a, a) {
		t.Fatalf("flops %d, want %d", st.Flops, csr.Flops(a, a))
	}
	// The split read off the finished product is the one a symbolic
	// pass would have classified.
	ra := speck.Analyze(a, a, 1)
	if want := hybrid.DefaultHostModel().ChunkSeconds(ra.HashFlops, ra.DenseFlops, got.Bytes()); st.TotalSec != want {
		t.Fatalf("simulated seconds %v, want %v from the row analysis", st.TotalSec, want)
	}
}

func TestGPUBeatsCPUBaseline(t *testing.T) {
	// Figure 7's headline: out-of-core GPU about 2-3x over multi-core
	// CPU under the calibrated models.
	for _, gen := range []func() *csr.Matrix{
		func() *csr.Matrix { return matgen.RMAT(11, 10, 0.57, 0.19, 0.19, 27) },
		func() *csr.Matrix { return matgen.Band(4000, 5, 28) },
	} {
		a := gen()
		_, cpuSt, err := hybrid.RunCPUOnly(a, a, cfg(), hybrid.HostModel{})
		if err != nil {
			t.Fatal(err)
		}
		_, gpuSt, err := multigpu.Run(a, a, cfg(), gpuOnly(3, 3))
		if err != nil {
			t.Fatal(err)
		}
		ratio := cpuSt.TotalSec / gpuSt.TotalSec
		if ratio < 1.2 || ratio > 6 {
			t.Fatalf("GPU/CPU speedup %.2f outside plausible band (cpu %.4fs gpu %.4fs)",
				ratio, cpuSt.TotalSec, gpuSt.TotalSec)
		}
	}
}

func TestChunkSeconds(t *testing.T) {
	h := hybrid.HostModel{HashRate: 2, DenseRate: 4, OutputBandwidth: 8}
	if got := h.ChunkSeconds(4, 8, 16); got != 6 {
		t.Fatalf("ChunkSeconds = %v, want 6", got)
	}
	var zero hybrid.HostModel
	if zero.ChunkSeconds(100, 100, 100) != 0 {
		t.Fatal("zero model must cost nothing")
	}
}

func TestSplitCount(t *testing.T) {
	flops := []int64{10, 40, 30, 20}
	gpu, cpu := hybrid.SplitCount(flops, 2, true)
	if len(gpu) != 2 || gpu[0] != 1 || gpu[1] != 2 {
		t.Fatalf("gpu = %v", gpu)
	}
	if len(cpu) != 2 {
		t.Fatalf("cpu = %v", cpu)
	}
	// Unsorted variant keeps original order.
	gpu, _ = hybrid.SplitCount(flops, 3, false)
	if gpu[0] != 0 || gpu[1] != 1 || gpu[2] != 2 {
		t.Fatalf("unsorted gpu = %v", gpu)
	}
	// Over-length count is clamped.
	gpu, cpu = hybrid.SplitCount(flops, 99, true)
	if len(gpu) != 4 || len(cpu) != 0 {
		t.Fatalf("clamped: gpu=%v cpu=%v", gpu, cpu)
	}
	// The whole grid is the GPU-only node's order: row-major, or by
	// decreasing flops with reordering.
	for reorder, want := range map[bool][]int{false: {0, 1, 2, 3}, true: {1, 2, 3, 0}} {
		gpu, cpu = hybrid.SplitCount(flops, len(flops), reorder)
		if fmt.Sprint(gpu) != fmt.Sprint(want) || len(cpu) != 0 {
			t.Fatalf("whole grid, reorder=%v: gpu=%v cpu=%v, want gpu=%v", reorder, gpu, cpu, want)
		}
	}
}

func TestForceGPUChunks(t *testing.T) {
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 51)
	want, _ := cpuspgemm.Sequential(a, a)
	for _, n := range []int{1, 4, 9} {
		opts := node(3, 3, true)
		opts.ForceGPUChunks = n
		got, st, err := multigpu.Run(a, a, cfg(), opts)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if st.GPUChunks[0] != n {
			t.Fatalf("n=%d: GPUChunks = %v", n, st.GPUChunks)
		}
		if !csr.Equal(got, want, 1e-9) {
			t.Fatalf("n=%d: wrong product", n)
		}
	}
}
