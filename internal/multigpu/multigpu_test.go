package multigpu

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/gpusim"
	"repro/internal/hybrid"
	"repro/internal/matgen"
)

func cfg() gpusim.DeviceConfig { return gpusim.ScaledV100Config(64 << 20) }

func TestAssignBalanced(t *testing.T) {
	// Assign places ids greedily in the order given; the driver hands it
	// the flop-sorted order of hybrid.Split, which makes the placement
	// LPT and leaves every share flop-sorted.
	flops := []int64{30, 100, 10, 90, 40, 20, 50, 10}
	ids, _ := hybrid.SplitCount(flops, len(flops), true)
	shares := Assign(ids, flops, 2)
	if len(shares) != 2 {
		t.Fatalf("%d shares", len(shares))
	}
	loads := make([]int64, 2)
	seen := map[int]bool{}
	for w, share := range shares {
		var prev int64 = 1 << 62
		for _, id := range share {
			if seen[id] {
				t.Fatalf("chunk %d assigned twice", id)
			}
			seen[id] = true
			loads[w] += flops[id]
			if flops[id] > prev {
				t.Fatalf("worker %d share not flop-sorted: %v", w, share)
			}
			prev = flops[id]
		}
	}
	if len(seen) != len(ids) {
		t.Fatalf("assigned %d of %d chunks", len(seen), len(ids))
	}
	// LPT on this input: loads 100+40+30+10=180 vs 90+50+20+10=170.
	diff := loads[0] - loads[1]
	if diff < 0 {
		diff = -diff
	}
	if diff > 20 {
		t.Fatalf("imbalanced loads %v", loads)
	}

	// Row-major ids (Figure 9's default order) are placed as they come,
	// not re-sorted: every share stays in ascending id order.
	for w, share := range Assign([]int{0, 1, 2, 3, 4, 5, 6, 7}, flops, 2) {
		if !sort.IntsAreSorted(share) {
			t.Fatalf("worker %d share %v not in the order given", w, share)
		}
	}
}

func TestAssignMoreWorkersThanChunks(t *testing.T) {
	shares := Assign([]int{0, 1}, []int64{5, 3}, 4)
	nonEmpty := 0
	for _, s := range shares {
		if len(s) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 2 {
		t.Fatalf("%d non-empty shares, want 2", nonEmpty)
	}
}

func TestRunMatchesSequential(t *testing.T) {
	a := matgen.RMAT(10, 8, 0.57, 0.19, 0.19, 61)
	want, err := cpuspgemm.Sequential(a, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, gpus := range []int{1, 2, 3} {
		for _, useCPU := range []bool{false, true} {
			got, st, err := Run(a, a, cfg(), Options{
				Core:    core.Options{RowPanels: 3, ColPanels: 3},
				NumGPUs: gpus,
				UseCPU:  useCPU,
			})
			if err != nil {
				t.Fatalf("gpus=%d cpu=%v: %v", gpus, useCPU, err)
			}
			if !csr.Equal(got, want, 1e-9) {
				t.Fatalf("gpus=%d cpu=%v: wrong product", gpus, useCPU)
			}
			var chunks int
			for _, n := range st.GPUChunks {
				chunks += n
			}
			chunks += st.CPUChunks
			if chunks != 9 {
				t.Fatalf("gpus=%d cpu=%v: %d chunks processed", gpus, useCPU, chunks)
			}
			if st.GFLOPS <= 0 {
				t.Fatalf("gpus=%d: bad stats %+v", gpus, st)
			}
		}
	}
}

func TestScalingImproves(t *testing.T) {
	a := matgen.RMAT(11, 10, 0.57, 0.19, 0.19, 62)
	var prev float64
	for _, gpus := range []int{1, 2, 4} {
		_, st, err := Run(a, a, cfg(), Options{
			Core:    core.Options{RowPanels: 4, ColPanels: 4},
			NumGPUs: gpus,
		})
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && st.TotalSec >= prev {
			t.Fatalf("%d GPUs (%.4fs) not faster than fewer (%.4fs)", gpus, st.TotalSec, prev)
		}
		prev = st.TotalSec
	}
}

func TestScalingEfficiencyBounded(t *testing.T) {
	// Speedup cannot exceed the GPU count (no superlinear artifacts).
	a := matgen.Band(6000, 5, 63)
	_, one, err := Run(a, a, cfg(), Options{Core: core.Options{RowPanels: 4, ColPanels: 4}, NumGPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, four, err := Run(a, a, cfg(), Options{Core: core.Options{RowPanels: 4, ColPanels: 4}, NumGPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	speedup := one.TotalSec / four.TotalSec
	if speedup > 4.01 {
		t.Fatalf("superlinear speedup %.2f", speedup)
	}
	if speedup < 1.2 {
		t.Fatalf("4 GPUs gained only %.2fx", speedup)
	}
}

func TestCPUAssistHelps(t *testing.T) {
	a := matgen.RMAT(11, 10, 0.57, 0.19, 0.19, 64)
	opts := Options{Core: core.Options{RowPanels: 4, ColPanels: 4}, NumGPUs: 2}
	_, noCPU, err := Run(a, a, cfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.UseCPU = true
	_, withCPU, err := Run(a, a, cfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if withCPU.TotalSec >= noCPU.TotalSec {
		t.Fatalf("CPU assist did not help: %.4fs vs %.4fs", withCPU.TotalSec, noCPU.TotalSec)
	}
}
