package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/hybrid"
	"repro/internal/multigpu"
)

// Table1 prints the simulated device specification (the paper's
// Table I) together with the cost-model calibration.
func Table1() *Table {
	cfg := gpusim.V100Config()
	t := &Table{
		Title:  "Table I: simulated GPU specification",
		Header: []string{"property", "value"},
	}
	add := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	add("GPUs", cfg.Name)
	add("Architecture", "Volta (modeled)")
	add("#SM", fmt.Sprintf("%d", cfg.NumSMs))
	add("Size of device memory", fmt.Sprintf("%d GB", cfg.MemoryBytes>>30))
	add("FP32 CUDA Cores/GPU", fmt.Sprintf("%d", cfg.FP32Cores))
	add("Register File Size / SM (KB)", fmt.Sprintf("%d", cfg.RegistersPerSM/1024*4))
	add("Max Registers / Thread", "255")
	add("Shared Memory Size / SM (KB)", fmt.Sprintf("up to %d KB", cfg.SharedMemPerSMBytes>>10))
	add("Max Thread Block Size", fmt.Sprintf("%d", cfg.MaxThreadsPerBlock))
	add("-- cost model --", "")
	add("H2D bandwidth", fmt.Sprintf("%.1f GB/s", cfg.H2DBandwidth/1e9))
	add("D2H bandwidth", fmt.Sprintf("%.1f GB/s", cfg.D2HBandwidth/1e9))
	add("hash-kernel throughput", fmt.Sprintf("%.1f GFLOP/s", cfg.HashRate/1e9))
	add("dense-kernel throughput", fmt.Sprintf("%.1f GFLOP/s", cfg.DenseRate/1e9))
	return t
}

// Table2 reproduces Table II: features of the input matrices and their
// squares, for the synthetic analogs.
func Table2(runs []*Run) *Table {
	t := &Table{
		Title: "Table II: features of input matrices (synthetic analogs; counts in thousands)",
		Header: []string{"matrix (analog of)", "abbr.", "n", "nnz(A)", "flop(A^2)", "nnz(A^2)",
			"compr. ratio", "paper ratio x2"},
		Notes: []string{
			"flops count a multiply-add as 2, so a collision-free product has ratio 2;",
			"compare our ratio against 2x the paper's Table II value (last column).",
		},
	}
	for _, r := range runs {
		t.Rows = append(t.Rows, []string{
			r.Entry.Name, r.Entry.Abbr,
			fmt.Sprintf("%.1f", float64(r.A.Rows)/1e3),
			fmt.Sprintf("%.1f", float64(r.A.Nnz())/1e3),
			fmt.Sprintf("%.1f", float64(r.Flops)/1e3),
			fmt.Sprintf("%.1f", float64(r.C.Nnz())/1e3),
			fmt.Sprintf("%.2f", r.CR()),
			fmt.Sprintf("%.2f", 2*r.Entry.PaperCR),
		})
	}
	return t
}

// Fig4 reproduces Figure 4: percentage of data-transfer time over the
// total execution time of synchronous (partitioned, dynamic-allocation)
// spECK.
func Fig4(runs []*Run) (*Table, error) {
	t := &Table{
		Title:  "Figure 4: data transfer share of synchronous spECK",
		Header: []string{"matrix", "transfer %", "total (sim ms)"},
		Notes:  []string{"paper band: 77.55% - 89.65%"},
	}
	for _, r := range runs {
		opts := r.CoreOpts()
		opts.DynamicAlloc = true
		_, st, err := core.Run(r.A, r.A, r.Cfg(), opts)
		if err != nil {
			return nil, fmt.Errorf("fig4 %s: %w", r.Entry.Abbr, err)
		}
		t.Rows = append(t.Rows, []string{
			r.Entry.Abbr,
			fmt.Sprintf("%.2f", st.TransferFraction*100),
			fmt.Sprintf("%.3f", st.TotalSec*1e3),
		})
	}
	return t, nil
}

// Fig7Row is one matrix's Figure 7 measurement.
type Fig7Row struct {
	Abbr                      string
	CPUGF, GPUGF, HybridGF    float64
	GPUOverCPU, HybridOverGPU float64
	HybridOverCPU             float64
}

// Fig7Data computes Figure 7's three series.
func Fig7Data(runs []*Run) ([]Fig7Row, error) {
	var out []Fig7Row
	for _, r := range runs {
		_, cpuSt, err := hybrid.RunCPUOnly(r.A, r.A, r.Cfg(), hybrid.HostModel{})
		if err != nil {
			return nil, fmt.Errorf("fig7 cpu %s: %w", r.Entry.Abbr, err)
		}
		gpuOpts := r.CoreOpts()
		gpuOpts.Async = true
		gpuOpts.Reorder = true
		_, gpuSt, err := core.Run(r.A, r.A, r.Cfg(), gpuOpts)
		if err != nil {
			return nil, fmt.Errorf("fig7 gpu %s: %w", r.Entry.Abbr, err)
		}
		_, hySt, err := multigpu.Run(r.A, r.A, r.Cfg(), r.HybridOpts(true))
		if err != nil {
			return nil, fmt.Errorf("fig7 hybrid %s: %w", r.Entry.Abbr, err)
		}
		out = append(out, Fig7Row{
			Abbr:          r.Entry.Abbr,
			CPUGF:         cpuSt.GFLOPS,
			GPUGF:         gpuSt.GFLOPS,
			HybridGF:      hySt.GFLOPS,
			GPUOverCPU:    cpuSt.TotalSec / gpuSt.TotalSec,
			HybridOverGPU: gpuSt.TotalSec / hySt.TotalSec,
			HybridOverCPU: cpuSt.TotalSec / hySt.TotalSec,
		})
	}
	return out, nil
}

// Fig7 reproduces Figure 7: GFLOPS of the multicore CPU baseline, the
// out-of-core GPU implementation and the hybrid implementation.
func Fig7(runs []*Run) (*Table, error) {
	rows, err := Fig7Data(runs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 7: GFLOPS, CPU vs out-of-core GPU vs hybrid",
		Header: []string{"matrix", "CPU GFLOPS", "GPU GFLOPS", "hybrid GFLOPS",
			"GPU/CPU", "hybrid/GPU", "hybrid/CPU"},
		Notes: []string{
			"paper bands: GPU/CPU 1.98-3.03 (most ~2); hybrid/GPU 1.16-1.57 (most ~1.5);",
			"hybrid/CPU up to 3.74; absolute GFLOPS ~2x the paper's due to the flops convention.",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Abbr,
			fmt.Sprintf("%.3f", r.CPUGF),
			fmt.Sprintf("%.3f", r.GPUGF),
			fmt.Sprintf("%.3f", r.HybridGF),
			fmt.Sprintf("%.2f", r.GPUOverCPU),
			fmt.Sprintf("%.2f", r.HybridOverGPU),
			fmt.Sprintf("%.2f", r.HybridOverCPU),
		})
	}
	return t, nil
}

// Fig8 reproduces Figure 8: speedup of the asynchronous implementation
// over synchronous (pre-allocated, partitioned) spECK.
func Fig8(runs []*Run) (*Table, error) {
	t := &Table{
		Title:  "Figure 8: asynchronous vs synchronous GPU implementation",
		Header: []string{"matrix", "sync (sim ms)", "async (sim ms)", "speedup %"},
		Notes:  []string{"paper band: 6.8% - 17.7%"},
	}
	for _, r := range runs {
		syncOpts := r.CoreOpts()
		syncOpts.DynamicAlloc = true
		_, syncSt, err := core.Run(r.A, r.A, r.Cfg(), syncOpts)
		if err != nil {
			return nil, fmt.Errorf("fig8 sync %s: %w", r.Entry.Abbr, err)
		}
		asyncOpts := r.CoreOpts()
		asyncOpts.Async = true
		asyncOpts.Reorder = true
		_, asyncSt, err := core.Run(r.A, r.A, r.Cfg(), asyncOpts)
		if err != nil {
			return nil, fmt.Errorf("fig8 async %s: %w", r.Entry.Abbr, err)
		}
		t.Rows = append(t.Rows, []string{
			r.Entry.Abbr,
			fmt.Sprintf("%.3f", syncSt.TotalSec*1e3),
			fmt.Sprintf("%.3f", asyncSt.TotalSec*1e3),
			fmt.Sprintf("%.1f", (syncSt.TotalSec/asyncSt.TotalSec-1)*100),
		})
	}
	return t, nil
}

// Fig9 reproduces Figure 9: the hybrid implementation with and without
// flop-sorted reordering of chunks.
func Fig9(runs []*Run) (*Table, error) {
	t := &Table{
		Title:  "Figure 9: hybrid implementation with and without reordering",
		Header: []string{"matrix", "default GFLOPS", "reordered GFLOPS", "speedup %"},
		Notes:  []string{"reordering gains concentrate on the skewed (graph) matrices"},
	}
	for _, r := range runs {
		_, def, err := multigpu.Run(r.A, r.A, r.Cfg(), r.HybridOpts(false))
		if err != nil {
			return nil, fmt.Errorf("fig9 default %s: %w", r.Entry.Abbr, err)
		}
		_, reord, err := multigpu.Run(r.A, r.A, r.Cfg(), r.HybridOpts(true))
		if err != nil {
			return nil, fmt.Errorf("fig9 reorder %s: %w", r.Entry.Abbr, err)
		}
		t.Rows = append(t.Rows, []string{
			r.Entry.Abbr,
			fmt.Sprintf("%.3f", def.GFLOPS),
			fmt.Sprintf("%.3f", reord.GFLOPS),
			fmt.Sprintf("%.1f", (def.TotalSec/reord.TotalSec-1)*100),
		})
	}
	return t, nil
}

// Fig10Ratios is the ratio sweep of Figure 10.
var Fig10Ratios = []float64{0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95}

// Fig10 reproduces Figure 10: hybrid GFLOPS under different GPU/CPU
// flop-allocation ratios for two representative matrices.
func Fig10(runs []*Run, abbrs ...string) (*Table, error) {
	if len(abbrs) == 0 {
		abbrs = []string{"com-lj", "nlp"}
	}
	t := &Table{
		Title:  "Figure 10: hybrid GFLOPS vs GPU flop-allocation ratio",
		Header: append([]string{"matrix"}, ratioHeader()...),
		Notes:  []string{"the curve rises with the ratio, peaks, then drops (paper Figure 10)"},
	}
	for _, abbr := range abbrs {
		r := findRun(runs, abbr)
		if r == nil {
			return nil, fmt.Errorf("fig10: no matrix %q", abbr)
		}
		row := []string{abbr}
		for _, ratio := range Fig10Ratios {
			opts := r.HybridOpts(true)
			opts.Ratio = ratio
			_, st, err := multigpu.Run(r.A, r.A, r.Cfg(), opts)
			if err != nil {
				return nil, fmt.Errorf("fig10 %s ratio %.2f: %w", abbr, ratio, err)
			}
			row = append(row, fmt.Sprintf("%.3f", st.GFLOPS))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func ratioHeader() []string {
	h := make([]string, len(Fig10Ratios))
	for i, r := range Fig10Ratios {
		h[i] = fmt.Sprintf("%.0f%%", r*100)
	}
	return h
}

// Table3Row is one matrix's Table III comparison.
type Table3Row struct {
	Abbr string
	// BestChunks is the GPU chunk count with the best simulated time
	// (exhaustive search); FixedChunks the count the 65% rule picks.
	BestChunks, FixedChunks int
	// LossPct is how much slower the 65% choice is than the best.
	LossPct float64
}

// Table3Data runs the exhaustive search of Table III.
func Table3Data(runs []*Run) ([]Table3Row, error) {
	var out []Table3Row
	for _, r := range runs {
		row := Table3Row{Abbr: r.Entry.Abbr}

		_, fixedSt, err := multigpu.Run(r.A, r.A, r.Cfg(), r.HybridOpts(true))
		if err != nil {
			return nil, fmt.Errorf("table3 %s: %w", r.Entry.Abbr, err)
		}
		row.FixedChunks = fixedSt.GPUChunks[0]

		best := -1.0
		total := r.GridR * r.GridC
		for n := 1; n <= total; n++ {
			opts := r.HybridOpts(true)
			opts.ForceGPUChunks = n
			_, st, err := multigpu.Run(r.A, r.A, r.Cfg(), opts)
			if err != nil {
				return nil, fmt.Errorf("table3 %s n=%d: %w", r.Entry.Abbr, n, err)
			}
			if best < 0 || st.TotalSec < best {
				best = st.TotalSec
				row.BestChunks = n
			}
		}
		row.LossPct = (fixedSt.TotalSec/best - 1) * 100
		out = append(out, row)
	}
	return out, nil
}

// Table3 reproduces Table III: GPU chunk count under the fixed 65%
// ratio vs the exhaustively best count.
func Table3(runs []*Run) (*Table, error) {
	rows, err := Table3Data(runs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Table III: chunks assigned to GPU, fixed %.0f%% ratio vs best case", hybrid.DefaultRatio*100),
		Header: []string{"matrix", "best #GPU chunks", "fixed-ratio #GPU chunks", "fixed-ratio loss %"},
		Notes:  []string{"paper: equal in 7 of 9 cases; losses 2.95% and 4.30% otherwise"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Abbr,
			fmt.Sprintf("%d", r.BestChunks),
			fmt.Sprintf("%d", r.FixedChunks),
			fmt.Sprintf("%.2f", r.LossPct),
		})
	}
	return t, nil
}

func findRun(runs []*Run, abbr string) *Run {
	for _, r := range runs {
		if r.Entry.Abbr == abbr {
			return r
		}
	}
	return nil
}
