// Package repro holds the top-level benchmark harness: one benchmark
// per table and figure of the paper's evaluation section, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// benchmark reports its experiment's headline numbers as custom
// metrics (sim_* metrics are simulated time under the device cost
// model; wall time is the real cost of running the reproduction).
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/multigpu"
	"repro/internal/summa"
)

// BenchmarkTable2Suite regenerates Table II: it performs each matrix's
// full multiplication on the real multi-core CPU engine and reports
// the measured compression ratio.
func BenchmarkTable2Suite(b *testing.B) {
	for _, r := range exp.MustSuite() {
		r := r
		b.Run(r.Entry.Abbr, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := exp.RecomputeProduct(r)
				if err != nil {
					b.Fatal(err)
				}
				if c.Nnz() != r.C.Nnz() {
					b.Fatalf("nondeterministic product: %d vs %d", c.Nnz(), r.C.Nnz())
				}
			}
			b.ReportMetric(r.CR(), "compr_ratio")
			b.ReportMetric(float64(r.Flops), "flops")
			b.ReportMetric(float64(r.C.Nnz()), "nnz_C")
		})
	}
}

// BenchmarkFig4TransferFraction regenerates Figure 4: the share of
// synchronous spECK's runtime spent in PCIe transfers.
func BenchmarkFig4TransferFraction(b *testing.B) {
	for _, r := range exp.MustSuite() {
		r := r
		b.Run(r.Entry.Abbr, func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				opts := r.CoreOpts()
				opts.DynamicAlloc = true
				_, st, err := core.Run(r.A, r.A, r.Cfg(), opts)
				if err != nil {
					b.Fatal(err)
				}
				frac = st.TransferFraction
			}
			b.ReportMetric(frac*100, "transfer_%")
		})
	}
}

// BenchmarkFig7GFLOPS regenerates Figure 7: simulated GFLOPS of the
// CPU baseline, the out-of-core GPU engine and the hybrid engine.
func BenchmarkFig7GFLOPS(b *testing.B) {
	for _, r := range exp.MustSuite() {
		r := r
		b.Run(r.Entry.Abbr, func(b *testing.B) {
			var row exp.Fig7Row
			for i := 0; i < b.N; i++ {
				rows, err := exp.Fig7Data([]*exp.Run{r})
				if err != nil {
					b.Fatal(err)
				}
				row = rows[0]
			}
			b.ReportMetric(row.CPUGF, "cpu_GFLOPS")
			b.ReportMetric(row.GPUGF, "gpu_GFLOPS")
			b.ReportMetric(row.HybridGF, "hybrid_GFLOPS")
			b.ReportMetric(row.GPUOverCPU, "gpu/cpu")
			b.ReportMetric(row.HybridOverGPU, "hybrid/gpu")
		})
	}
}

// BenchmarkFig8AsyncSpeedup regenerates Figure 8: asynchronous vs
// synchronous out-of-core execution.
func BenchmarkFig8AsyncSpeedup(b *testing.B) {
	for _, r := range exp.MustSuite() {
		r := r
		b.Run(r.Entry.Abbr, func(b *testing.B) {
			var gain float64
			for i := 0; i < b.N; i++ {
				syncOpts := r.CoreOpts()
				syncOpts.DynamicAlloc = true
				_, syncSt, err := core.Run(r.A, r.A, r.Cfg(), syncOpts)
				if err != nil {
					b.Fatal(err)
				}
				asyncOpts := r.CoreOpts()
				asyncOpts.Async = true
				asyncOpts.Reorder = true
				_, asyncSt, err := core.Run(r.A, r.A, r.Cfg(), asyncOpts)
				if err != nil {
					b.Fatal(err)
				}
				gain = (syncSt.TotalSec/asyncSt.TotalSec - 1) * 100
			}
			b.ReportMetric(gain, "async_speedup_%")
		})
	}
}

// BenchmarkFig9Reordering regenerates Figure 9: the hybrid engine with
// and without flop-sorted chunk reordering.
func BenchmarkFig9Reordering(b *testing.B) {
	for _, r := range exp.MustSuite() {
		r := r
		b.Run(r.Entry.Abbr, func(b *testing.B) {
			var gain float64
			for i := 0; i < b.N; i++ {
				_, def, err := multigpu.Run(r.A, r.A, r.Cfg(), r.HybridOpts(false))
				if err != nil {
					b.Fatal(err)
				}
				_, reord, err := multigpu.Run(r.A, r.A, r.Cfg(), r.HybridOpts(true))
				if err != nil {
					b.Fatal(err)
				}
				gain = (def.TotalSec/reord.TotalSec - 1) * 100
			}
			b.ReportMetric(gain, "reorder_gain_%")
		})
	}
}

// BenchmarkFig10RatioSweep regenerates Figure 10: hybrid GFLOPS as a
// function of the GPU flop-allocation ratio, on the paper's two
// representative matrices.
func BenchmarkFig10RatioSweep(b *testing.B) {
	for _, abbr := range []string{"com-lj", "nlp"} {
		r, err := exp.SuiteRun(abbr)
		if err != nil {
			b.Fatal(err)
		}
		for _, ratio := range exp.Fig10Ratios {
			ratio := ratio
			b.Run(fmt.Sprintf("%s/ratio=%.0f%%", abbr, ratio*100), func(b *testing.B) {
				var gf float64
				for i := 0; i < b.N; i++ {
					opts := r.HybridOpts(true)
					opts.Ratio = ratio
					_, st, err := multigpu.Run(r.A, r.A, r.Cfg(), opts)
					if err != nil {
						b.Fatal(err)
					}
					gf = st.GFLOPS
				}
				b.ReportMetric(gf, "hybrid_GFLOPS")
			})
		}
	}
}

// BenchmarkTable3ChunkAllocation regenerates Table III: the GPU chunk
// count under the fixed ratio vs the exhaustively best count.
func BenchmarkTable3ChunkAllocation(b *testing.B) {
	for _, r := range exp.MustSuite() {
		r := r
		b.Run(r.Entry.Abbr, func(b *testing.B) {
			var row exp.Table3Row
			for i := 0; i < b.N; i++ {
				rows, err := exp.Table3Data([]*exp.Run{r})
				if err != nil {
					b.Fatal(err)
				}
				row = rows[0]
			}
			b.ReportMetric(float64(row.BestChunks), "best_chunks")
			b.ReportMetric(float64(row.FixedChunks), "fixed_ratio_chunks")
			b.ReportMetric(row.LossPct, "fixed_ratio_loss_%")
		})
	}
}

// BenchmarkAblationUpperBound quantifies the waste of worst-case
// output allocation (Section IV-B's rejected alternative).
func BenchmarkAblationUpperBound(b *testing.B) {
	for _, r := range exp.MustSuite() {
		r := r
		b.Run(r.Entry.Abbr, func(b *testing.B) {
			var waste float64
			for i := 0; i < b.N; i++ {
				waste = exp.UpperBoundWaste(r)
			}
			b.ReportMetric(waste, "ub_waste_x")
		})
	}
}

// BenchmarkAblationUnifiedMemory compares the out-of-core framework
// against the unified-memory execution model of Section I.
func BenchmarkAblationUnifiedMemory(b *testing.B) {
	for _, abbr := range []string{"com-lj", "stokes", "nlp"} {
		r, err := exp.SuiteRun(abbr)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(abbr, func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				umSec, err := exp.RunUnifiedMemory(r)
				if err != nil {
					b.Fatal(err)
				}
				opts := r.CoreOpts()
				opts.Async = true
				opts.Reorder = true
				_, st, err := core.Run(r.A, r.A, r.Cfg(), opts)
				if err != nil {
					b.Fatal(err)
				}
				speedup = umSec / st.TotalSec
			}
			b.ReportMetric(speedup, "ooc_over_um_x")
		})
	}
}

// BenchmarkAblationBuffers sweeps the async pipeline's output buffer
// count (the paper double-buffers; more buffers trade memory for
// variance tolerance).
func BenchmarkAblationBuffers(b *testing.B) {
	counts := []int{2, 3, 4}
	for _, abbr := range []string{"com-lj", "nlp"} {
		r, err := exp.SuiteRun(abbr)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(abbr, func(b *testing.B) {
			var secs []float64
			for i := 0; i < b.N; i++ {
				if secs, err = exp.BufferSweep(r, counts); err != nil {
					b.Fatal(err)
				}
			}
			for i, n := range counts {
				b.ReportMetric(secs[i]*1e3, fmt.Sprintf("sim_ms_%dbuf", n))
			}
		})
	}
}

// BenchmarkExtensionSUMMA measures the distributed sparse-SUMMA
// extension (the paper's reference [33] setting) at three cluster
// sizes.
func BenchmarkExtensionSUMMA(b *testing.B) {
	for _, abbr := range []string{"com-lj", "nlp"} {
		r, err := exp.SuiteRun(abbr)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range exp.DistributedGrids {
			q := q
			b.Run(fmt.Sprintf("%s/%dx%d", abbr, q, q), func(b *testing.B) {
				var gf float64
				for i := 0; i < b.N; i++ {
					_, st, err := summa.Run(r.A, r.A, summa.Config{Q: q})
					if err != nil {
						b.Fatal(err)
					}
					gf = st.GFLOPS
				}
				b.ReportMetric(gf, "summa_GFLOPS")
			})
		}
	}
}

// BenchmarkAblationSplitFraction sweeps the divided-transfer first
// portion around the paper's 33% (Section IV-B).
func BenchmarkAblationSplitFraction(b *testing.B) {
	for _, abbr := range []string{"com-lj", "nlp"} {
		r, err := exp.SuiteRun(abbr)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range exp.SplitFractions {
			f := f
			b.Run(fmt.Sprintf("%s/split=%.0f%%", abbr, f*100), func(b *testing.B) {
				var ms float64
				for i := 0; i < b.N; i++ {
					opts := r.CoreOpts()
					opts.Async = true
					opts.Reorder = true
					opts.SplitFraction = f
					_, st, err := core.Run(r.A, r.A, r.Cfg(), opts)
					if err != nil {
						b.Fatal(err)
					}
					ms = st.TotalSec * 1e3
				}
				b.ReportMetric(ms, "sim_ms")
			})
		}
	}
}

// BenchmarkAblationPinnedMemory compares pinned host buffers (the
// paper's configuration) against pageable host memory, whose staging
// penalty inflates every DMA transfer.
func BenchmarkAblationPinnedMemory(b *testing.B) {
	for _, abbr := range []string{"com-lj", "nlp"} {
		r, err := exp.SuiteRun(abbr)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(abbr, func(b *testing.B) {
			var slowdown float64
			for i := 0; i < b.N; i++ {
				opts := r.CoreOpts()
				opts.Async = true
				opts.Reorder = true
				_, pinned, err := core.Run(r.A, r.A, r.Cfg(), opts)
				if err != nil {
					b.Fatal(err)
				}
				cfg := r.Cfg()
				cfg.PageableHostMemory = true
				_, pageable, err := core.Run(r.A, r.A, cfg, opts)
				if err != nil {
					b.Fatal(err)
				}
				slowdown = pageable.TotalSec / pinned.TotalSec
			}
			b.ReportMetric(slowdown, "pageable_slowdown_x")
		})
	}
}
