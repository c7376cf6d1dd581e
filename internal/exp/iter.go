package exp

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/gpusim"
	"repro/internal/matgen"
	"repro/internal/parallel"
)

// IterBenchReport is the machine-readable result of the iterative-
// workload benchmark (-exp=iter), written to BENCH_iter.json. It
// models the dominant repeated-pattern workloads (AMG setup, graph
// iterations): N multiplies of matrices whose sparsity pattern never
// changes while the values are refreshed every iteration, comparing
// the cold path (full symbolic + numeric each time) against the warm
// structure-reuse path (cached plan, numeric only).
type IterBenchReport struct {
	Matrix     string `json:"matrix"`
	Rows       int    `json:"rows"`
	Cols       int    `json:"cols"`
	Nnz        int64  `json:"nnz"`
	Flops      int64  `json:"flops"`
	Threads    int    `json:"threads"`
	Iterations int    `json:"iterations"`
	// CPU is the real multi-core engine in wall-clock seconds; GPU is
	// the out-of-core device engine in simulated seconds.
	CPU IterEngineResult `json:"cpu"`
	GPU IterEngineResult `json:"gpu"`
}

// IterEngineResult compares one engine's cold and warm per-iteration
// timings with the phase split and cache traffic behind them.
type IterEngineResult struct {
	// ColdSeconds and WarmSeconds are per-iteration averages over the
	// fresh-values iterations (the cold run that populates the cache
	// is excluded from the warm average).
	ColdSeconds float64 `json:"cold_seconds"`
	WarmSeconds float64 `json:"warm_seconds"`
	// Speedup is ColdSeconds / WarmSeconds = 1 + symbolic/numeric: it
	// falls whenever the symbolic emit gets cheaper, so the CPU figure
	// is reported, not gated (the simulated GPU figure is).
	Speedup float64 `json:"speedup"`
	// SymbolicSeconds is the per-iteration cost the warm path avoids
	// (cold minus warm); NumericSeconds is what both paths pay.
	SymbolicSeconds float64 `json:"symbolic_seconds"`
	NumericSeconds  float64 `json:"numeric_seconds"`
	// Hits/Misses and HitRate are the plan-cache counters of the warm
	// sequence (the device result also counts per-chunk reuse).
	Hits    int64   `json:"plan_cache_hits"`
	Misses  int64   `json:"plan_cache_misses"`
	HitRate float64 `json:"plan_cache_hit_rate"`
	// ColdBytesH2D/WarmBytesH2D document the residency effect on the
	// device engine (zero for the CPU engine).
	// Zero is meaningful here (warm device runs should transfer nothing
	// new), so the fields are always serialized for the benchcmp gate.
	ColdBytesH2D int64 `json:"cold_bytes_h2d"`
	WarmBytesH2D int64 `json:"warm_bytes_h2d"`
}

// reseed returns a copy of m with the same pattern and fresh
// deterministic values.
func reseed(m *csr.Matrix, seed int64) *csr.Matrix {
	rng := rand.New(rand.NewSource(seed))
	out := &csr.Matrix{
		Rows: m.Rows, Cols: m.Cols,
		RowOffsets: m.RowOffsets, ColIDs: m.ColIDs,
		Data: make([]float64, len(m.Data)),
	}
	for i := range out.Data {
		out.Data[i] = rng.NormFloat64()
	}
	return out
}

// IterBench measures the structure-reuse fast path end to end: the
// same matrix pattern multiplied Iterations times with fresh values,
// cold (no cache) versus warm (plan cache shared across iterations),
// on the real CPU engine and on the simulated out-of-core GPU engine.
func IterBench() (*Table, *IterBenchReport, error) {
	const iters = 5
	a := matgen.RMAT(12, 16, 0.6, 0.19, 0.19, 7)
	rep := &IterBenchReport{
		Matrix:     "rmat-12 (scale 12, edge factor 16, a=0.6)",
		Rows:       a.Rows,
		Cols:       a.Cols,
		Nnz:        a.Nnz(),
		Flops:      csr.Flops(a, a),
		Threads:    parallel.Workers(0),
		Iterations: iters,
	}

	cpu, err := iterCPU(a, iters)
	if err != nil {
		return nil, nil, fmt.Errorf("iter bench cpu: %w", err)
	}
	rep.CPU = cpu
	gpu, err := iterGPU(a, iters)
	if err != nil {
		return nil, nil, fmt.Errorf("iter bench gpu: %w", err)
	}
	rep.GPU = gpu

	t := &Table{
		Title:  fmt.Sprintf("Iterative workload: %s, %d fresh-values iterations", rep.Matrix, iters),
		Header: []string{"engine", "cold s/iter", "warm s/iter", "speedup", "symbolic s", "hit rate"},
		Rows: [][]string{
			{"cpu (wall)", fmt.Sprintf("%.4f", cpu.ColdSeconds), fmt.Sprintf("%.4f", cpu.WarmSeconds),
				fmt.Sprintf("%.2fx", cpu.Speedup), fmt.Sprintf("%.4f", cpu.SymbolicSeconds), fmt.Sprintf("%.2f", cpu.HitRate)},
			{"gpu (simulated)", fmt.Sprintf("%.4f", gpu.ColdSeconds), fmt.Sprintf("%.4f", gpu.WarmSeconds),
				fmt.Sprintf("%.2fx", gpu.Speedup), fmt.Sprintf("%.4f", gpu.SymbolicSeconds), fmt.Sprintf("%.2f", gpu.HitRate)},
		},
		Notes: []string{
			"warm = cached symbolic plan, numeric-only re-multiply",
			fmt.Sprintf("gpu H2D bytes cold %d -> warm %d (panels stay device-resident across jobs)", gpu.ColdBytesH2D, gpu.WarmBytesH2D),
			"written to BENCH_iter.json by cmd/spgemm-bench -exp=iter",
		},
	}
	return t, rep, nil
}

// iterCPU times the real engine: cold = full two-phase multiply per
// iteration, warm = numeric-only into the cached symbolic structure —
// both against the same fresh-values matrices so the ratio is exact.
func iterCPU(a *csr.Matrix, iters int) (IterEngineResult, error) {
	var res IterEngineResult
	opts := cpuspgemm.Options{}

	// Populate the plan once (excluded from both averages).
	_, sym, err := cpuspgemm.MultiplyPlanned(a, a, opts)
	if err != nil {
		return res, err
	}
	var coldTotal, warmTotal float64
	for it := 0; it < iters; it++ {
		fresh := reseed(a, int64(1000+it))
		start := time.Now()
		if _, err := cpuspgemm.Multiply(fresh, fresh, opts); err != nil {
			return res, err
		}
		coldTotal += time.Since(start).Seconds()
		start = time.Now()
		if _, err := cpuspgemm.Numeric(sym, fresh, fresh, opts); err != nil {
			return res, err
		}
		warmTotal += time.Since(start).Seconds()
		res.Hits++
	}
	res.Misses = 1
	res.ColdSeconds = coldTotal / float64(iters)
	res.WarmSeconds = warmTotal / float64(iters)
	res.Speedup = res.ColdSeconds / res.WarmSeconds
	res.SymbolicSeconds = res.ColdSeconds - res.WarmSeconds
	res.NumericSeconds = res.WarmSeconds
	res.HitRate = float64(res.Hits) / float64(res.Hits+res.Misses)
	return res, nil
}

// iterGPU times the out-of-core engine in simulated seconds: cold
// runs have no cache, warm runs share one plan cache (and its panel
// residency) across iterations.
func iterGPU(a *csr.Matrix, iters int) (IterEngineResult, error) {
	var res IterEngineResult
	// The suite's scaling: device memory holds the inputs plus 60% of
	// the output footprint, so the run is genuinely out-of-core.
	c, err := cpuspgemm.Multiply(a, a, cpuspgemm.Options{})
	if err != nil {
		return res, err
	}
	cfg := gpusim.ScaledV100Config(c.Bytes()*6/10 + 2*a.Bytes())
	opts := core.Options{RowPanels: 4, ColPanels: 4, Async: true}

	pc := core.NewPlanCache(0)
	warmOpts := opts
	warmOpts.PlanCache = pc
	// Populate the cache (excluded from the warm average).
	if _, _, err := core.Run(a, a, cfg, warmOpts); err != nil {
		return res, err
	}
	var coldTotal, warmTotal float64
	for it := 0; it < iters; it++ {
		fresh := reseed(a, int64(2000+it))
		_, coldSt, err := core.Run(fresh, fresh, cfg, opts)
		if err != nil {
			return res, err
		}
		coldTotal += coldSt.TotalSec
		res.ColdBytesH2D += coldSt.BytesH2D
		_, warmSt, err := core.Run(fresh, fresh, cfg, warmOpts)
		if err != nil {
			return res, err
		}
		warmTotal += warmSt.TotalSec
		res.WarmBytesH2D += warmSt.BytesH2D
	}
	hits, misses, _ := pc.Counters()
	res.Hits, res.Misses = hits, misses
	res.ColdSeconds = coldTotal / float64(iters)
	res.WarmSeconds = warmTotal / float64(iters)
	res.Speedup = res.ColdSeconds / res.WarmSeconds
	res.SymbolicSeconds = res.ColdSeconds - res.WarmSeconds
	res.NumericSeconds = res.WarmSeconds
	res.HitRate = float64(hits) / float64(hits+misses)
	return res, nil
}
