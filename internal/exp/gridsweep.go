package exp

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/gpusim"
	"repro/internal/matgen"
	"repro/internal/metrics"
	"repro/internal/multigpu"
	"repro/internal/partition"
	"repro/internal/reorder"
)

// GridSweepGrids is the chunk-grid sweep of the methodology experiment.
var GridSweepGrids = [][2]int{{1, 2}, {2, 2}, {3, 3}, {4, 4}, {6, 5}, {8, 8}}

// GridSweep reproduces the paper's chunk-size methodology (Section
// IV-A: "The percentage varies with the chunk size. Thus, we select
// the results when synchronous spECK achieves the best performance"):
// it sweeps chunk grids for one matrix and reports the synchronous and
// asynchronous totals, showing the trade-off between per-chunk
// overheads (fine grids) and lost overlap/buffer pressure (coarse
// grids).
func GridSweep(runs []*Run, abbr string) (*Table, error) {
	r := findRun(runs, abbr)
	if r == nil {
		return nil, fmt.Errorf("gridsweep: no matrix %q", abbr)
	}
	t := &Table{
		Title:  fmt.Sprintf("Methodology: chunk-grid sweep on %s (sim ms)", abbr),
		Header: []string{"grid", "chunks", "sync", "async", "async transfer %"},
		Notes:  []string{"the paper tunes the chunk size per matrix the same way (Section IV-A)"},
	}
	for _, g := range GridSweepGrids {
		syncOpts := core.Options{RowPanels: g[0], ColPanels: g[1], DynamicAlloc: true}
		_, syncSt, err := multigpu.Run(r.A, r.A, r.Cfg(), multigpu.Options{Core: syncOpts})
		syncCell := "oom"
		if err == nil {
			syncCell = fmt.Sprintf("%.3f", syncSt.TotalSec*1e3)
		}
		asyncOpts := core.Options{RowPanels: g[0], ColPanels: g[1], Async: true, Reorder: true}
		_, asyncSt, err := multigpu.Run(r.A, r.A, r.Cfg(), multigpu.Options{Core: asyncOpts})
		asyncCell, fracCell := "oom", "-"
		if err == nil {
			asyncCell = fmt.Sprintf("%.3f", asyncSt.TotalSec*1e3)
			fracCell = fmt.Sprintf("%.1f", asyncSt.TransferFraction*100)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", g[0], g[1]),
			fmt.Sprintf("%d", g[0]*g[1]),
			syncCell, asyncCell, fracCell,
		})
	}
	return t, nil
}

// BufferSweep sweeps the async pipeline's output-buffer count (the
// paper double-buffers); run by BenchmarkAblationBuffers.
func BufferSweep(r *Run, counts []int) ([]float64, error) {
	out := make([]float64, len(counts))
	for i, n := range counts {
		opts := r.CoreOpts()
		opts.Async = true
		opts.Reorder = true
		opts.OutputBuffers = n
		_, st, err := multigpu.Run(r.A, r.A, r.Cfg(), multigpu.Options{Core: opts})
		if err != nil {
			return nil, fmt.Errorf("buffers=%d: %w", n, err)
		}
		out[i] = st.TotalSec
	}
	return out, nil
}

// AblationFormulation compares the row-column formulation (a 2-D chunk
// grid) against a row-row out-of-core variant (row panels only, all of
// B resident) — the design choice of the paper's Section III-A. The
// row-row variant only works while B fits on the device; the table
// reports "oom" where it does not.
func AblationFormulation(runs []*Run) (*Table, error) {
	t := &Table{
		Title:  "Ablation F: row-column vs row-row (B resident) formulation (sim ms, async)",
		Header: []string{"matrix", "row-column", "row-row", "row-column @small dev", "row-row @small dev"},
		Notes: []string{
			"Section III-A: the row-row formulation cannot partition B; once the device",
			"shrinks below B's footprint it stops working, while the row-column grid",
			"keeps going by streaming column panels.",
		},
	}
	run := func(r *Run, opts core.Options, devMem int64) string {
		cfg := r.Cfg()
		cfg.MemoryBytes = devMem
		if _, st, err := multigpu.Run(r.A, r.A, cfg, multigpu.Options{Core: opts}); err == nil {
			return fmt.Sprintf("%.3f", st.TotalSec*1e3)
		}
		return "oom"
	}
	for _, r := range runs {
		rc := r.CoreOpts()
		rc.Async = true
		rc.Reorder = true
		rr := core.Options{RowPanels: r.GridR * r.GridC, ColPanels: 1, Async: true, Reorder: true}
		if rr.RowPanels > r.A.Rows {
			rr.RowPanels = r.A.Rows
		}
		// A deliberately small device: below B's resident footprint
		// (B ≈ A for these square products), so the row-row variant
		// must fail while the 2-D grid streams column panels through.
		rcSmall := rc
		rcSmall.RowPanels *= 2
		rcSmall.ColPanels *= 2
		small := r.A.Bytes()*6/10 + 3*maxChunkBytes(r.C, rcSmall.RowPanels, rcSmall.ColPanels)
		t.Rows = append(t.Rows, []string{
			r.Entry.Abbr,
			run(r, rc, r.DevMem),
			run(r, rr, r.DevMem),
			run(r, rcSmall, small),
			run(r, rr, small),
		})
	}
	return t, nil
}

// maxChunkBytes computes the largest output chunk's footprint under an
// R x C grid, from the known product matrix.
func maxChunkBytes(c *csr.Matrix, gr, gc int) int64 {
	rb := partition.Bounds(c.Rows, gr)
	cb := partition.Bounds(c.Cols, gc)
	nnz := make([]int64, gr*gc)
	ri := 0
	for r := 0; r < c.Rows; r++ {
		for rb[ri+1] <= r {
			ri++
		}
		cols, _ := c.Row(r)
		ci := 0
		for _, col := range cols {
			for cb[ci+1] <= int(col) {
				ci++
			}
			nnz[ri*gc+ci]++
		}
	}
	var mx int64
	for i, n := range nnz {
		rows := int64(rb[i/gc+1] - rb[i/gc])
		if b := n*12 + (rows+1)*8; b > mx {
			mx = b
		}
	}
	return mx
}

// AblationLocality shows why the related work cares about input
// ordering (Akbudak et al., Ballard et al.): the same matrix run
// through the out-of-core pipeline in its natural (banded) order, in a
// random order, and re-localized with reverse Cuthill-McKee. Ordering
// changes the chunk-grid structure — a scrambled band spreads its
// output over every chunk — and with it the pipeline's cost.
func AblationLocality() (*Table, error) {
	t := &Table{
		Title:  "Ablation G: input ordering and the out-of-core pipeline (async)",
		Header: []string{"ordering", "bandwidth", "nonzero chunks", "sim ms"},
		Notes:  []string{"band matrix, 6x5 grid; RCM recovers the natural locality of a scrambled input"},
	}
	base := matgen.Band(9000, 4, 2024)
	rng := rand.New(rand.NewSource(2025))
	perm := make([]int32, base.Rows)
	for i, v := range rng.Perm(base.Rows) {
		perm[i] = int32(v)
	}
	shuffled, err := reorder.Permute(base, perm)
	if err != nil {
		return nil, err
	}
	rcmPerm, err := reorder.RCM(shuffled)
	if err != nil {
		return nil, err
	}
	recovered, err := reorder.Permute(shuffled, rcmPerm)
	if err != nil {
		return nil, err
	}

	// One shared device size: from the natural ordering's product.
	c, err := cpuspgemm.Multiply(base, base, cpuspgemm.Options{})
	if err != nil {
		return nil, err
	}
	devMem := c.Bytes()*6/10 + 2*base.Bytes()
	opts := core.Options{RowPanels: 6, ColPanels: 5, Async: true, Reorder: true}

	for _, variant := range []struct {
		name string
		m    *csr.Matrix
	}{{"natural (banded)", base}, {"random shuffle", shuffled}, {"RCM recovered", recovered}} {
		cfg := gpusim.ScaledV100Config(devMem)
		_, st, err := multigpu.Run(variant.m, variant.m, cfg, multigpu.Options{Core: opts})
		cell := "oom"
		if err == nil {
			cell = fmt.Sprintf("%.3f", st.TotalSec*1e3)
		}
		// Count nonzero chunks of the grid.
		eng, err2 := core.NewEngine(gpusim.NewDevice(nil, cfg), variant.m, variant.m, opts, 1)
		if err2 != nil {
			return nil, err2
		}
		nz := 0
		for _, f := range eng.ChunkFlops() {
			if f > 0 {
				nz++
			}
		}
		t.Rows = append(t.Rows, []string{
			variant.name,
			fmt.Sprintf("%d", reorder.Bandwidth(variant.m)),
			fmt.Sprintf("%d/%d", nz, opts.RowPanels*opts.ColPanels),
			cell,
		})
	}
	return t, nil
}

// PhaseBreakdown decomposes the asynchronous pipeline's device time by
// phase for every matrix, from the simulated timeline: row analysis,
// symbolic, numeric, H2D and D2H busy time, and the makespan. It makes
// Figure 3's stage structure quantitative.
func PhaseBreakdown(runs []*Run) (*Table, error) {
	t := &Table{
		Title:  "Diagnostics: async pipeline phase breakdown (sim ms)",
		Header: []string{"matrix", "analysis", "symbolic", "numeric", "h2d", "d2h", "makespan"},
		Notes:  []string{"kernel phases overlap the d2h column; their sum can exceed the makespan"},
	}
	for _, r := range runs {
		opts := r.CoreOpts()
		opts.Async = true
		opts.Reorder = true
		opts.Metrics = metrics.New()
		if _, _, err := multigpu.Run(r.A, r.A, r.Cfg(), multigpu.Options{Core: opts}); err != nil {
			return nil, fmt.Errorf("phases %s: %w", r.Entry.Abbr, err)
		}
		var analysis, symbolic, numeric, h2d, d2h float64
		var end float64
		for _, s := range opts.Metrics.SpansIn(metrics.Sim) {
			d := float64(s.End-s.Start) / 1e9
			if e := float64(s.End) / 1e9; e > end {
				end = e
			}
			switch s.Lane {
			case "h2d":
				h2d += d
			case "d2h":
				d2h += d
			case "kernel":
				switch {
				case strings.HasPrefix(s.Label, "analysis"):
					analysis += d
				case strings.HasPrefix(s.Label, "symbolic"):
					symbolic += d
				case strings.HasPrefix(s.Label, "numeric"):
					numeric += d
				}
			}
		}
		ms := func(x float64) string { return fmt.Sprintf("%.3f", x*1e3) }
		t.Rows = append(t.Rows, []string{
			r.Entry.Abbr, ms(analysis), ms(symbolic), ms(numeric), ms(h2d), ms(d2h), ms(end),
		})
	}
	return t, nil
}
