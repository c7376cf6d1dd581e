package exp

import (
	"fmt"

	"repro/internal/csr"
	"repro/internal/gpusim"
	"repro/internal/multigpu"
	"repro/internal/sim"
	"repro/internal/speck"
)

// AblationUpperBound quantifies Section IV-B's rejection of worst-case
// allocation: for each matrix it reports how much device memory
// upper-bound sizing would reserve for the output relative to the
// exact (symbolic) sizes the pre-allocated arena uses.
func AblationUpperBound(runs []*Run) *Table {
	t := &Table{
		Title:  "Ablation A: worst-case upper bounds vs exact symbolic sizes",
		Header: []string{"matrix", "upper-bound nnz", "actual nnz", "waste factor"},
		Notes:  []string{"Section IV-B: \"the gap between upper bounds and the actual sizes are really large\""},
	}
	for _, r := range runs {
		ub := csr.RowUpperBounds(r.A, r.A)
		var total int64
		for _, u := range ub {
			total += u
		}
		t.Rows = append(t.Rows, []string{
			r.Entry.Abbr,
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%d", r.C.Nnz()),
			fmt.Sprintf("%.2f", float64(total)/float64(r.C.Nnz())),
		})
	}
	return t
}

// UpperBoundWaste returns the worst-case/actual output size ratio for
// one matrix (used by the benchmark harness).
func UpperBoundWaste(r *Run) float64 {
	ub := csr.RowUpperBounds(r.A, r.A)
	var total int64
	for _, u := range ub {
		total += u
	}
	return float64(total) / float64(r.C.Nnz())
}

// RunUnifiedMemory models the paper's Section I alternative: let CUDA
// unified memory page the data in and out on demand instead of
// explicit out-of-core scheduling. Inputs fault in page by page, the
// kernels run, and the (oversubscribed) output pages are written back
// at unified-memory bandwidth, with no overlap — the page-fault
// mechanism has no knowledge of the SpGEMM structure. It returns the
// simulated seconds.
func RunUnifiedMemory(r *Run) (float64, error) {
	env := sim.NewEnv()
	dev := gpusim.NewDevice(env, r.Cfg())
	cm := speck.ModelFromDevice(dev.Cfg)
	var umErr error
	env.Spawn("um", func(p *sim.Proc) {
		res, err := speck.Compute(r.A, r.A, cm)
		if err != nil {
			umErr = err
			return
		}
		dev.UMRead(p, "A", r.A.Bytes())
		dev.UMRead(p, "B", r.A.Bytes())
		dev.Kernel(p, "analysis", res.AnalysisSec)
		dev.Kernel(p, "symbolic", res.SymbolicSec)
		dev.Kernel(p, "numeric", res.NumericSec)
		// Oversubscribed output: every page eventually migrates back.
		dev.UMWrite(p, "C", res.OutputBytes)
	})
	if err := env.Run(); err != nil {
		return 0, err
	}
	if umErr != nil {
		return 0, umErr
	}
	return sim.SecondsAt(env.Now()), nil
}

// AblationUnifiedMemory compares the out-of-core framework against the
// unified-memory execution model.
func AblationUnifiedMemory(runs []*Run) (*Table, error) {
	t := &Table{
		Title:  "Ablation B: out-of-core framework vs unified memory",
		Header: []string{"matrix", "unified memory (sim ms)", "out-of-core async (sim ms)", "speedup"},
		Notes:  []string{"Section I: page faulting wastes bandwidth and adds fault overheads"},
	}
	for _, r := range runs {
		umSec, err := RunUnifiedMemory(r)
		if err != nil {
			return nil, fmt.Errorf("um %s: %w", r.Entry.Abbr, err)
		}
		opts := r.CoreOpts()
		opts.Async = true
		opts.Reorder = true
		_, st, err := multigpu.Run(r.A, r.A, r.Cfg(), multigpu.Options{Core: opts})
		if err != nil {
			return nil, fmt.Errorf("ooc %s: %w", r.Entry.Abbr, err)
		}
		t.Rows = append(t.Rows, []string{
			r.Entry.Abbr,
			fmt.Sprintf("%.3f", umSec*1e3),
			fmt.Sprintf("%.3f", st.TotalSec*1e3),
			fmt.Sprintf("%.2f", umSec/st.TotalSec),
		})
	}
	return t, nil
}

// SplitFractions is the sweep grid of Ablation D.
var SplitFractions = []float64{0.10, 0.25, 1.0 / 3.0, 0.50, 0.75, 0.90}

// AblationSplitFraction sweeps the first-portion fraction of the
// divided output transfer (the paper fixes 33%, Section IV-B) on two
// representative matrices.
func AblationSplitFraction(runs []*Run, abbrs ...string) (*Table, error) {
	if len(abbrs) == 0 {
		abbrs = []string{"com-lj", "nlp"}
	}
	header := []string{"matrix"}
	for _, f := range SplitFractions {
		header = append(header, fmt.Sprintf("%.0f%%", f*100))
	}
	t := &Table{
		Title:  "Ablation D: async total vs first-portion split fraction (sim ms)",
		Header: header,
		Notes:  []string{"the paper fixes the first portion at 33% of the rows"},
	}
	for _, abbr := range abbrs {
		r := findRun(runs, abbr)
		if r == nil {
			return nil, fmt.Errorf("split ablation: no matrix %q", abbr)
		}
		row := []string{abbr}
		for _, f := range SplitFractions {
			opts := r.CoreOpts()
			opts.Async = true
			opts.Reorder = true
			opts.SplitFraction = f
			_, st, err := multigpu.Run(r.A, r.A, r.Cfg(), multigpu.Options{Core: opts})
			if err != nil {
				return nil, fmt.Errorf("split %s f=%.2f: %w", abbr, f, err)
			}
			row = append(row, fmt.Sprintf("%.3f", st.TotalSec*1e3))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
