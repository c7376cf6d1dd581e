package exp

import (
	"fmt"

	"repro/internal/hybrid"
	"repro/internal/multigpu"
	"repro/internal/summa"
)

// ScalingGPUCounts is the device-count sweep of the scaling extension.
var ScalingGPUCounts = []int{1, 2, 4, 8}

// FigScaling is the multi-GPU scaling extension experiment (not in the
// paper — its conclusion's "continue to scale" direction): simulated
// GFLOPS vs device count, with and without the CPU assisting.
func FigScaling(runs []*Run, abbrs ...string) (*Table, error) {
	if len(abbrs) == 0 {
		abbrs = []string{"com-lj", "nlp"}
	}
	header := []string{"matrix"}
	for _, n := range ScalingGPUCounts {
		header = append(header, fmt.Sprintf("%d GPU", n))
	}
	header = append(header, fmt.Sprintf("%d GPU + CPU", ScalingGPUCounts[len(ScalingGPUCounts)-1]))
	t := &Table{
		Title:  "Extension: multi-GPU scaling (GFLOPS)",
		Header: header,
		Notes:  []string{"chunks are independent (row-column formulation), so scaling is a scheduling problem"},
	}
	for _, abbr := range abbrs {
		r := findRun(runs, abbr)
		if r == nil {
			return nil, fmt.Errorf("scaling: no matrix %q", abbr)
		}
		row := []string{abbr}
		for _, n := range ScalingGPUCounts {
			opts := multigpu.Options{Core: r.CoreOpts(), NumGPUs: n}
			opts.Core.Async, opts.Core.Reorder = true, true
			_, st, err := multigpu.Run(r.A, r.A, r.Cfg(), opts)
			if err != nil {
				return nil, fmt.Errorf("scaling %s n=%d: %w", abbr, n, err)
			}
			row = append(row, fmt.Sprintf("%.3f", st.GFLOPS))
		}
		nMax := ScalingGPUCounts[len(ScalingGPUCounts)-1]
		opts := r.HybridOpts(true)
		opts.NumGPUs = nMax
		_, st, err := multigpu.Run(r.A, r.A, r.Cfg(), opts)
		if err != nil {
			return nil, fmt.Errorf("scaling %s cpu-assist: %w", abbr, err)
		}
		row = append(row, fmt.Sprintf("%.3f", st.GFLOPS))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// DistributedGrids is the process-grid sweep of the SUMMA experiment.
var DistributedGrids = []int{1, 2, 4}

// FigDistributed is the distributed sparse-SUMMA extension experiment
// (the paper's reference [33] setting): GFLOPS vs cluster size.
func FigDistributed(runs []*Run, abbrs ...string) (*Table, error) {
	if len(abbrs) == 0 {
		abbrs = []string{"com-lj", "nlp"}
	}
	header := []string{"matrix"}
	for _, q := range DistributedGrids {
		header = append(header, fmt.Sprintf("%dx%d nodes", q, q))
	}
	header = append(header, "4x4 pipelined", "comm share @4x4")
	t := &Table{
		Title:  "Extension: distributed sparse SUMMA (GFLOPS)",
		Header: header,
		Notes: []string{
			"plain SUMMA on a simulated 100 Gb/s fabric, 2 GFLOP/s nodes;",
			"the pipelined column drops the stage barrier and fetches ahead ([33]'s variant).",
		},
	}
	for _, abbr := range abbrs {
		r := findRun(runs, abbr)
		if r == nil {
			return nil, fmt.Errorf("distributed: no matrix %q", abbr)
		}
		row := []string{abbr}
		var last summa.Stats
		for _, q := range DistributedGrids {
			_, st, err := summa.Run(r.A, r.A, summa.Config{Cluster: summa.Cluster{Q: q}})
			if err != nil {
				return nil, fmt.Errorf("distributed %s q=%d: %w", abbr, q, err)
			}
			row = append(row, fmt.Sprintf("%.3f", st.GFLOPS))
			last = st
		}
		qMax := DistributedGrids[len(DistributedGrids)-1]
		_, piped, err := summa.Run(r.A, r.A, summa.Config{Cluster: summa.Cluster{Q: qMax, Pipelined: true}})
		if err != nil {
			return nil, fmt.Errorf("distributed %s pipelined: %w", abbr, err)
		}
		row = append(row, fmt.Sprintf("%.3f", piped.GFLOPS))
		row = append(row, fmt.Sprintf("%.0f%%", 100*last.CommSec/(last.CommSec+last.CompSec)))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Interconnects is the bandwidth sweep of the sensitivity experiment:
// the paper's PCIe 3 node, a PCIe 4 node, and an NVLink-class link.
var Interconnects = []struct {
	Name     string
	D2H, H2D float64
}{
	{"PCIe3 (paper)", 3.0e9, 12.0e9},
	{"PCIe4", 6.0e9, 24.0e9},
	{"NVLink-class", 40.0e9, 40.0e9},
}

// SensitivityBandwidth asks how the paper's conclusions depend on the
// interconnect: for each link speed it reports the synchronous
// transfer share (Figure 4's metric), the async-over-sync gain
// (Figure 8's) and the GPU/CPU speedup (Figure 7's). Faster links
// shrink the transfer share, but the async gain GROWS toward the
// compute/transfer balance point (overlap saves min(T, C), so it is
// worth the most when the two are comparable): the paper's pipeline
// is not made obsolete by faster interconnects — it pays off more.
func SensitivityBandwidth(runs []*Run, abbr string) (*Table, error) {
	r := findRun(runs, abbr)
	if r == nil {
		return nil, fmt.Errorf("sensitivity: no matrix %q", abbr)
	}
	t := &Table{
		Title:  fmt.Sprintf("Sensitivity: interconnect bandwidth on %s", abbr),
		Header: []string{"link", "sync transfer %", "async gain %", "GPU/CPU"},
		Notes: []string{
			"overlap saves min(transfer, compute), so the async gain grows as faster",
			"links move the pipeline toward compute/transfer balance",
		},
	}
	for _, link := range Interconnects {
		cfg := r.Cfg()
		cfg.D2HBandwidth = link.D2H
		cfg.H2DBandwidth = link.H2D

		syncOpts := r.CoreOpts()
		syncOpts.DynamicAlloc = true
		_, syncSt, err := multigpu.Run(r.A, r.A, cfg, multigpu.Options{Core: syncOpts})
		if err != nil {
			return nil, fmt.Errorf("sensitivity %s sync: %w", link.Name, err)
		}
		asyncOpts := r.CoreOpts()
		asyncOpts.Async = true
		asyncOpts.Reorder = true
		_, asyncSt, err := multigpu.Run(r.A, r.A, cfg, multigpu.Options{Core: asyncOpts})
		if err != nil {
			return nil, fmt.Errorf("sensitivity %s async: %w", link.Name, err)
		}
		_, cpuSt, err := hybrid.RunCPUOnly(r.A, r.A, cfg, hybrid.HostModel{})
		if err != nil {
			return nil, fmt.Errorf("sensitivity %s cpu: %w", link.Name, err)
		}
		t.Rows = append(t.Rows, []string{
			link.Name,
			fmt.Sprintf("%.1f", syncSt.TransferFraction*100),
			fmt.Sprintf("%.1f", (syncSt.TotalSec/asyncSt.TotalSec-1)*100),
			fmt.Sprintf("%.2f", cpuSt.TotalSec/asyncSt.TotalSec),
		})
	}
	return t, nil
}
