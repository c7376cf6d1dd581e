// Package speck implements the in-core GPU SpGEMM algorithm the
// out-of-core framework invokes per chunk, following spECK (Parger et
// al. [30]) as the paper's Section III-B describes:
//
//  1. Row analysis: compute per-row flops and worst-case output sizes.
//  2. Host grouping: bin rows into groups by size class so each group
//     can use a kernel configuration suited to its rows; rows with
//     dense output use the dense accumulator, sparse rows the hash map.
//  3. Symbolic kernels (one per group): count output row sizes.
//  4. Numeric kernels (one per group): compute the values.
//
// The arithmetic is executed for real (the returned chunk is exact);
// alongside it the package reports the simulated duration of each phase
// from a cost model, which the out-of-core engine turns into simulated
// kernel launches. Splitting "what is computed" from "when it runs" is
// what lets the same phase results drive both the synchronous baseline
// and the asynchronous pipeline.
package speck

import (
	"repro/internal/csr"
	"repro/internal/gpusim"
)

// CostModel converts per-group work into kernel durations.
type CostModel struct {
	// HashRate and DenseRate are numeric-phase throughputs (flops/s)
	// for hash-accumulator and dense-accumulator kernels.
	HashRate, DenseRate float64
	// SymbolicFactor scales numeric cost to symbolic cost.
	SymbolicFactor float64
	// AnalysisFactor scales numeric cost to row-analysis cost.
	AnalysisFactor float64
}

// ModelFromDevice extracts the cost model from a device configuration.
func ModelFromDevice(cfg gpusim.DeviceConfig) CostModel {
	return CostModel{
		HashRate:       cfg.HashRate,
		DenseRate:      cfg.DenseRate,
		SymbolicFactor: cfg.SymbolicFactor,
		AnalysisFactor: cfg.AnalysisFactor,
	}
}

// GroupKind selects the accumulator a row group uses.
type GroupKind int

const (
	// HashGroup rows accumulate into a hash map (sparse output rows).
	HashGroup GroupKind = iota
	// DenseGroup rows accumulate into a dense array (dense output rows).
	DenseGroup
)

func (k GroupKind) String() string {
	if k == DenseGroup {
		return "dense"
	}
	return "hash"
}

// Group is a set of rows of the A panel sharing a size class and
// accumulator kind; each group becomes one kernel launch.
type Group struct {
	Kind GroupKind
	// SizeClass is ceil(log2) of the worst-case row size, the binning
	// criterion.
	SizeClass int
	// Rows are indices into the A panel.
	Rows []int32
	// Flops is the total multiply-add flops of the group's rows.
	Flops int64
}

// Result is the outcome of one chunk multiplication: the exact product
// plus everything the out-of-core scheduler needs — the Symbolic it was
// computed against (sizes, groupings and per-phase simulated durations).
type Result struct {
	// C is the exact chunk product with panel-local column ids.
	C *csr.Matrix
	*Symbolic
}

// denseCRThreshold: after the symbolic phase, a row is assigned to a
// dense-accumulation numeric kernel when its flops are at least this
// multiple of its output size, i.e. every output slot is hit several
// times and the dense array amortizes. This mirrors the paper's
// re-assignment of rows between the symbolic and numeric phases
// (Figure 3) using the now-known output sizes.
const denseCRThreshold = 8

// maxConcurrentRows models how many rows' accumulators are live on the
// device at once (one per SM in the kernel model); it sizes the
// workspace requirement.
const maxConcurrentRows = 80

// Compute multiplies an A row panel by a B column panel (B given with
// panel-local column ids) and returns the exact chunk product together
// with phase costs under the model. It is exactly SymbolicCompute
// followed by Numeric — the split the structure-reuse fast path caches
// across multiplies with an unchanged sparsity pattern.
func Compute(a, b *csr.Matrix, cm CostModel) (*Result, error) {
	sym, err := SymbolicCompute(a, b, cm)
	if err != nil {
		return nil, err
	}
	return Numeric(sym, a, b)
}

// workspaceBytes estimates the device workspace: each of the
// maxConcurrentRows in-flight rows holds an accumulator sized to its
// worst case (capped at the panel width), 12 bytes per slot.
func workspaceBytes(ub []int64, width int) int64 {
	top := topK(ub, maxConcurrentRows)
	var total int64
	for _, u := range top {
		if u > int64(width) {
			u = int64(width)
		}
		total += u * 12
	}
	return total
}

// topK returns the k largest values of xs (k smallest-effort selection;
// panel row counts are modest).
func topK(xs []int64, k int) []int64 {
	if k > len(xs) {
		k = len(xs)
	}
	top := make([]int64, 0, k)
	for _, x := range xs {
		if len(top) < k {
			top = append(top, x)
			continue
		}
		// Replace the minimum if x is larger.
		mi := 0
		for i, t := range top {
			if t < top[mi] {
				mi = i
			}
		}
		if x > top[mi] {
			top[mi] = x
		}
	}
	return top
}
