package speck

import (
	"fmt"
	"math/bits"

	"repro/internal/accum"
	"repro/internal/csr"
)

// Symbolic is the values-independent half of a chunk multiplication:
// everything Compute derives from the sparsity patterns of A and B —
// row analysis, host grouping, the exact output structure (row offsets
// and column ids), the per-phase simulated durations and the transfer
// and workspace sizes. It is the unit the out-of-core plan cache
// stores: a later multiply whose operands carry the same pattern with
// fresh values re-runs only Numeric against it.
type Symbolic struct {
	// Rows, ACols and Cols record the operand shape the plan was built
	// for (A is Rows x ACols, B is ACols x Cols); Numeric validates
	// against them.
	Rows, ACols, Cols int

	// RowFlops and UpperBounds are the row-analysis outputs.
	RowFlops    []int64
	UpperBounds []int64
	// Groups is the host-side row grouping for the numeric kernels.
	Groups []Group
	// Flops is the total flop count; HashFlops and DenseFlops split it
	// by accumulator kind.
	Flops, HashFlops, DenseFlops int64

	// AnalysisSec, SymbolicSec and NumericSec are the simulated kernel
	// durations of the three phases.
	AnalysisSec, SymbolicSec, NumericSec float64

	// RowInfoBytes, NnzInfoBytes, OutputBytes and WorkspaceBytes are
	// the transfer payloads and device workspace of the chunk.
	RowInfoBytes, NnzInfoBytes, OutputBytes, WorkspaceBytes int64

	// RowOffsets and ColIDs are the exact output structure. Numeric
	// shares them with every product it emits; treat them as read-only.
	RowOffsets []int64
	ColIDs     []int32
}

// Bytes reports the memory the symbolic result retains, for cache
// accounting: the two structure arrays dominate, the row-analysis
// arrays follow.
func (s *Symbolic) Bytes() int64 {
	return int64(len(s.RowOffsets))*8 + int64(len(s.ColIDs))*4 +
		int64(len(s.RowFlops)+len(s.UpperBounds))*8 + int64(len(s.Groups))*48
}

// SymbolicCompute runs the values-independent pipeline — row analysis,
// symbolic structure (exact output row sizes and column ids) and host
// grouping — without touching any numeric value. Compute is exactly
// SymbolicCompute followed by Numeric, so a cached Symbolic replays
// into a byte-identical product.
func SymbolicCompute(a, b *csr.Matrix, cm CostModel) (*Symbolic, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("speck: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	// Symbolic phase: exact output structure, each row on the kernel its
	// class picks. Every class flushes ascending — the order the numeric
	// accumulators emit — so the structure recorded here is bit-for-bit
	// the structure a cold multiply produces.
	rowFlops := csr.RowFlops(a, b)
	pass := NewSymbolicPass(a, b, rowFlops)
	sym := NewSymbolic(a, b, rowFlops, pass.Offsets(), cm)
	sym.ColIDs = pass.Emit(sym.RowOffsets)
	return sym, nil
}

// NewSymbolic derives a chunk's scheduling metadata — upper bounds, host
// grouping, simulated durations, transfer and workspace sizes — from its
// row flops and exact output row offsets, leaving ColIDs unset: the
// out-of-core engine holds the whole product's column ids once.
func NewSymbolic(a, b *csr.Matrix, rowFlops, rowOffsets []int64, cm CostModel) *Symbolic {
	sym := &Symbolic{
		Rows:        a.Rows,
		ACols:       a.Cols,
		Cols:        b.Cols,
		RowFlops:    rowFlops,
		UpperBounds: make([]int64, len(rowFlops)),
	}
	for i, f := range rowFlops {
		sym.UpperBounds[i] = f / 2 // csr.RowUpperBounds without its walk
	}
	finalizeSymbolic(sym, rowOffsets, b.Cols, cm)
	return sym
}

// finalizeSymbolic fills everything downstream of the structure scan —
// host grouping, exact offsets, simulated durations, transfer and
// workspace sizes — from the exact output row offsets.
func finalizeSymbolic(sym *Symbolic, rowOffsets []int64, width int, cm CostModel) {
	// Host re-grouping for the numeric phase: bin rows by (kind, size
	// class), where kind is dense accumulation for rows whose
	// flops-per-output ratio amortizes the dense array.
	type key struct {
		kind GroupKind
		sc   int
	}
	bins := map[key]*Group{}
	var order []key // deterministic group order: first appearance
	for r := 0; r < sym.Rows; r++ {
		if sym.UpperBounds[r] == 0 {
			continue // empty output row: no kernel work
		}
		kind := HashGroup
		if denseRow(sym.RowFlops[r], rowOffsets[r+1]-rowOffsets[r]) {
			kind = DenseGroup
		}
		sc := bits.Len64(uint64(sym.UpperBounds[r]))
		k := key{kind, sc}
		g, ok := bins[k]
		if !ok {
			g = &Group{Kind: kind, SizeClass: sc}
			bins[k] = g
			order = append(order, k)
		}
		g.Rows = append(g.Rows, int32(r))
		g.Flops += sym.RowFlops[r]
		sym.Flops += sym.RowFlops[r]
		if kind == DenseGroup {
			sym.DenseFlops += sym.RowFlops[r]
		} else {
			sym.HashFlops += sym.RowFlops[r]
		}
	}
	for _, k := range order {
		sym.Groups = append(sym.Groups, *bins[k])
	}

	sym.RowOffsets = rowOffsets

	// Cost model.
	var numeric float64
	if cm.HashRate > 0 {
		numeric += float64(sym.HashFlops) / cm.HashRate
	}
	if cm.DenseRate > 0 {
		numeric += float64(sym.DenseFlops) / cm.DenseRate
	}
	sym.NumericSec = numeric
	sym.SymbolicSec = numeric * cm.SymbolicFactor
	sym.AnalysisSec = numeric * cm.AnalysisFactor

	// Transfer and workspace sizes.
	sym.RowInfoBytes = int64(sym.Rows) * 16 // flops + upper bound per row
	sym.NnzInfoBytes = int64(sym.Rows) * 8  // output row size per row
	nnz := sym.RowOffsets[sym.Rows]
	sym.OutputBytes = int64(sym.Rows+1)*8 + nnz*4 + nnz*8
	sym.WorkspaceBytes = workspaceBytes(sym.UpperBounds, width)
}

// Numeric re-runs only value accumulation against a pre-computed
// symbolic structure — NumericRows over every row, on a pooled scratch
// so a run's chunks share one pair of panel-width arrays. The product
// shares the symbolic structure arrays and allocates only its value
// array.
//
// The operands must carry the same sparsity pattern the symbolic
// result was computed from; Numeric checks the shape and each row's
// first-touch count, while pattern equality is the caller's contract —
// the plan cache enforces it by fingerprint.
func Numeric(sym *Symbolic, a, b *csr.Matrix) (*Result, error) {
	if a.Rows != sym.Rows || a.Cols != sym.ACols || b.Rows != sym.ACols || b.Cols != sym.Cols {
		return nil, fmt.Errorf("speck: numeric shape %dx%d · %dx%d does not match plan %dx%d · %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, sym.Rows, sym.ACols, sym.ACols, sym.Cols)
	}
	c := &csr.Matrix{
		Rows:       sym.Rows,
		Cols:       sym.Cols,
		RowOffsets: sym.RowOffsets,
		ColIDs:     sym.ColIDs,
		Data:       make([]float64, sym.RowOffsets[sym.Rows]),
	}
	s := accum.GetScratch(sym.Cols)
	defer accum.PutScratch(s)
	w := WholeWindow(c)
	if err := NumericRows(a, b, &w, s, 0, sym.Rows); err != nil {
		return nil, fmt.Errorf("speck: numeric: %w", err)
	}
	return &Result{C: c, Symbolic: sym}, nil
}
