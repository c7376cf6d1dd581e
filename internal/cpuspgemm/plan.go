package cpuspgemm

import (
	"fmt"

	"repro/internal/accum"
	"repro/internal/csr"
	"repro/internal/metrics"
	"repro/internal/parallel"
)

// SymbolicResult is the values-independent half of a CPU multiply: the
// row-analysis output and the exact output structure. It is what the
// plan cache stores for a sparsity pattern — a later multiply whose
// operands carry the same pattern re-runs only Numeric against it,
// skipping row analysis, the symbolic phase and the prefix sum.
type SymbolicResult struct {
	// Rows, ACols and Cols record the operand shape the plan was built
	// for (A is Rows x ACols, B is ACols x Cols).
	Rows, ACols, Cols int
	// RowFlops is the row-analysis output; the warm path re-balances
	// its chunk boundaries from it.
	RowFlops []int64
	// RowOffsets and ColIDs are the exact output structure. Numeric
	// shares them with every product it emits; treat them as read-only.
	RowOffsets []int64
	ColIDs     []int32
	// Estimated records the plan's provenance: true when the structure
	// came from the estimation-elided path. The structure is exact
	// either way (the numeric pass observed every row), so warm replays
	// never care — the flag exists for observability and so plan caches
	// can upgrade an estimated entry in place when an exact plan for
	// the same pattern arrives.
	Estimated bool
}

// Bytes reports the memory the plan retains, for cache accounting.
func (s *SymbolicResult) Bytes() int64 {
	return int64(len(s.RowFlops))*8 + int64(len(s.RowOffsets))*8 + int64(len(s.ColIDs))*4
}

// MultiplyPlanned computes C = A·B exactly like Multiply and
// additionally captures the symbolic plan of the multiply. The capture
// is nearly free: the product's structure arrays are shared with the
// plan (not copied), and only the row-analysis pass is re-run. This is
// the cold half of the structure-reuse fast path — the first multiply
// of a pattern pays full price once and hands back the plan that every
// later Numeric call reuses.
func MultiplyPlanned(a, b *csr.Matrix, opts Options) (*csr.Matrix, *SymbolicResult, error) {
	if a.Cols != b.Rows {
		return nil, nil, errDims(a, b)
	}
	rowFlops := csr.RowFlops(a, b)
	if opts.useEstimation(rowFlops) {
		// The estimated cold path captures its plan for free: the
		// structure falls out of the adaptive numeric pass.
		c, sym, _, err := estimatedMultiply(a, b, opts, rowFlops)
		return c, sym, err
	}
	c, err := multiplyExact(a, b, opts, rowFlops)
	if err != nil {
		return nil, nil, err
	}
	sym := &SymbolicResult{
		Rows:       a.Rows,
		ACols:      a.Cols,
		Cols:       b.Cols,
		RowFlops:   rowFlops,
		RowOffsets: c.RowOffsets,
		ColIDs:     c.ColIDs,
	}
	return c, sym, nil
}

// Numeric re-runs only value accumulation against a cached symbolic
// plan: per output row the intermediate products scatter into a dense
// scratch array in the same order the cold accumulators apply them,
// then gather out through the cached column ids. The product shares
// the plan's structure arrays and allocates only its value array.
//
// The output is bit-for-bit identical to a cold Multiply with the
// Hash or Dense method (both accumulate same-column products in
// insertion order, as the scratch array does). ESC sorts products with
// an unstable sort before summing, so against it the warm path agrees
// exactly in structure and to rounding in values.
//
// The operands must carry the same sparsity pattern the plan was built
// from; Numeric checks the shape, while pattern equality is the
// caller's contract — the plan cache enforces it by fingerprint.
func Numeric(sym *SymbolicResult, a, b *csr.Matrix, opts Options) (*csr.Matrix, error) {
	if a.Rows != sym.Rows || a.Cols != sym.ACols || b.Rows != sym.ACols || b.Cols != sym.Cols {
		return nil, fmt.Errorf("cpuspgemm: numeric shape %dx%d · %dx%d does not match plan %dx%d · %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, sym.Rows, sym.ACols, sym.ACols, sym.Cols)
	}
	nt := opts.threads()
	nnz := sym.RowOffsets[sym.Rows]
	c := &csr.Matrix{
		Rows:       sym.Rows,
		Cols:       sym.Cols,
		RowOffsets: sym.RowOffsets,
		ColIDs:     sym.ColIDs,
		Data:       make([]float64, nnz),
	}
	bounds := parallel.CostBounds(sym.RowFlops, nt)
	var werr firstErr

	// One scratch per worker, fetched on the worker's first chunk and
	// reused across all chunks it claims (not one pool round-trip per
	// chunk — see parallel.ForChunksW).
	scratch := make([]*accum.Scratch, parallel.Workers(nt))
	defer func() {
		for _, s := range scratch {
			if s != nil {
				accum.PutScratch(s)
			}
		}
	}()
	stopNumeric := opts.Metrics.StartWall("cpu", "numeric (warm)")
	parallel.ForChunksW(nt, bounds, func(w, lo, hi int) {
		if werr.get() != nil {
			return
		}
		if opts.canceled() {
			werr.set(ErrCanceled)
			return
		}
		if scratch[w] == nil {
			scratch[w] = accum.GetScratch(sym.Cols)
		}
		s := scratch[w]
		for i := lo; i < hi; i++ {
			off, end := sym.RowOffsets[i], sym.RowOffsets[i+1]
			if off == end {
				continue
			}
			gen := s.NextGen()
			ac, av := a.Row(i)
			for p := range ac {
				bc, bv := b.Row(int(ac[p]))
				for q := range bc {
					col := bc[q]
					if s.Stamp[col] != gen {
						s.Stamp[col] = gen
						s.Vals[col] = av[p] * bv[q]
					} else {
						s.Vals[col] += av[p] * bv[q]
					}
				}
			}
			for j := off; j < end; j++ {
				c.Data[j] = s.Vals[sym.ColIDs[j]]
			}
		}
	})
	stopNumeric()
	if err := werr.get(); err != nil {
		return nil, err
	}
	if m := opts.Metrics; m.Enabled() {
		var flops int64
		for _, f := range sym.RowFlops {
			flops += f
		}
		m.Add(metrics.CounterFlops, flops)
		m.Add(metrics.CounterRows, int64(sym.Rows))
		m.Add(metrics.CounterNnzC, nnz)
	}
	return c, nil
}
