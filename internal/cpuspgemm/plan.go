package cpuspgemm

import (
	"fmt"
	"time"

	"repro/internal/accum"
	"repro/internal/csr"
	"repro/internal/parallel"
	"repro/internal/speck"
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
}

// Bytes reports the memory the plan retains, for cache accounting.
func (s *SymbolicResult) Bytes() int64 {
	return int64(len(s.RowFlops))*8 + int64(len(s.RowOffsets))*8 + int64(len(s.ColIDs))*4
}

// MultiplyPlanned computes C = A·B exactly like Multiply and hands back
// the symbolic plan as the by-product it is: the row analysis the
// multiply ran and the structure arrays its symbolic phase emitted,
// shared with the product, not copied. This is the cold half of the
// structure-reuse fast path — every later Numeric call of the pattern
// replays into this plan.
func MultiplyPlanned(a, b *csr.Matrix, opts Options) (*csr.Matrix, *SymbolicResult, error) {
	if a.Cols != b.Rows {
		return nil, nil, errDims(a, b)
	}
	rowFlops := csr.RowFlops(a, b)
	c, err := multiplyAdaptive(a, b, opts, rowFlops)
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
// plan — replay, the numeric phase a cold Multiply itself ends with, so
// the output is bit-for-bit a cold product's by construction. The
// product shares the plan's structure arrays and allocates only its
// value array.
//
// The operands must carry the same sparsity pattern the plan was built
// from; Numeric checks the shape and each row's first-touch count, while
// pattern equality is the caller's contract — the plan cache enforces it
// by fingerprint.
func Numeric(sym *SymbolicResult, a, b *csr.Matrix, opts Options) (*csr.Matrix, error) {
	if a.Rows != sym.Rows || a.Cols != sym.ACols || b.Rows != sym.ACols || b.Cols != sym.Cols {
		return nil, fmt.Errorf("cpuspgemm: numeric shape %dx%d · %dx%d does not match plan %dx%d · %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, sym.Rows, sym.ACols, sym.ACols, sym.Cols)
	}
	nnz := sym.RowOffsets[sym.Rows]
	c := &csr.Matrix{
		Rows:       sym.Rows,
		Cols:       sym.Cols,
		RowOffsets: sym.RowOffsets,
		ColIDs:     sym.ColIDs,
		Data:       make([]float64, nnz),
	}
	stopNumeric := opts.Metrics.StartWall("cpu", "numeric (warm)")
	err := NumericInto(speck.WholeWindow(c), a, b, sym.RowFlops, opts)
	stopNumeric()
	if err != nil {
		return nil, err
	}
	opts.countProduct(sym.RowFlops, nnz)
	return c, nil
}

// NumericInto is Numeric writing into storage the caller owns: the
// values of A·B land in w, whose structure must be the product's. The
// out-of-core engines' CPU worker computes a chunk this way, w being
// the chunk's windows in the whole product; rowFlops balances the
// chunked replay as in Numeric.
func NumericInto(w speck.Window, a, b *csr.Matrix, rowFlops []int64, opts Options) error {
	return replay(w, a, b, parallel.CostBounds(rowFlops, opts.threads()), opts, nil)
}

// replay is the numeric phase of every exact product, cold and warm:
// speck.NumericRows over w's fixed structure in dynamically claimed
// chunks, writing w.Data, one pooled scratch per worker fetched on its
// first chunk (see parallel.ForChunksW). pass, non-nil on the cold path,
// turns on Options.ChunkLog and labels rows for Options.ClassStats, under
// which the kernel runs one row per call so each can be timed.
func replay(w speck.Window, a, b *csr.Matrix, bounds []int, opts Options, pass *speck.SymbolicPass) error {
	nt := opts.threads()
	var log *ChunkLog
	var stats *ClassStats
	if pass != nil {
		log, stats = opts.ChunkLog, opts.ClassStats
	}
	var werr firstErr
	scratch := make([]*accum.Scratch, parallel.Workers(nt))
	forChunksLogged(nt, bounds, log, false, func(wk, lo, hi int) {
		if werr.get() != nil {
			return
		}
		if opts.canceled() {
			werr.set(ErrCanceled)
			return
		}
		if scratch[wk] == nil {
			scratch[wk] = accum.GetScratch(w.Width)
		}
		step := hi - lo
		if stats != nil {
			step = 1
		}
		t0 := time.Now()
		var part [speck.NumKinds]ClassStat
		for i := lo; i < hi; i += step {
			if err := speck.NumericRows(a, b, &w, scratch[wk], i, i+step); err != nil {
				werr.set(fmt.Errorf("cpuspgemm: numeric: %w", err))
				return
			}
			if stats != nil && w.RowNnz(i) != 0 {
				t1 := time.Now()
				part[pass.Kind(i)].NumericNs += t1.Sub(t0).Nanoseconds()
				t0 = t1
			}
		}
		if stats != nil {
			stats.merge(&part)
		}
	})
	for _, s := range scratch {
		if s != nil {
			accum.PutScratch(s)
		}
	}
	return werr.get()
}
