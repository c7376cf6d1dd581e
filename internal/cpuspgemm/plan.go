package cpuspgemm

import (
	"fmt"
	"sync/atomic"

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

	memo atomic.Pointer[replayMemo] // swapped whole: plans are shared
}

// replayMemo is a plan's replay chunk bounds for one thread count, and
// its flop count.
type replayMemo struct {
	threads int
	bounds  []int
	flops   int64
}

// Bytes reports the memory the plan retains, for cache accounting.
func (s *SymbolicResult) Bytes() int64 {
	return int64(len(s.RowFlops))*8 + int64(len(s.RowOffsets))*8 + int64(len(s.ColIDs))*4
}

// Flops reports the multiply's flop count, the sum of RowFlops.
func (s *SymbolicResult) Flops() int64 { return sum(s.RowFlops) }

// MultiplyPlanned computes C = A·B exactly like Multiply and hands back
// the symbolic plan as the by-product it is: the row analysis the
// multiply ran and the structure arrays its symbolic phase emitted,
// shared with the product, not copied. This is the cold half of the
// structure-reuse fast path — every later Numeric call of the pattern
// replays into this plan.
func MultiplyPlanned(a, b *csr.Matrix, opts Options) (*csr.Matrix, *SymbolicResult, error) {
	if err := checkOperands(a, b); err != nil {
		return nil, nil, err
	}
	rowFlops := csr.RowFlops(a, b, opts.threads())
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
	return NumericScheduled(sym, nil, nil, a, b, opts)
}

// NumericScheduled is Numeric running sched, a schedule sym.Schedule
// built for operands with a's and b's structure arrays; a nil schedule
// is built and checked per chunk, as Numeric does. The values land in
// dst if it holds nnz(C) elements (replay writes every slot, so its old
// contents are never read), in a fresh array otherwise.
func NumericScheduled(sym *SymbolicResult, sched *speck.Schedule, dst []float64, a, b *csr.Matrix, opts Options) (*csr.Matrix, error) {
	if a.Rows != sym.Rows || a.Cols != sym.ACols || b.Rows != sym.ACols || b.Cols != sym.Cols {
		return nil, fmt.Errorf("cpuspgemm: numeric shape %dx%d · %dx%d does not match plan %dx%d · %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, sym.Rows, sym.ACols, sym.ACols, sym.Cols)
	}
	nnz := sym.RowOffsets[sym.Rows]
	if int64(len(dst)) != nnz {
		dst = make([]float64, nnz)
	}
	c := &csr.Matrix{
		Rows:       sym.Rows,
		Cols:       sym.Cols,
		RowOffsets: sym.RowOffsets,
		ColIDs:     sym.ColIDs,
		Data:       dst,
	}
	memo := sym.memo.Load()
	if nt := opts.threads(); memo == nil || memo.threads != nt {
		memo = &replayMemo{nt, parallel.CostBounds(sym.RowFlops, nt), sym.Flops()}
		sym.memo.Store(memo)
	}
	stopNumeric := opts.Metrics.StartWall("cpu", "numeric (warm)")
	_, err := replay(speck.WholeWindow(c), a, b, memo.bounds, opts, sched)
	stopNumeric()
	if err != nil {
		return nil, err
	}
	opts.countProduct(memo.flops, sym.Rows, nnz)
	return c, nil
}

// Schedule builds and checks the replay schedule of the plan's product
// for a and b (speck.Schedule), nil when their shape is not the plan's.
func (s *SymbolicResult) Schedule(a, b *csr.Matrix) *speck.Schedule {
	if a.Rows != s.Rows || a.Cols != s.ACols || b.Rows != s.ACols || b.Cols != s.Cols {
		return nil
	}
	w := speck.Window{Offs: s.RowOffsets, Stride: 1, Cols: s.ColIDs, Width: s.Cols}
	return speck.NewSchedule(a, b, &w, 0, s.Rows)
}

// NumericInto is Numeric writing into storage the caller owns: the
// values of A·B land in w, whose structure must be the product's, and it
// returns how many rows it computed — all of A's unless it failed or
// Options.Cancel stopped it. The out-of-core engine computes its whole
// product this way; rowFlops balances the chunked replay as in Numeric.
func NumericInto(w speck.Window, a, b *csr.Matrix, rowFlops []int64, opts Options) (int64, error) {
	return replay(w, a, b, parallel.CostBounds(rowFlops, opts.threads()), opts, nil)
}

// replay is the numeric phase of every exact product, cold and warm:
// speck.NumericRows over w's fixed structure in dynamically claimed
// chunks, writing w.Data, one pooled scratch per worker fetched on its
// first chunk (see parallel.ForChunksW). sched, if not nil, is w's
// schedule for a and b; otherwise each call builds one. It returns the
// number of rows whose chunk it finished.
func replay(w speck.Window, a, b *csr.Matrix, bounds []int, opts Options, sched *speck.Schedule) (int64, error) {
	nt := opts.threads()
	var werr firstErr
	var rows atomic.Int64
	scratch := make([]*accum.Scratch, parallel.Workers(nt))
	parallel.ForChunksW(nt, bounds, func(wk, lo, hi int) {
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
		if err := speck.NumericRows(a, b, &w, scratch[wk], sched, lo, hi); err != nil {
			werr.set(fmt.Errorf("cpuspgemm: numeric: %w", err))
			return
		}
		rows.Add(int64(hi - lo))
	})
	for _, s := range scratch {
		if s != nil {
			accum.PutScratch(s)
		}
	}
	return rows.Load(), werr.get()
}
