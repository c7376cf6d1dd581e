package cpuspgemm

import (
	"sync"

	"repro/internal/accum"
	"repro/internal/csr"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/speck"
)

// MultiplyEstimated computes C = A·B with the estimation-based
// symbolic elision (Ocean-style) and adaptive per-row accumulator
// selection (ApSpGEMM-style), unconditionally — the mode dispatch in
// Multiply/MultiplyPlanned is bypassed so tests and benchmarks can
// force the path. The pipeline replaces the exact symbolic phase with:
//
//  1. the sampled row-nnz estimator (exact symbolic counting only for
//     rows the confidence gate rejects),
//  2. one adaptive numeric pass into over-allocated per-row buffers,
//     each row's accumulator picked from its estimate (list for tiny
//     rows, bitmap-dense — whose flush is sorted for free — for rows
//     dense enough to amortize its bit scan, hash pre-sized from the
//     estimate otherwise); estimated rows that outgrow their buffer
//     spill to a side store,
//  3. a parallel compaction copying the exact rows into a tight CSR.
//
// Every accumulator class sums same-column products in first-touch
// arrival order and flushes sorted, so the product is bit-for-bit
// identical to the exact Hash/Dense paths and to the warm Numeric
// replay. The returned SymbolicResult is marked Estimated; an exact
// plan for the same pattern upgrades it in the plan caches.
func MultiplyEstimated(a, b *csr.Matrix, opts Options) (*csr.Matrix, *SymbolicResult, speck.EstStats, error) {
	if a.Cols != b.Rows {
		return nil, nil, speck.EstStats{}, errDims(a, b)
	}
	return estimatedMultiply(a, b, opts, nil)
}

func estimatedMultiply(a, b *csr.Matrix, opts Options, rowFlops []int64) (*csr.Matrix, *SymbolicResult, speck.EstStats, error) {
	nt := opts.threads()
	cfg := opts.Estimator.WithDefaults()
	var stats speck.EstStats

	stopAnalysis := opts.Metrics.StartWall("cpu", "row analysis")
	if rowFlops == nil {
		rowFlops = csr.RowFlops(a, b)
	}
	ub := make([]int64, len(rowFlops))
	for i, f := range rowFlops {
		ub[i] = f / 2
	}
	bounds := parallel.CostBounds(rowFlops, nt)
	stopAnalysis()

	var poolGets0, poolNews0 int64
	if opts.Metrics.Enabled() {
		poolGets0, poolNews0 = accum.PoolCounters()
	}

	stopEstimate := opts.Metrics.StartWall("cpu", "estimate")
	est := speck.EstimateRows(a, b, ub, cfg)
	stopEstimate()
	stats.EstimatedRows, stats.FallbackRows = est.EstimatedRows, est.FallbackRows

	var werr firstErr
	// One accumulator set per worker, reused across every chunk the
	// worker claims in both the fallback and numeric loops — per-chunk
	// pool round-trips were part of what kept the dynamic scheduler
	// from beating the static split (see parallel.ForChunksW).
	kits := make([]speck.Kit, parallel.Workers(nt))
	defer releaseKits(kits)

	// Exact symbolic counting, but only for the rows the confidence
	// gate rejected — the elision's whole point is that this loop
	// usually touches almost nothing.
	if est.FallbackRows > 0 {
		stopFallback := opts.Metrics.StartWall("cpu", "symbolic (fallback)")
		parallel.ForChunksW(nt, bounds, func(w, lo, hi int) {
			if werr.get() != nil {
				return
			}
			if opts.canceled() {
				werr.set(ErrCanceled)
				return
			}
			for i := lo; i < hi; i++ {
				if !est.Fallback[i] {
					continue
				}
				acc := kits[w].Get(speck.KindHash, ub[i], b.Cols)
				ac, _ := a.Row(i)
				for _, k := range ac {
					bc, _ := b.Row(int(k))
					for _, col := range bc {
						acc.AddSymbolic(col)
					}
				}
				est.Caps[i] = int64(acc.FlushSymbolic())
			}
		})
		stopFallback()
		if err := werr.get(); err != nil {
			return nil, nil, stats, err
		}
	}

	// Over-allocated layout: each row gets its estimated (or exactly
	// counted) capacity; the numeric pass writes rows in place at these
	// speculative offsets and compaction squeezes the slack out.
	capOffsets := make([]int64, a.Rows+1)
	parallel.PrefixSum(nt, capOffsets, est.Caps)
	total := capOffsets[a.Rows]
	bigCols := make([]int32, total)
	bigVals := make([]float64, total)
	rowNnz := make([]int64, a.Rows)

	// Spill store for estimated rows that outgrow their buffer. Rare by
	// construction (the safety factor plus the upper-bound clamp), so a
	// mutex-guarded map beats complicating the hot path.
	var ovMu sync.Mutex
	ovCols := map[int][]int32{}
	ovVals := map[int][]float64{}
	var overflow int64

	// Per-worker spill scratch, reused across chunks like the kits.
	spillC := make([][]int32, len(kits))
	spillV := make([][]float64, len(kits))

	width := int64(b.Cols)
	stopNumeric := opts.Metrics.StartWall("cpu", "numeric (estimated)")
	parallel.ForChunksW(nt, bounds, func(w, lo, hi int) {
		if werr.get() != nil {
			return
		}
		if opts.canceled() {
			werr.set(ErrCanceled)
			return
		}
		kit := &kits[w]
		for i := lo; i < hi; i++ {
			if ub[i] == 0 {
				continue
			}
			estN := est.Est[i]
			if est.Fallback[i] {
				estN = est.Caps[i] // exact count: the best class signal there is
			}
			var acc accum.Accumulator
			switch speck.PickClass(rowFlops[i], estN, width) {
			case speck.ListClass:
				acc = kit.Get(speck.KindList, estN, b.Cols)
			case speck.DenseClass:
				acc = kit.Get(speck.KindDense, estN, b.Cols)
			default:
				acc = kit.Get(speck.KindHash, est.Caps[i], b.Cols)
			}
			ac, av := a.Row(i)
			for p := range ac {
				bc, bv := b.Row(int(ac[p]))
				for q := range bc {
					acc.Add(bc[q], av[p]*bv[q])
				}
			}
			n := int64(acc.Len())
			rowNnz[i] = n
			if n <= est.Caps[i] {
				off := capOffsets[i]
				acc.Flush(bigCols[off:off:off+n], bigVals[off:off:off+n])
			} else {
				spillC[w], spillV[w] = acc.Flush(spillC[w][:0], spillV[w][:0])
				cc := append([]int32(nil), spillC[w]...)
				vv := append([]float64(nil), spillV[w]...)
				ovMu.Lock()
				ovCols[i] = cc
				ovVals[i] = vv
				overflow++
				ovMu.Unlock()
			}
		}
	})
	stopNumeric()
	if err := werr.get(); err != nil {
		return nil, nil, stats, err
	}
	stats.OverflowRows = overflow

	// Compaction: exact offsets from the observed row sizes, then a
	// parallel copy from the speculative layout (or the spill store —
	// read-only by now, so no lock) into the tight CSR.
	stopCompact := opts.Metrics.StartWall("cpu", "compact")
	c := &csr.Matrix{Rows: a.Rows, Cols: b.Cols, RowOffsets: make([]int64, a.Rows+1)}
	parallel.PrefixSum(nt, c.RowOffsets, rowNnz)
	nnz := c.RowOffsets[a.Rows]
	c.ColIDs = make([]int32, nnz)
	c.Data = make([]float64, nnz)
	parallel.ForChunks(nt, bounds, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			n := rowNnz[i]
			if n == 0 {
				continue
			}
			dst := c.RowOffsets[i]
			if oc, ok := ovCols[i]; ok {
				copy(c.ColIDs[dst:dst+n], oc)
				copy(c.Data[dst:dst+n], ovVals[i])
			} else {
				src := capOffsets[i]
				copy(c.ColIDs[dst:dst+n], bigCols[src:src+n])
				copy(c.Data[dst:dst+n], bigVals[src:src+n])
			}
		}
	})
	stopCompact()

	if m := opts.Metrics; m.Enabled() {
		gets, news := accum.PoolCounters()
		m.Add(metrics.CounterPoolGets, gets-poolGets0)
		m.Add(metrics.CounterPoolNews, news-poolNews0)
		var flops int64
		for _, f := range rowFlops {
			flops += f
		}
		m.Add(metrics.CounterFlops, flops)
		m.Add(metrics.CounterRows, int64(a.Rows))
		m.Add(metrics.CounterNnzC, nnz)
		m.Add(metrics.CounterSymbolicEstimatedRows, stats.EstimatedRows)
		m.Add(metrics.CounterSymbolicFallbackRows, stats.FallbackRows)
		m.Add(metrics.CounterSymbolicOverflowRows, stats.OverflowRows)
	}
	sym := &SymbolicResult{
		Rows:       a.Rows,
		ACols:      a.Cols,
		Cols:       b.Cols,
		RowFlops:   rowFlops,
		RowOffsets: c.RowOffsets,
		ColIDs:     c.ColIDs,
		Estimated:  true,
	}
	return c, sym, stats, nil
}
