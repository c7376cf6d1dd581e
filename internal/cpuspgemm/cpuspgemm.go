// Package cpuspgemm implements multi-core CPU SpGEMM.
//
// The paper's CPU baseline (and the CPU half of its hybrid engine) is
// the hash-map implementation of Nagasaka et al. [27]: a two-phase
// (symbolic, then numeric) row-parallel Gustavson SpGEMM with
// per-thread hash accumulators and flops-balanced row distribution.
// This package provides that implementation, a dense-accumulator
// variant in the style of Patwary et al. [31], and a simple sequential
// Gustavson reference used as ground truth by the test suites of every
// other package.
//
// Scheduling: Multiply runs on the work-stealing runtime of
// internal/parallel — per-row flops are computed once, chunk
// boundaries are cut from them, and workers claim chunks dynamically
// with pooled accumulators (internal/accum). The seed's static
// contiguous-range scheduler is kept as MultiplyStatic, the ablation
// baseline the benchmarks compare against.
package cpuspgemm

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/accum"
	"repro/internal/csr"
	"repro/internal/metrics"
	"repro/internal/parallel"
)

// ErrCanceled is returned when Options.Cancel stops a multiplication
// before it completes. Callers with deadlines (the spgemm facade's
// wall-clock deadline for CPU engines) wrap it with their own context.
var ErrCanceled = errors.New("cpuspgemm: canceled")

// firstErr collects the first failure reported by any worker. The
// parallel phases run library code on caller data, so data-dependent
// failures are returned, never panicked; panics remain only for
// programmer errors (e.g. accumulator misuse inside internal/accum).
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (e *firstErr) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *firstErr) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Method selects the accumulation strategy.
type Method int

const (
	// Hash uses per-thread hash accumulators (Nagasaka et al. [27]).
	Hash Method = iota
	// Dense uses per-thread dense accumulators (Patwary et al. [31]).
	Dense
	// ESC uses per-thread expand-sort-compress accumulators (Bell et
	// al. [7,9]), the classic baseline of the paper's related work.
	ESC
)

func (m Method) String() string {
	switch m {
	case Hash:
		return "hash"
	case Dense:
		return "dense"
	case ESC:
		return "esc"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures a multiplication.
type Options struct {
	// Threads is the number of worker goroutines; 0 means GOMAXPROCS.
	Threads int
	// Method selects the accumulator; the default is Hash, matching the
	// implementation the paper uses from Nagasaka et al.
	Method Method
	// Metrics is an optional observability sink: the run records
	// wall-clock spans for its symbolic and numeric phases plus flop,
	// row and accumulator-pool counters. Nil (the default) keeps the
	// hot path untouched beyond a pointer comparison.
	Metrics *metrics.Collector
	// Cancel, when non-nil, is polled between row chunks; once it
	// returns true the multiplication stops and returns ErrCanceled.
	// It must be safe to call from multiple goroutines.
	Cancel func() bool
	// ClassStats, when non-nil, accumulates the adaptive path's
	// per-kernel-class row/flop/nnz shares and per-phase times. The
	// per-row clock reads cost a few percent, so attach it only to
	// instrumented runs, never timed repetitions.
	ClassStats *ClassStats
	// ChunkLog, when non-nil, records each dynamically claimed chunk's
	// wall duration per phase (see ChunkLog for the scheduled-
	// speedup replay the CPU benchmark builds from it).
	ChunkLog *ChunkLog
	// ChunkWorkers, when positive, overrides the worker count used to
	// cut chunk boundaries without changing how many goroutines run.
	// The CPU benchmark sets Threads=1 with ChunkWorkers=N to measure
	// the true per-chunk durations of an N-worker chunking serially.
	ChunkWorkers int
}

// canceled polls the cancellation hook.
func (o Options) canceled() bool { return o.Cancel != nil && o.Cancel() }

func (o Options) threads() int {
	return parallel.Workers(o.Threads)
}

// countProduct adds a finished product's flop, row and output counters.
func (o Options) countProduct(rowFlops []int64, nnz int64) {
	if m := o.Metrics; m.Enabled() {
		var flops int64
		for _, f := range rowFlops {
			flops += f
		}
		m.Add(metrics.CounterFlops, flops)
		m.Add(metrics.CounterRows, int64(len(rowFlops)))
		m.Add(metrics.CounterNnzC, nnz)
	}
}

// Sequential computes C = A·B with the straightforward sequential
// Gustavson row-row algorithm (Algorithm 1 of the paper), using a plain
// map accumulator. It is the correctness reference for every other
// engine in this repository, bit for bit: like every kernel it assigns a
// column's first product and adds the rest in arrival order (0 + -0.0
// would turn a lone -0.0 product into +0.0).
func Sequential(a, b *csr.Matrix) (*csr.Matrix, error) {
	if a.Cols != b.Rows {
		return nil, errDims(a, b)
	}
	entries := make([]csr.Entry, 0)
	row := map[int32]float64{}
	for i := 0; i < a.Rows; i++ {
		ac, av := a.Row(i)
		for p := range ac {
			k := ac[p]
			bc, bv := b.Row(int(k))
			for q, col := range bc {
				if v, seen := row[col]; seen {
					row[col] = v + av[p]*bv[q]
				} else {
					row[col] = av[p] * bv[q]
				}
			}
		}
		for c, v := range row {
			entries = append(entries, csr.Entry{Row: int32(i), Col: c, Val: v})
			delete(row, c)
		}
	}
	return csr.FromEntries(a.Rows, b.Cols, entries)
}

// Multiply computes C = A·B with the two-phase multi-core algorithm on
// the work-stealing runtime: chunk boundaries are auto-tuned from the
// per-row flops (so a skewed row cannot strand one worker behind a
// static range), both phases claim chunks dynamically, and the
// accumulators come from the shared pool instead of being rebuilt per
// worker per phase.
func Multiply(a, b *csr.Matrix, opts Options) (*csr.Matrix, error) {
	if a.Cols != b.Rows {
		return nil, errDims(a, b)
	}
	return multiplyExact(a, b, opts, nil)
}

// multiplyExact is the two-phase pipeline behind Multiply. rowFlops,
// when non-nil, is the precomputed row analysis (MultiplyPlanned keeps
// it for the plan). The Hash method runs the adaptive per-row kernel
// pipeline (adaptive.go); Dense and ESC keep the uniform
// single-accumulator loop their methods pin by definition.
func multiplyExact(a, b *csr.Matrix, opts Options, rowFlops []int64) (*csr.Matrix, error) {
	if opts.Method == Hash {
		return multiplyAdaptive(a, b, opts, rowFlops)
	}
	nt := opts.threads()

	// Row analysis, computed once for both phases: rowFlops[i]/2 is
	// also the worst-case nnz of output row i (each multiply-add pair
	// contributes one candidate column), so it doubles as the
	// accumulator sizing bound — the seed's separate maxUpperBound
	// rescan per phase is gone.
	stopAnalysis := opts.Metrics.StartWall("cpu", "row analysis")
	if rowFlops == nil {
		rowFlops = csr.RowFlops(a, b)
	}
	bounds := parallel.CostBounds(rowFlops, nt)
	stopAnalysis()

	var poolGets0, poolNews0 int64
	if opts.Metrics.Enabled() {
		poolGets0, poolNews0 = accum.PoolCounters()
	}

	c := &csr.Matrix{Rows: a.Rows, Cols: b.Cols, RowOffsets: make([]int64, a.Rows+1)}
	rowNnz := make([]int64, a.Rows)
	var werr firstErr

	// Symbolic phase: count distinct columns per output row.
	stopSymbolic := opts.Metrics.StartWall("cpu", "symbolic")
	parallel.ForChunks(nt, bounds, func(lo, hi int) {
		if werr.get() != nil {
			return
		}
		if opts.canceled() {
			werr.set(ErrCanceled)
			return
		}
		acc := getAccumulator(opts.Method, b.Cols, chunkBound(rowFlops, lo, hi))
		defer accum.Put(acc)
		for i := lo; i < hi; i++ {
			ac, _ := a.Row(i)
			for _, k := range ac {
				bc, _ := b.Row(int(k))
				for _, col := range bc {
					acc.AddSymbolic(col)
				}
			}
			rowNnz[i] = int64(acc.FlushSymbolic())
		}
	})
	stopSymbolic()
	if err := werr.get(); err != nil {
		return nil, err
	}

	// Prefix sum gives the final row offsets; allocation is now exact.
	parallel.PrefixSum(nt, c.RowOffsets, rowNnz)
	nnz := c.RowOffsets[a.Rows]
	c.ColIDs = make([]int32, nnz)
	c.Data = make([]float64, nnz)

	// Numeric phase: recompute with values, writing into the allocated
	// arrays at each row's offset.
	stopNumeric := opts.Metrics.StartWall("cpu", "numeric")
	parallel.ForChunks(nt, bounds, func(lo, hi int) {
		if werr.get() != nil {
			return
		}
		if opts.canceled() {
			werr.set(ErrCanceled)
			return
		}
		acc := getAccumulator(opts.Method, b.Cols, chunkBound(rowFlops, lo, hi))
		defer accum.Put(acc)
		for i := lo; i < hi; i++ {
			ac, av := a.Row(i)
			for p := range ac {
				bc, bv := b.Row(int(ac[p]))
				for q := range bc {
					acc.Add(bc[q], av[p]*bv[q])
				}
			}
			if int64(acc.Len()) != rowNnz[i] {
				werr.set(fmt.Errorf("cpuspgemm: row %d numeric nnz %d != symbolic %d", i, acc.Len(), rowNnz[i]))
				return
			}
			// Flushing into full-capacity sub-slices writes the row
			// in place at its pre-computed offset.
			off, end := c.RowOffsets[i], c.RowOffsets[i]+rowNnz[i]
			acc.Flush(c.ColIDs[off:off:end], c.Data[off:off:end])
		}
	})
	stopNumeric()
	if err := werr.get(); err != nil {
		return nil, err
	}
	if m := opts.Metrics; m.Enabled() {
		gets, news := accum.PoolCounters()
		m.Add(metrics.CounterPoolGets, gets-poolGets0)
		m.Add(metrics.CounterPoolNews, news-poolNews0)
	}
	opts.countProduct(rowFlops, nnz)
	return c, nil
}

// MultiplyStatic computes C = A·B with the seed's scheduling strategy,
// kept as the ablation baseline for the work-stealing runtime: one
// static flops-balanced contiguous range per worker (BalanceRows) and
// a fresh accumulator per worker per phase. cmd/spgemm-bench -exp=cpu
// records Multiply's speedup over it in BENCH_cpu.json.
func MultiplyStatic(a, b *csr.Matrix, opts Options) (*csr.Matrix, error) {
	if a.Cols != b.Rows {
		return nil, errDims(a, b)
	}
	nt := opts.threads()

	rowFlops := csr.RowFlops(a, b)
	bounds := BalanceRows(rowFlops, nt)

	c := &csr.Matrix{Rows: a.Rows, Cols: b.Cols, RowOffsets: make([]int64, a.Rows+1)}
	rowNnz := make([]int64, a.Rows)
	var werr firstErr

	parallelRanges(bounds, func(lo, hi int) {
		if opts.canceled() {
			werr.set(ErrCanceled)
			return
		}
		acc := newAccumulator(opts.Method, b.Cols, maxUpperBound(a, b, lo, hi))
		for i := lo; i < hi; i++ {
			ac, _ := a.Row(i)
			for _, k := range ac {
				bc, _ := b.Row(int(k))
				for _, col := range bc {
					acc.AddSymbolic(col)
				}
			}
			rowNnz[i] = int64(acc.FlushSymbolic())
		}
	})
	if err := werr.get(); err != nil {
		return nil, err
	}

	for i := 0; i < a.Rows; i++ {
		c.RowOffsets[i+1] = c.RowOffsets[i] + rowNnz[i]
	}
	nnz := c.RowOffsets[a.Rows]
	c.ColIDs = make([]int32, nnz)
	c.Data = make([]float64, nnz)

	parallelRanges(bounds, func(lo, hi int) {
		if opts.canceled() {
			werr.set(ErrCanceled)
			return
		}
		acc := newAccumulator(opts.Method, b.Cols, maxUpperBound(a, b, lo, hi))
		for i := lo; i < hi; i++ {
			ac, av := a.Row(i)
			for p := range ac {
				bc, bv := b.Row(int(ac[p]))
				for q := range bc {
					acc.Add(bc[q], av[p]*bv[q])
				}
			}
			if int64(acc.Len()) != rowNnz[i] {
				werr.set(fmt.Errorf("cpuspgemm: row %d numeric nnz %d != symbolic %d", i, acc.Len(), rowNnz[i]))
				return
			}
			off, end := c.RowOffsets[i], c.RowOffsets[i]+rowNnz[i]
			acc.Flush(c.ColIDs[off:off:end], c.Data[off:off:end])
		}
	})
	if err := werr.get(); err != nil {
		return nil, err
	}
	return c, nil
}

// chunkBound returns the largest worst-case output-row size over rows
// [lo, hi), derived from the per-row flop counts (2 flops per
// candidate column).
func chunkBound(rowFlops []int64, lo, hi int) int64 {
	var mx int64
	for i := lo; i < hi; i++ {
		if rowFlops[i] > mx {
			mx = rowFlops[i]
		}
	}
	return mx / 2
}

// getAccumulator takes a pooled accumulator sized for the worst-case
// row of the chunk. Return it with accum.Put.
func getAccumulator(m Method, width int, bound int64) accum.Accumulator {
	switch m {
	case Dense:
		return accum.GetDense(width)
	case ESC:
		if bound < 16 {
			bound = 16
		}
		return accum.GetSort(int(bound))
	default:
		if bound < 16 {
			bound = 16
		}
		if bound > int64(width) {
			bound = int64(width)
		}
		return accum.GetHash(int(bound))
	}
}

// newAccumulator allocates a fresh, unpooled accumulator; the static
// baseline uses it so its allocation behavior stays the seed's.
func newAccumulator(m Method, width int, bound int64) accum.Accumulator {
	switch m {
	case Dense:
		return accum.NewDense(width)
	case ESC:
		if bound < 16 {
			bound = 16
		}
		return accum.NewSort(int(bound))
	default:
		if bound < 16 {
			bound = 16
		}
		if bound > int64(width) {
			bound = int64(width)
		}
		return accum.NewHash(int(bound))
	}
}

// maxUpperBound returns the largest worst-case output-row size over rows
// [lo, hi) of A·B, used to size the hash accumulator once per worker.
func maxUpperBound(a, b *csr.Matrix, lo, hi int) int64 {
	var mx int64
	for i := lo; i < hi; i++ {
		var n int64
		for p := a.RowOffsets[i]; p < a.RowOffsets[i+1]; p++ {
			n += b.RowNnz(int(a.ColIDs[p]))
		}
		if n > mx {
			mx = n
		}
	}
	return mx
}

// BalanceRows partitions rows into parts contiguous ranges with roughly
// equal total flops. It returns parts+1 boundaries with bounds[0]=0 and
// bounds[parts]=len(rowFlops). parts < 1 is treated as 1; an all-zero
// (or empty) flop array falls back to an even split by row count.
func BalanceRows(rowFlops []int64, parts int) []int {
	if parts < 1 {
		parts = 1
	}
	n := len(rowFlops)
	var total int64
	for _, f := range rowFlops {
		total += f
	}
	if total == 0 {
		// No flop information to balance on: split evenly by count so
		// no worker inherits everything (the seed put all rows in the
		// final part).
		return parallel.Blocks(n, parts)
	}
	bounds := make([]int, parts+1)
	bounds[parts] = n
	var acc int64
	next := 1
	for i := 0; i < n && next < parts; i++ {
		acc += rowFlops[i]
		// Place boundary next when we cross next/parts of the total.
		for next < parts && acc*int64(parts) >= total*int64(next) {
			bounds[next] = i + 1
			next++
		}
	}
	for ; next < parts; next++ {
		bounds[next] = n
	}
	return bounds
}

// errDims formats the standard dimension-mismatch error.
func errDims(a, b *csr.Matrix) error {
	return fmt.Errorf("cpuspgemm: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
}

// parallelRanges runs fn over each non-empty [bounds[w], bounds[w+1])
// range in its own goroutine and waits for all of them.
func parallelRanges(bounds []int, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w+1 < len(bounds); w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
