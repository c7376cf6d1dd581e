// Package cpuspgemm implements multi-core CPU SpGEMM.
//
// The paper's CPU baseline (and the CPU half of its hybrid engine) is
// the hash-map implementation of Nagasaka et al. [27]: a two-phase
// (symbolic, then numeric) row-parallel Gustavson SpGEMM with
// per-thread accumulators and flops-balanced row distribution. This
// package provides that implementation — one kernel, which picks each
// row's accumulator from its work class (internal/speck's row kernel) —
// and Sequential, a plain Gustavson loop that is the bit-for-bit
// reference the test suites of every package compare against.
//
// Scheduling: Multiply runs on the work-stealing runtime of
// internal/parallel — per-row flops are computed once, chunk
// boundaries are cut from them, and workers claim chunks dynamically
// with pooled accumulators (internal/accum).
package cpuspgemm

import (
	"errors"
	"fmt"
	"sync"

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

// Options configures a multiplication.
type Options struct {
	// Threads is the number of worker goroutines; 0 means GOMAXPROCS.
	Threads int
	// Metrics is an optional observability sink: the run records
	// wall-clock spans for its symbolic and numeric phases plus flop,
	// row and accumulator-pool counters. Nil (the default) keeps the
	// hot path untouched beyond a pointer comparison.
	Metrics *metrics.Collector
	// Cancel, when non-nil, is polled between row chunks; once it
	// returns true the multiplication stops and returns ErrCanceled.
	// It must be safe to call from multiple goroutines.
	Cancel func() bool
	// ClassStats, when non-nil, accumulates the row kernel's
	// per-kernel-class row/flop/nnz shares and per-phase times. The
	// per-row clock reads cost a few percent, so attach it only to
	// instrumented runs, never timed repetitions.
	ClassStats *ClassStats
	// ChunkLog, when non-nil, records each dynamically claimed chunk's
	// wall duration per phase (see ChunkLog for the scheduled-speedup
	// replay built from it).
	ChunkLog *ChunkLog
	// ChunkWorkers, when positive, overrides the worker count used to
	// cut chunk boundaries without changing how many goroutines run:
	// Threads=1 with ChunkWorkers=N measures the true per-chunk
	// durations of an N-worker chunking serially.
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
// static range), both phases claim chunks dynamically, and each worker
// keeps one kit of pooled accumulators for the whole call.
func Multiply(a, b *csr.Matrix, opts Options) (*csr.Matrix, error) {
	if a.Cols != b.Rows {
		return nil, errDims(a, b)
	}
	return multiplyAdaptive(a, b, opts, nil)
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
