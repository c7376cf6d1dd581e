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
	"slices"
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
	// wall duration (see ChunkLog for the scheduled-speedup replay built
	// from it).
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
func (o Options) countProduct(flops int64, rows int, nnz int64) {
	if m := o.Metrics; m.Enabled() {
		m.Add(metrics.CounterFlops, flops)
		m.Add(metrics.CounterRows, int64(rows))
		m.Add(metrics.CounterNnzC, nnz)
	}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// Sequential computes C = A·B with the straightforward sequential
// Gustavson row-row algorithm (Algorithm 1 of the paper), using a plain
// map accumulator. It is the correctness reference for every other
// engine in this repository, bit for bit: like every kernel it assigns a
// column's first product and adds the rest in arrival order (0 + -0.0
// would turn a lone -0.0 product into +0.0). Each row's columns are
// sorted and appended straight into C.
func Sequential(a, b *csr.Matrix) (*csr.Matrix, error) {
	if err := checkOperands(a, b); err != nil {
		return nil, err
	}
	c := &csr.Matrix{Rows: a.Rows, Cols: b.Cols, RowOffsets: make([]int64, a.Rows+1), ColIDs: []int32{}, Data: []float64{}}
	row := map[int32]float64{}
	var keys []int32
	for i := 0; i < a.Rows; i++ {
		ac, av := a.Row(i)
		for p := range ac {
			k := ac[p]
			bc, bv := b.Row(int(k))
			for q, col := range bc {
				if v, seen := row[col]; seen {
					row[col] = v + float64(av[p]*bv[q])
				} else {
					row[col] = av[p] * bv[q]
				}
			}
		}
		keys = keys[:0]
		for col := range row {
			keys = append(keys, col)
		}
		slices.Sort(keys)
		for _, col := range keys {
			c.ColIDs, c.Data = append(c.ColIDs, col), append(c.Data, row[col])
		}
		clear(row)
		c.RowOffsets[i+1] = int64(len(c.ColIDs))
	}
	return c, nil
}

// Multiply computes C = A·B with the multi-core algorithm on the
// work-stealing runtime: chunk boundaries are auto-tuned from the
// per-row flops (so a skewed row cannot strand one worker behind a
// static range), its one pass per row, at every width of B, claims
// chunks dynamically, and each worker keeps one kit of pooled
// accumulators.
func Multiply(a, b *csr.Matrix, opts Options) (*csr.Matrix, error) {
	if err := checkOperands(a, b); err != nil {
		return nil, err
	}
	return multiplyAdaptive(a, b, opts, nil)
}

// checkOperands is every product's O(1) entry check: the inner
// dimensions match, and each operand's arrays are as long as its shape
// says, so no row is read past an array's end.
func checkOperands(a, b *csr.Matrix) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("cpuspgemm: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if err := a.CheckLengths(); err != nil {
		return fmt.Errorf("cpuspgemm: A: %w", err)
	}
	if err := b.CheckLengths(); err != nil {
		return fmt.Errorf("cpuspgemm: B: %w", err)
	}
	return nil
}
