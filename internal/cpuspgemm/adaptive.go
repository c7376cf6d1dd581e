package cpuspgemm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accum"
	"repro/internal/csr"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/speck"
)

// The exact-path adaptive kernel layer. The seed's exact pipeline ran
// every row of a chunk through one accumulator sized to the chunk's
// worst-case row — a hub row inflated its whole chunk's hash table,
// and uniformly tiny rows still paid full hash probes. This file
// instead drives the per-row-class row kernel of internal/speck
// (rowkernel.go: the same binning and symbolic pass speck's per-chunk
// products and the whole-matrix row analysis use) over dynamically
// claimed chunks, one accumulator Kit per worker, and re-bins each row
// from its exact size for the numeric phase. Every class accumulates
// same-column products in first-touch arrival order and flushes sorted,
// so the product is bit-for-bit the one the seed path produced.

// ClassStat aggregates one kernel class's share of a multiply.
type ClassStat struct {
	Rows, Flops, Nnz      int64
	SymbolicNs, NumericNs int64
}

// ClassStats is the per-class breakdown of an adaptive multiply,
// accumulated atomically across workers when Options.ClassStats is
// set. The per-phase nanoseconds are measured per row (two clock reads
// per row per phase), so attach it only to instrumented runs — the
// benchmark uses a dedicated pass, never the timed reps.
type ClassStats struct {
	Classes [speck.NumKinds]ClassStat
}

// Names returns the class names in Classes order.
func (s *ClassStats) Names() [speck.NumKinds]string { return speck.KindNames }

func (s *ClassStats) add(k speck.Kind, rows, flops, nnz, symNs, numNs int64) {
	c := &s.Classes[k]
	atomic.AddInt64(&c.Rows, rows)
	atomic.AddInt64(&c.Flops, flops)
	atomic.AddInt64(&c.Nnz, nnz)
	atomic.AddInt64(&c.SymbolicNs, symNs)
	atomic.AddInt64(&c.NumericNs, numNs)
}

// ChunkSpan is one dynamically claimed chunk's measured execution.
type ChunkSpan struct {
	Lo, Hi  int
	Seconds float64
}

// ChunkLog records per-chunk wall durations of the two exact phases
// when attached via Options.ChunkLog. The benchmark replays these
// measured durations through parallel.ListSchedule to report the
// scheduled speedup at thread counts the machine cannot physically
// host (see BENCH_cpu.json's thread_scaling).
type ChunkLog struct {
	mu       sync.Mutex
	Symbolic []ChunkSpan
	Numeric  []ChunkSpan
}

func (l *ChunkLog) record(symbolic bool, lo, hi int, sec float64) {
	l.mu.Lock()
	if symbolic {
		l.Symbolic = append(l.Symbolic, ChunkSpan{lo, hi, sec})
	} else {
		l.Numeric = append(l.Numeric, ChunkSpan{lo, hi, sec})
	}
	l.mu.Unlock()
}

// forChunksLogged is ForChunksW with optional per-chunk wall timing
// recorded into log (symbolic selects which phase list receives it).
func forChunksLogged(nt int, bounds []int, log *ChunkLog, symbolic bool, fn func(w, lo, hi int)) {
	body := fn
	if log != nil {
		body = func(w, lo, hi int) {
			t0 := time.Now()
			fn(w, lo, hi)
			log.record(symbolic, lo, hi, time.Since(t0).Seconds())
		}
	}
	parallel.ForChunksW(nt, bounds, body)
}

// multiplyAdaptive is the exact two-phase pipeline with per-row
// adaptive kernel selection — the Hash method's implementation behind
// Multiply. rowFlops, when non-nil, is the precomputed row analysis.
func multiplyAdaptive(a, b *csr.Matrix, opts Options, rowFlops []int64) (*csr.Matrix, error) {
	nt := opts.threads()
	chunkNT := nt
	if opts.ChunkWorkers > 0 {
		chunkNT = opts.ChunkWorkers
	}

	stopAnalysis := opts.Metrics.StartWall("cpu", "row analysis")
	if rowFlops == nil {
		rowFlops = csr.RowFlops(a, b)
	}
	var totalFlops int64
	for _, f := range rowFlops {
		totalFlops += f
	}
	bounds := parallel.CostBounds(rowFlops, chunkNT)

	// Bin every row to its symbolic kernel and segment-compress B when
	// the multiply can amortize the O(nnz(B)) pass.
	pass := speck.NewSymbolicPass(a, b, rowFlops)
	width := int64(b.Cols)
	stopAnalysis()

	var poolGets0, poolNews0 int64
	if opts.Metrics.Enabled() {
		poolGets0, poolNews0 = accum.PoolCounters()
	}

	c := &csr.Matrix{Rows: a.Rows, Cols: b.Cols, RowOffsets: make([]int64, a.Rows+1)}
	rowNnz := make([]int64, a.Rows)
	var werr firstErr
	kits := make([]speck.Kit, parallel.Workers(nt))

	// Symbolic phase: count distinct columns per output row, each row
	// on the kernel its class picks, consuming compressed B rows where
	// the kernel supports the segment OR.
	stopSymbolic := opts.Metrics.StartWall("cpu", "symbolic")
	forChunksLogged(nt, bounds, opts.ChunkLog, true, func(w, lo, hi int) {
		if werr.get() != nil {
			return
		}
		if opts.canceled() {
			werr.set(ErrCanceled)
			return
		}
		kit := &kits[w]
		t0 := time.Now()
		var classNs [speck.NumKinds]int64
		var classRows, classFlops [speck.NumKinds]int64
		for i := lo; i < hi; i++ {
			if rowFlops[i] == 0 {
				continue
			}
			rowNnz[i] = int64(pass.Count(kit, i))
			if opts.ClassStats != nil {
				t1 := time.Now()
				kind := pass.Kind(i)
				classNs[kind] += t1.Sub(t0).Nanoseconds()
				t0 = t1
				classRows[kind]++
				classFlops[kind] += rowFlops[i]
			}
		}
		if opts.ClassStats != nil {
			for k := speck.Kind(0); k < speck.NumKinds; k++ {
				if classRows[k] != 0 || classNs[k] != 0 {
					opts.ClassStats.add(k, classRows[k], classFlops[k], 0, classNs[k], 0)
				}
			}
		}
	})
	stopSymbolic()
	if err := werr.get(); err != nil {
		releaseKits(kits)
		return nil, err
	}

	// Prefix sum gives the final row offsets; allocation is now exact.
	parallel.PrefixSum(nt, c.RowOffsets, rowNnz)
	nnz := c.RowOffsets[a.Rows]
	c.ColIDs = make([]int32, nnz)
	c.Data = make([]float64, nnz)

	// Numeric phase: recompute with values, each row re-binned from its
	// now-exact output size and its accumulator sized to exactly that.
	stopNumeric := opts.Metrics.StartWall("cpu", "numeric")
	forChunksLogged(nt, bounds, opts.ChunkLog, false, func(w, lo, hi int) {
		if werr.get() != nil {
			return
		}
		if opts.canceled() {
			werr.set(ErrCanceled)
			return
		}
		kit := &kits[w]
		t0 := time.Now()
		var classNs [speck.NumKinds]int64
		var classRows, classNnz [speck.NumKinds]int64
		for i := lo; i < hi; i++ {
			if rowFlops[i] == 0 {
				continue
			}
			kind := speck.PickKind(rowFlops[i], rowNnz[i], width, pass.SegRatio, true)
			acc := kit.Get(kind, rowNnz[i], b.Cols)
			ac, av := a.Row(i)
			for p := range ac {
				bc, bv := b.Row(int(ac[p]))
				for q := range bc {
					acc.Add(bc[q], av[p]*bv[q])
				}
			}
			if int64(acc.Len()) != rowNnz[i] {
				// Non-finite or NaN inputs can legitimately collapse
				// accumulator slots between phases, so a mismatch is a
				// data-dependent failure, not an invariant worth dying on.
				werr.set(fmt.Errorf("cpuspgemm: row %d numeric nnz %d != symbolic %d", i, acc.Len(), rowNnz[i]))
				return
			}
			off, end := c.RowOffsets[i], c.RowOffsets[i+1]
			acc.Flush(c.ColIDs[off:off:end], c.Data[off:off:end])
			if opts.ClassStats != nil {
				t1 := time.Now()
				classNs[kind] += t1.Sub(t0).Nanoseconds()
				t0 = t1
				classRows[kind]++
				classNnz[kind] += rowNnz[i]
			}
		}
		if opts.ClassStats != nil {
			for k := speck.Kind(0); k < speck.NumKinds; k++ {
				if classRows[k] != 0 || classNs[k] != 0 {
					opts.ClassStats.add(k, 0, 0, classNnz[k], 0, classNs[k])
				}
			}
		}
	})
	stopNumeric()
	releaseKits(kits)
	if err := werr.get(); err != nil {
		return nil, err
	}
	if m := opts.Metrics; m.Enabled() {
		gets, news := accum.PoolCounters()
		m.Add(metrics.CounterPoolGets, gets-poolGets0)
		m.Add(metrics.CounterPoolNews, news-poolNews0)
		m.Add(metrics.CounterFlops, totalFlops)
		m.Add(metrics.CounterRows, int64(a.Rows))
		m.Add(metrics.CounterNnzC, nnz)
	}
	return c, nil
}

func releaseKits(kits []speck.Kit) {
	for i := range kits {
		kits[i].Release()
	}
}
