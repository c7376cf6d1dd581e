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

// The kernel layer: the row kernel of internal/speck (rowkernel.go,
// shared with speck's per-chunk products and the whole-matrix row
// analysis) driven over dynamically claimed chunks, one Kit per worker.
// At every panel width one pass computes each row's (column, value)
// pairs (Kit.ComputeRow, on the accumulator speck's one rule picks), and
// block rows four at a time on the replay's body (Kit.ComputeGroups); only
// a product holding a NaN then runs the replay a warm Numeric call runs
// (replay, in plan.go), for its payloads. Same-column products sum in
// first-touch arrival order, so the product is bit-for-bit Sequential's.

// ClassStat aggregates one kernel class's share of a multiply.
// NumericNs is always zero: the one pass books a row's time as
// SymbolicNs. It is kept only because the benchmark's frozen per-layer
// rows (bench/layers.go) still read it; it goes when those rows are
// rebuilt.
type ClassStat struct {
	Rows, Flops, Nnz      int64
	SymbolicNs, NumericNs int64
}

// ClassStats is the per-class breakdown of a multiply, accumulated
// atomically across workers when Options.ClassStats is set. The per-phase
// nanoseconds are measured per row (two clock reads per row per phase),
// so attach it only to instrumented runs — bench/ uses a dedicated pass,
// never the timed repetitions. A row's time is all SymbolicNs: the one
// pass books no numeric time.
type ClassStats struct {
	Classes [speck.NumKinds]ClassStat
}

// Names returns the class names in Classes order.
func (s *ClassStats) Names() [speck.NumKinds]string { return speck.KindNames }

// classParts is one chunk's shares, gathered locally.
type classParts [speck.NumKinds]ClassStat

// add books rows [lo, hi) of the one pass, the rows with flops each to
// its class, and the time since t0 to row lo's; it returns the time now.
func (p *classParts) add(pass *speck.SymbolicPass, lo, hi int, rowFlops, rowNnz []int64, t0 time.Time) time.Time {
	t1 := time.Now()
	p[pass.Kind(lo)].SymbolicNs += t1.Sub(t0).Nanoseconds()
	for i := lo; i < hi; i++ {
		if rowFlops[i] != 0 {
			c := &p[pass.Kind(i)]
			c.Rows++
			c.Flops += rowFlops[i]
			c.Nnz += rowNnz[i]
		}
	}
	return t1
}

// merge adds one chunk's locally gathered shares.
func (s *ClassStats) merge(part *classParts) {
	for k := range part {
		c, p := &s.Classes[k], &part[k]
		atomic.AddInt64(&c.Rows, p.Rows)
		atomic.AddInt64(&c.Flops, p.Flops)
		atomic.AddInt64(&c.Nnz, p.Nnz)
		atomic.AddInt64(&c.SymbolicNs, p.SymbolicNs)
	}
}

// ChunkSpan is one dynamically claimed chunk's measured execution.
type ChunkSpan struct {
	Lo, Hi  int
	Seconds float64
}

// ChunkLog records per-chunk wall durations of the cold pass, which
// computes structure and values at once, as Symbolic. Replayed through
// parallel.ListSchedule they give the scheduled speedup at thread counts
// the host lacks (TestAdaptiveChunkLogAndWorkers holds its floors).
type ChunkLog struct {
	mu       sync.Mutex
	Symbolic []ChunkSpan
}

// forChunksLogged is ForChunksW with optional per-chunk wall timing
// recorded into log.
func forChunksLogged(nt int, bounds []int, log *ChunkLog, fn func(w, lo, hi int)) {
	body := fn
	if log != nil {
		body = func(w, lo, hi int) {
			t0 := time.Now()
			fn(w, lo, hi)
			span := ChunkSpan{lo, hi, time.Since(t0).Seconds()}
			log.mu.Lock()
			log.Symbolic = append(log.Symbolic, span)
			log.mu.Unlock()
		}
	}
	parallel.ForChunksW(nt, bounds, body)
}

// colSpan holds the column ids and values of rows [lo, hi), in row
// order, where the pass staged them.
type colSpan struct {
	lo, hi int
	ids    []int32
	vals   []float64
}

// colStage is one worker's staged rows: ids and values in
// pooled fixed-size blocks, a span ending where a chunk ends or where
// the next row might not fit the current block's tail.
type colStage struct {
	tail    []int32   // the current block's free tail (length 0)
	vtail   []float64 // its value twin's
	spans   []colSpan
	blocks  []*[]int32
	vblocks []*[]float64
}

// stage returns an empty buffer with room for n entries: a block from
// pool, recorded in blocks, or a buffer of its own for a wider row.
func stage[T any](pool *sync.Pool, blocks *[]*[]T, n int) []T {
	if n > accum.ColBlockLen {
		return make([]T, 0, n)
	}
	p := pool.Get().(*[]T)
	*blocks = append(*blocks, p)
	return (*p)[:0]
}

// multiplyAdaptive is the cold pipeline behind Multiply and
// MultiplyPlanned: one pass, then the numeric replay only for a product
// holding a NaN. rowFlops, when non-nil, is the precomputed row analysis
// (MultiplyPlanned keeps it for the plan).
func multiplyAdaptive(a, b *csr.Matrix, opts Options, rowFlops []int64) (*csr.Matrix, error) {
	nt := opts.threads()
	chunkNT := nt
	if opts.ChunkWorkers > 0 {
		chunkNT = opts.ChunkWorkers
	}

	stopAnalysis := opts.Metrics.StartWall("cpu", "row analysis")
	if rowFlops == nil {
		rowFlops = csr.RowFlops(a, b, nt)
	}
	bounds := parallel.CostBounds(rowFlops, chunkNT)

	// ClassStats labels rows by work class, from B's segment compression
	// when the multiply amortizes it; the pass itself reads neither.
	var pass *speck.SymbolicPass
	if opts.ClassStats != nil {
		pass = speck.NewSymbolicPass(a, b, rowFlops)
	}
	stopAnalysis()

	var poolGets0, poolNews0 int64
	if opts.Metrics.Enabled() {
		poolGets0, poolNews0 = accum.PoolCounters()
	}

	c := &csr.Matrix{Rows: a.Rows, Cols: b.Cols, RowOffsets: make([]int64, a.Rows+1)}
	rowNnz := make([]int64, a.Rows)
	var werr firstErr
	kits := make([]speck.Kit, parallel.Workers(nt))
	stages := make([]colStage, len(kits))
	defer releaseKits(kits)

	// The one pass: each worker stages its rows' ascending column ids and
	// values; row sizes fall out of the append.
	stopSymbolic := opts.Metrics.StartWall("cpu", "symbolic")
	var nan atomic.Bool // a row emitted a NaN
	forChunksLogged(nt, bounds, opts.ChunkLog, func(w, lo, hi int) {
		if werr.get() != nil {
			return
		}
		if opts.canceled() {
			werr.set(ErrCanceled)
			return
		}
		kit, st := &kits[w], &stages[w]
		buf, vbuf, first := st.tail, st.vtail, lo
		t0 := time.Now()
		var part classParts
		for i := lo; i < hi; i++ {
			if rowFlops[i] == 0 {
				continue
			}
			// A row holds at most one id per product and per column; the
			// bitmap's flush writes whole words past them. A row that may
			// start a block group (speck.MayGroup) reserves room for a
			// group, whose rows each hold as many ids as it does.
			bound := int(min(rowFlops[i]/2, int64(b.Cols))) + accum.FlushSlack
			group := speck.MayGroup(a, i, hi)
			if group {
				bound *= speck.GroupRows
			}
			if cap(buf)-len(buf) < bound {
				st.spans = append(st.spans, colSpan{first, i, buf, vbuf})
				buf, first = stage[int32](accum.ColBlocks, &st.blocks, bound), i
				vbuf = stage[float64](accum.ValBlocks, &st.vblocks, bound)
			}
			if group {
				var end int
				var runNaN bool
				var err error
				if end, buf, vbuf, runNaN, err = kit.ComputeGroups(a, b, i, hi, rowNnz, buf, vbuf); err != nil {
					werr.set(fmt.Errorf("cpuspgemm: %w", err))
					return
				}
				if end > i {
					if runNaN {
						nan.Store(true)
					}
					if opts.ClassStats != nil {
						t0 = part.add(pass, i, end, rowFlops, rowNnz, t0)
					}
					i = end - 1
					continue
				}
			}
			n := len(buf)
			var rowNaN bool
			if buf, vbuf, rowNaN = kit.ComputeRow(a, b, i, rowFlops[i], buf, vbuf); rowNaN {
				nan.Store(true)
			}
			rowNnz[i] = int64(len(buf) - n)
			if opts.ClassStats != nil {
				t0 = part.add(pass, i, i+1, rowFlops, rowNnz, t0)
			}
		}
		st.spans = append(st.spans, colSpan{first, hi, buf, vbuf})
		st.tail, st.vtail = buf[len(buf):], vbuf[len(vbuf):]
		if opts.ClassStats != nil {
			opts.ClassStats.merge(&part)
		}
	})
	stopSymbolic()
	if err := werr.get(); err != nil {
		return nil, err
	}

	// Prefix sum gives the final row offsets; allocation is now exact,
	// and each span's ids (and values) move from its staging blocks into
	// place (a failed multiply leaves its blocks to the collector instead).
	parallel.PrefixSum(nt, c.RowOffsets, rowNnz)
	nnz := c.RowOffsets[a.Rows]
	c.ColIDs = make([]int32, nnz)
	c.Data = make([]float64, nnz)
	parallel.Run(len(stages), func(w int) {
		for _, sp := range stages[w].spans {
			lo, hi := c.RowOffsets[sp.lo], c.RowOffsets[sp.hi]
			copy(c.ColIDs[lo:hi], sp.ids)
			copy(c.Data[lo:hi], sp.vals)
		}
		for _, p := range stages[w].blocks {
			accum.ColBlocks.Put(p)
		}
		for _, p := range stages[w].vblocks {
			accum.ValBlocks.Put(p)
		}
	})

	// Numeric phase: replay the values into the structure, only to give
	// NaNs the warm replay's payloads (§13).
	if nan.Load() {
		stopNumeric := opts.Metrics.StartWall("cpu", "numeric")
		_, err := replay(speck.WholeWindow(c), a, b, bounds, opts, nil)
		stopNumeric()
		if err != nil {
			return nil, err
		}
	}
	if m := opts.Metrics; m.Enabled() {
		gets, news := accum.PoolCounters()
		m.Add(metrics.CounterPoolGets, gets-poolGets0)
		m.Add(metrics.CounterPoolNews, news-poolNews0)
	}
	opts.countProduct(sum(rowFlops), len(rowFlops), nnz)
	return c, nil
}

func releaseKits(kits []speck.Kit) {
	for i := range kits {
		kits[i].Release()
	}
}
