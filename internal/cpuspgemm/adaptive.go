package cpuspgemm

import (
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
// The symbolic phase emits every row's ascending column ids; the numeric
// phase is the stamped-scratch replay a warm Numeric call runs (replay,
// in plan.go) over the structure just emitted. Same-column products sum
// in first-touch arrival order, so the product is bit-for-bit
// Sequential's.

// ClassStat aggregates one kernel class's share of a multiply.
type ClassStat struct {
	Rows, Flops, Nnz      int64
	SymbolicNs, NumericNs int64
}

// ClassStats is the per-class breakdown of a multiply, accumulated
// atomically across workers when Options.ClassStats is set. The
// per-phase nanoseconds are measured per row (two clock reads per row
// per phase), so attach it only to instrumented runs — bench/ uses a
// dedicated pass, never the timed repetitions.
type ClassStats struct {
	Classes [speck.NumKinds]ClassStat
}

// Names returns the class names in Classes order.
func (s *ClassStats) Names() [speck.NumKinds]string { return speck.KindNames }

// merge adds one chunk's locally gathered shares.
func (s *ClassStats) merge(part *[speck.NumKinds]ClassStat) {
	for k := range part {
		c, p := &s.Classes[k], &part[k]
		atomic.AddInt64(&c.Rows, p.Rows)
		atomic.AddInt64(&c.Flops, p.Flops)
		atomic.AddInt64(&c.Nnz, p.Nnz)
		atomic.AddInt64(&c.SymbolicNs, p.SymbolicNs)
		atomic.AddInt64(&c.NumericNs, p.NumericNs)
	}
}

// ChunkSpan is one dynamically claimed chunk's measured execution.
type ChunkSpan struct {
	Lo, Hi  int
	Seconds float64
}

// ChunkLog records per-chunk wall durations of the two phases when
// attached via Options.ChunkLog. Replaying the measured durations
// through parallel.ListSchedule gives the scheduled speedup at thread
// counts the machine cannot physically host
// (TestAdaptiveChunkLogAndWorkers holds its floors).
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

// colSpan holds the column ids of rows [lo, hi), in row order, where the
// symbolic phase staged them.
type colSpan struct {
	lo, hi int
	ids    []int32
}

// colStage is one worker's staged structure: rows are emitted into
// pooled fixed-size blocks, a span ending where a chunk ends or where
// the next row might not fit the current block's tail.
type colStage struct {
	tail   []int32 // the current block's free tail (length 0)
	spans  []colSpan
	blocks []*[]int32
}

// newBlock returns an empty buffer with room for n ids: a pooled block,
// or a buffer of its own for a row wider than one.
func (s *colStage) newBlock(n int) []int32 {
	if n > accum.ColBlockLen {
		return make([]int32, 0, n)
	}
	p := accum.GetColBlock()
	s.blocks = append(s.blocks, p)
	return (*p)[:0]
}

// multiplyAdaptive is the two-phase pipeline — symbolic emit, then the
// numeric replay — behind Multiply and MultiplyPlanned. rowFlops, when
// non-nil, is the precomputed row analysis (MultiplyPlanned keeps it
// for the plan).
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
	bounds := parallel.CostBounds(rowFlops, chunkNT)

	// Label every row with its work class and segment-compress B when
	// the multiply can amortize the O(nnz(B)) pass.
	pass := speck.NewSymbolicPass(a, b, rowFlops)
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

	// Symbolic phase: each worker stages its rows' ascending column ids;
	// the row sizes fall out of the append.
	stopSymbolic := opts.Metrics.StartWall("cpu", "symbolic")
	forChunksLogged(nt, bounds, opts.ChunkLog, true, func(w, lo, hi int) {
		if werr.get() != nil {
			return
		}
		if opts.canceled() {
			werr.set(ErrCanceled)
			return
		}
		kit, st := &kits[w], &stages[w]
		buf, first := st.tail, lo
		t0 := time.Now()
		var part [speck.NumKinds]ClassStat
		for i := lo; i < hi; i++ {
			if rowFlops[i] == 0 {
				continue
			}
			// A row holds at most one id per product and per column.
			if bound := int(min(rowFlops[i]/2, int64(b.Cols))); cap(buf)-len(buf) < bound {
				st.spans = append(st.spans, colSpan{first, i, buf})
				buf, first = st.newBlock(bound), i
			}
			n := len(buf)
			buf = pass.AppendCols(kit, i, buf)
			rowNnz[i] = int64(len(buf) - n)
			if opts.ClassStats != nil {
				t1 := time.Now()
				c := &part[pass.Kind(i)]
				c.SymbolicNs += t1.Sub(t0).Nanoseconds()
				t0 = t1
				c.Rows++
				c.Flops += rowFlops[i]
				c.Nnz += rowNnz[i]
			}
		}
		st.spans = append(st.spans, colSpan{first, hi, buf})
		st.tail = buf[len(buf):]
		if opts.ClassStats != nil {
			opts.ClassStats.merge(&part)
		}
	})
	stopSymbolic()
	if err := werr.get(); err != nil {
		return nil, err
	}

	// Prefix sum gives the final row offsets; allocation is now exact,
	// and each span's ids move from its staging block into place (a
	// failed multiply leaves its blocks to the collector instead).
	parallel.PrefixSum(nt, c.RowOffsets, rowNnz)
	nnz := c.RowOffsets[a.Rows]
	c.ColIDs = make([]int32, nnz)
	c.Data = make([]float64, nnz)
	parallel.Run(len(stages), func(w int) {
		for _, sp := range stages[w].spans {
			copy(c.ColIDs[c.RowOffsets[sp.lo]:c.RowOffsets[sp.hi]], sp.ids)
		}
		for _, p := range stages[w].blocks {
			accum.PutColBlock(p)
		}
	})

	// Numeric phase: replay the values into the structure.
	stopNumeric := opts.Metrics.StartWall("cpu", "numeric")
	err := replay(speck.WholeWindow(c), a, b, bounds, opts, pass)
	stopNumeric()
	if err != nil {
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

func releaseKits(kits []speck.Kit) {
	for i := range kits {
		kits[i].Release()
	}
}
