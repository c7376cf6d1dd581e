// Package core implements the paper's primary contribution: an
// out-of-core SpGEMM framework that multiplies matrices whose output
// does not fit in GPU memory.
//
// Following Algorithm 3, matrix A is partitioned into row panels and
// matrix B into column panels; each (row panel, column panel) pair
// produces an independent chunk of C under the row-column formulation,
// which is what makes partitioning both inputs possible (Section III-A).
// Chunks are computed on the (simulated) GPU with the spECK-style
// in-core algorithm and streamed back to host memory.
//
// Two execution modes are provided:
//
//   - Synchronous (Async=false): the partitioned-spECK baseline of
//     Section IV-A — each chunk's phases and its output transfer run
//     back to back, optionally with per-phase dynamic device
//     allocations (DynamicAlloc=true) as spECK performs them.
//   - Asynchronous (Async=true): the paper's design. All device memory
//     comes from one pre-allocated arena managed by offsets, so no
//     malloc ever serializes the device; the output of chunk i-1 is
//     split into two portions whose transfers overlap the symbolic and
//     numeric phases of chunk i, with the small row-analysis and
//     symbolic-info transfers scheduled between them (Figure 6); and
//     chunks can be reordered by decreasing flops so transfers hide
//     computation (Section IV-C).
package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/speck"
)

// Options configures an out-of-core multiplication.
type Options struct {
	// RowPanels and ColPanels give the chunk grid (Algorithm 3's
	// num_row_panels and num_col_panels). Zero means 1.
	RowPanels, ColPanels int
	// Async enables the paper's asynchronous pipeline; false gives the
	// synchronous partitioned-spECK baseline.
	Async bool
	// Reorder processes chunks in decreasing-flops order (Section IV-C).
	Reorder bool
	// SplitFraction is the share of the previous chunk's output rows
	// transferred during the symbolic phase; the paper uses 33%.
	// Zero means 1/3. Only used when Async is set.
	SplitFraction float64
	// DynamicAlloc performs per-phase device allocations like
	// unmodified spECK instead of arena pre-allocation. Only meaningful
	// for the synchronous mode: dynamic allocation forbids overlap, the
	// very constraint the paper designs around.
	DynamicAlloc bool
	// OutputBuffers is the number of in-flight output chunk buffers in
	// the asynchronous pipeline; the paper double-buffers (2, the
	// default). More buffers trade device memory for tolerance to
	// transfer-time variance.
	OutputBuffers int
	// PartitionThreads sets the parallelism of the host-side column
	// partitioner; 0 means 4.
	PartitionThreads int
	// Metrics is an optional observability sink. When set, the run
	// publishes its simulated timeline, wall-clock host phases
	// (partitioning, assembly) and counters (bytes moved, flops,
	// chunks, mallocs) into it. Nil disables instrumentation at the
	// cost of a pointer comparison.
	Metrics *metrics.Collector
	// Faults configures deterministic fault injection on the device.
	// The zero value is fault-free and leaves the run byte-identical to
	// a build without the injection layer.
	Faults faults.Config
	// ChunkRetries bounds the transient-fault retries spent on one
	// chunk before it is abandoned to the caller's recovery path
	// (CPU fallback, device failover, or a returned error). 0 means 3;
	// negative means no retries.
	ChunkRetries int
	// RetryBackoffSec is the simulated backoff before the first retry;
	// it doubles per retry of the same chunk. 0 means 50 microseconds.
	RetryBackoffSec float64
	// DeadlineSec aborts the run (faults.ErrDeadline) once the
	// simulated clock passes it. 0 means no deadline.
	DeadlineSec float64
	// PlanCache, when non-nil, caches the values-independent half of
	// runs (partitions, chunk flops, the product's structure, chunk
	// metadata, panel residency) across engines keyed by the operands'
	// structural fingerprints. A warm run re-values the cached
	// partitions and does no symbolic work on the host or the device.
	// Ignored with DynamicAlloc (unmodified spECK re-plans every run by
	// design). Nil leaves every run byte-identical to a build without it.
	PlanCache *PlanCache
	// PlanDevice namespaces the plan cache's device-residency record
	// when several devices share one cache (multigpu); empty means
	// "dev".
	PlanDevice string
	// Analysis is the whole-matrix row analysis of A·B when the caller
	// already has it (the grid planner computes one to size the chunks).
	// Like the planned grid it is derived from the inputs, not a
	// setting: nil means "compute it where it is first needed", and a
	// non-nil value must come from the same operand patterns.
	Analysis *speck.RowAnalysis
	// AID and BID are the operands' identity records when the caller
	// has them (a matrix store that validated and hashed the operands
	// once). Operand metadata like Analysis: a record of its operand
	// supplies the plan-cache key in O(1), nil or a record of another
	// matrix means "hash the operand here".
	AID, BID *csr.Identity
}

func (o Options) withDefaults() Options {
	if o.RowPanels < 1 {
		o.RowPanels = 1
	}
	if o.ColPanels < 1 {
		o.ColPanels = 1
	}
	if o.SplitFraction <= 0 || o.SplitFraction >= 1 {
		o.SplitFraction = 1.0 / 3.0
	}
	if o.PartitionThreads < 1 {
		o.PartitionThreads = 4
	}
	if o.OutputBuffers < 2 {
		o.OutputBuffers = 2
	}
	if o.Async && o.DynamicAlloc {
		// The asynchronous pipeline requires pre-allocation; keep the
		// combination well-defined by ignoring DynamicAlloc.
		o.DynamicAlloc = false
	}
	switch {
	case o.ChunkRetries == 0:
		o.ChunkRetries = 3
	case o.ChunkRetries < 0:
		o.ChunkRetries = 0
	}
	if o.RetryBackoffSec <= 0 {
		o.RetryBackoffSec = 50e-6
	}
	return o
}

// Stats summarizes a run in simulated time.
type Stats struct {
	// Totals: TotalSec is the simulated makespan, including all output
	// transfers (the paper's GFLOPS definition).
	metrics.Totals
	// TransferSec is the total time the two DMA engines were busy;
	// TransferFraction is TransferSec / TotalSec (Figure 4's metric).
	TransferSec      float64
	TransferFraction float64
	// ComputeSec is the time the kernel engine was busy.
	ComputeSec float64
	// MemPeakBytes is the device memory high-water mark.
	MemPeakBytes int64
	// Mallocs counts device allocations (1 in pre-allocated mode).
	Mallocs int
	// Chunks is RowPanels*ColPanels.
	Chunks int
	// BytesH2D and BytesD2H are the payload bytes moved over each DMA
	// engine; their sum is the "bytes moved" a trace must reconcile.
	BytesH2D, BytesD2H int64
	// Retries counts transient device faults absorbed by retrying;
	// Abandoned counts transient faults NOT retried because the chunk's
	// budget was exhausted (each abandons the chunk to the caller's
	// recovery path). Retries+Abandoned equals the injector's
	// transfer+kernel fault count, the reconciliation invariant of the
	// chaos tests. Both are zero fault-free.
	Retries, Abandoned int64
}

// Counters returns the flat key/value snapshot of the run.
func (s Stats) Counters() map[string]int64 {
	return map[string]int64{
		metrics.CounterFlops:     s.Flops,
		metrics.CounterBytesH2D:  s.BytesH2D,
		metrics.CounterBytesD2H:  s.BytesD2H,
		metrics.CounterChunks:    int64(s.Chunks),
		metrics.CounterMallocs:   int64(s.Mallocs),
		metrics.CounterMemPeak:   s.MemPeakBytes,
		metrics.CounterNnzC:      s.NnzC,
		metrics.CounterRetries:   s.Retries,
		metrics.CounterAbandoned: s.Abandoned,
	}
}

// Engine drives the out-of-core multiplication of one (A, B) pair on a
// device. It is exported so the multi-worker driver (internal/multigpu)
// can schedule a subset of chunks on each GPU while a CPU worker takes
// the rest.
//
// The engine owns the product from the start, as the paper's pipeline
// owns its device memory (Section IV: nothing is allocated once chunks
// flow): C's structure and values exist before the first chunk runs, and
// ProcessChunks and HostChunk write numeric results into its windows.
type Engine struct {
	Dev  *gpusim.Device
	Opts Options

	RowPanels []partition.RowPanel
	ColPanels []partition.ColPanel

	a, b *csr.Matrix
	cm   speck.CostModel
	prod *product // shared with the engines OnDevice derives

	// err records the first failure inside simulation processes.
	err error

	// failed maps chunk ids that did not complete on the device to the
	// error that stopped them; callers recover them (the multi-worker
	// driver fails over to another live device or falls back to the CPU
	// worker) or the run surfaces them as a typed error.
	failed map[int]error
	// retries tracks the per-chunk retry budget already spent;
	// nRetries and nAbandoned are the run totals behind Stats.
	retries              map[int]int
	nRetries, nAbandoned int64
	// arenaAllocated notes that the one-time device arena Malloc has
	// happened; failover re-entries of ProcessChunks reuse it.
	arenaAllocated bool
	// live tracks device allocations still resident (the arena and,
	// in dynamic mode, cached input panels) so Teardown can release
	// their accounting when the run ends on any path.
	live map[*gpusim.Alloc]struct{}

	// plan is the values-independent half of the run, pinned in cache or
	// private when cache is nil. planResident carries the panel keys the
	// previous run on this pattern left device-resident (those skip
	// their H2D transfer); endResident collects the final residency this
	// run writes back at Teardown.
	plan         *planEntry
	cache        *PlanCache
	planResident map[string]struct{}
	endResident  []string
}

// product is C while it is computed: c is nil until the first chunk
// needs it; done[id] tells whether chunk id's windows of c.Data hold its
// values. A recovered chunk overwrites the windows its failed try wrote.
type product struct {
	c    *csr.Matrix
	done []bool
}

// NewEngine partitions the inputs (host-side, real work) and prepares
// an engine bound to the device.
func NewEngine(dev *gpusim.Device, a, b *csr.Matrix, opts Options) (*Engine, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("core: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	opts = opts.withDefaults()
	if opts.RowPanels > a.Rows && a.Rows > 0 {
		return nil, fmt.Errorf("core: %d row panels for %d rows", opts.RowPanels, a.Rows)
	}
	cm := speck.ModelFromDevice(dev.Cfg)
	pc := opts.PlanCache
	if opts.DynamicAlloc {
		pc = nil // unmodified-spECK mode re-plans every run by design
	}
	if opts.PlanDevice == "" {
		opts.PlanDevice = "dev"
	}

	var rps []partition.RowPanel
	var cps []partition.ColPanel
	var ent *planEntry
	var key planKey
	if pc != nil {
		stopFP := opts.Metrics.StartWall("host", "fingerprint")
		key = planKey{
			fpA:   csr.StructOf(a, opts.AID, opts.Metrics),
			fpB:   csr.StructOf(b, opts.BID, opts.Metrics),
			aRows: a.Rows, aCols: a.Cols, bCols: b.Cols,
			aNnz: a.Nnz(), bNnz: b.Nnz(),
			rowPanels: opts.RowPanels, colPanels: opts.ColPanels,
			cm: cm,
		}
		stopFP()
		ent = pc.acquire(key)
	}
	if ent != nil {
		// Warm: re-value the cached partitions against the fresh
		// operands — a reslice for row panels, one copy pass for
		// column panels — skipping all partitioning index work.
		stopRevalue := opts.Metrics.StartWall("host", "revalue panels")
		rps = revalueRowPanels(ent.rps, a)
		cps = revalueColPanels(ent.cps, b)
		stopRevalue()
		opts.Metrics.Add(metrics.CounterPlanCacheHits, 1)
	} else {
		stopPartition := opts.Metrics.StartWall("host", "partition")
		var err error
		rps, err = partition.RowPanels(a, opts.RowPanels)
		if err != nil {
			return nil, err
		}
		cps, err = partition.ColPanelsParallel(b, opts.ColPanels, opts.PartitionThreads)
		if err != nil {
			return nil, err
		}
		stopPartition()
		if pc != nil {
			ent = pc.store(key, rps, cps)
			opts.Metrics.Add(metrics.CounterPlanCacheMisses, 1)
		} else {
			ent = &planEntry{syms: map[int]*speck.Symbolic{}}
		}
	}
	e := &Engine{
		Opts:      opts,
		RowPanels: rps,
		ColPanels: cps,
		a:         a,
		b:         b,
		cm:        cm,
		prod:      &product{done: make([]bool, len(rps)*len(cps))},
		plan:      ent,
		cache:     pc,
	}
	e.bind(dev)
	return e, nil
}

// bind attaches the engine to its device with fresh per-device state.
func (e *Engine) bind(dev *gpusim.Device) {
	if e.Opts.Faults.Enabled() && dev.Faults() == nil {
		// Attach the injector unless the caller (multigpu) already
		// installed a per-device derived one.
		dev.SetFaults(faults.New(e.Opts.Faults))
	}
	e.Dev = dev
	e.failed = map[int]error{}
	e.retries = map[int]int{}
	e.live = map[*gpusim.Alloc]struct{}{}
	if e.cache != nil {
		e.planResident = e.cache.residentSet(e.plan, e.Opts.PlanDevice)
	}
}

// OnDevice derives, before any chunk runs, an engine working on the same
// product from another device: it shares e's panels, plan and product
// and has its own device state (panel residency under the planDevice
// namespace) and Teardown.
func (e *Engine) OnDevice(dev *gpusim.Device, planDevice string) *Engine {
	d := *e
	d.Opts.PlanDevice = planDevice
	if d.cache != nil {
		d.cache.retain(d.plan)
	}
	d.bind(dev)
	return &d
}

// trackAlloc and untrackAlloc maintain the live-allocation set behind
// Teardown's end-of-run release.
func (e *Engine) trackAlloc(a *gpusim.Alloc)   { e.live[a] = struct{}{} }
func (e *Engine) untrackAlloc(a *gpusim.Alloc) { delete(e.live, a) }

// Teardown releases the engine's remaining device allocations from
// the host after the simulation has drained (accounting only — the
// simulated context is gone) and returns the device memory still
// accounted afterwards. Anything nonzero is a leak: an allocation the
// engine lost track of on some exit path. Callers publish the result
// as the mem_in_use_bytes counter, which the arena-leak audit pins to
// zero even for deadline-aborted runs.
func (e *Engine) Teardown() int64 {
	for a := range e.live {
		// Double frees were already reported at the Free site; the
		// teardown's job is only to return what is still held.
		_ = e.Dev.FreeAccounting(a)
	}
	e.live = map[*gpusim.Alloc]struct{}{}
	e.arenaAllocated = false
	if pc := e.cache; pc != nil {
		// Write back device residency for the next run on this
		// pattern — unless the device was lost, which invalidates any
		// recorded residency (its memory is gone; trusting it would
		// serve stale panels).
		pc.setResident(e.plan, e.Opts.PlanDevice, e.endResident, e.DeviceLost())
		pc.release(e.plan)
		e.cache = nil
		e.planResident = nil
		e.endResident = nil
	}
	leaked := e.Dev.MemUsed()
	if m := e.Opts.Metrics; m != nil {
		m.Add(metrics.CounterMemInUse, leaked)
	}
	return leaked
}

// NumChunks returns the chunk count of the grid.
func (e *Engine) NumChunks() int { return len(e.RowPanels) * len(e.ColPanels) }

// chunkPanels resolves a chunk id to its panels.
func (e *Engine) chunkPanels(id int) (partition.RowPanel, partition.ColPanel) {
	nc := len(e.ColPanels)
	return e.RowPanels[id/nc], e.ColPanels[id%nc]
}

// chunkRowFlops returns every chunk's per-row flop counts by chunk id
// (row-major): the one row analysis a chunk gets, behind its flop
// count, its scheduling metadata and the CPU worker's load balance.
func (e *Engine) chunkRowFlops() [][]int64 {
	pl := e.plan
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.rowFlops == nil {
		pl.rowFlops = make([][]int64, e.NumChunks())
		pl.chunkFlops = make([]int64, e.NumChunks())
		var bytes int64
		for id := range pl.rowFlops {
			rp, cp := e.chunkPanels(id)
			pl.rowFlops[id] = csr.RowFlops(rp.M, cp.M)
			for _, f := range pl.rowFlops[id] {
				pl.chunkFlops[id] += f
			}
			bytes += int64(rp.M.Rows+1) * 8
		}
		e.cache.grow(pl, bytes)
	}
	return pl.rowFlops
}

// ChunkFlops returns the flop count of every chunk (GetFlops of
// Algorithm 4), indexed by chunk id in row-major order.
func (e *Engine) ChunkFlops() []int64 {
	e.chunkRowFlops()
	return e.plan.chunkFlops
}

// RowAnalysis returns the whole-matrix row analysis of the operands —
// C's exact row offsets, and what the driver's host cost model prices
// the CPU worker from: the plan's, else the one handed in through
// Options.Analysis, else computed here, once per pattern.
func (e *Engine) RowAnalysis() *speck.RowAnalysis {
	pl := e.plan
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.analysis == nil {
		if pl.analysis = e.Opts.Analysis; pl.analysis == nil {
			stop := e.Opts.Metrics.StartWall("host", "row analysis")
			pl.analysis = speck.Analyze(e.a, e.b)
			stop()
		}
		e.cache.grow(pl, pl.analysis.Bytes())
	}
	return pl.analysis
}

// product returns C, sized and allocated on first call: the value array
// is the run's one allocation for the result, the structure is the
// plan's — the column ids one symbolic emit pass per pattern wrote into
// exactly the size the row analysis counted, and the split table that
// refines the row offsets by column panel (ids ascend within a row, so
// each boundary is a binary search; with one panel it is the offsets).
func (e *Engine) product() *csr.Matrix {
	if e.prod.c != nil {
		return e.prod.c
	}
	ra, nc := e.RowAnalysis(), len(e.ColPanels)
	pl := e.plan
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.colIDs == nil {
		stop := e.Opts.Metrics.StartWall("host", "structure")
		offs := ra.RowOffsets
		pl.colIDs = speck.NewSymbolicPass(e.a, e.b, ra.RowFlops).Emit(offs)
		pl.split = offs
		if nc > 1 {
			// One sentinel row past the last, so that a zero-row operand's
			// empty panel has (empty) windows to address as well.
			pl.split = make([]int64, (e.a.Rows+1)*nc)
			for i := 0; i <= e.a.Rows; i++ {
				row := pl.colIDs[offs[i]:offs[min(i+1, e.a.Rows)]]
				for k, cp := range e.ColPanels {
					pl.split[i*nc+k] = offs[i] + int64(sort.Search(len(row), func(j int) bool { return int(row[j]) >= cp.Start }))
				}
			}
			e.cache.grow(pl, int64(len(pl.split))*8)
		}
		stop()
		e.cache.grow(pl, int64(len(pl.colIDs))*4)
	}
	e.prod.c = &csr.Matrix{
		Rows: e.a.Rows, Cols: e.b.Cols,
		RowOffsets: ra.RowOffsets, ColIDs: pl.colIDs,
		Data: make([]float64, len(pl.colIDs)),
	}
	return e.prod.c
}

// window returns chunk id's windows in C.
func (e *Engine) window(id int) speck.Window {
	c, nc := e.product(), len(e.ColPanels)
	rp, cp := e.chunkPanels(id)
	return speck.Window{
		Offs: e.plan.split[rp.Start*nc+id%nc:], Stride: nc,
		Cols: c.ColIDs, Data: c.Data, ColBase: cp.Start, Width: c.Cols,
	}
}

// chunkMeta returns chunk id's simulated inputs (row groups, phase
// durations, transfer and workspace sizes), derived from its row flops
// and the chunk-local row offsets its window sizes sum to. warm reports
// that a cached plan already held them: the pipelines then skip the
// chunk's symbolic device phases.
func (e *Engine) chunkMeta(id int) (sym *speck.Symbolic, warm bool) {
	rowFlops, w := e.chunkRowFlops()[id], e.window(id)
	pl := e.plan
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if sym = pl.syms[id]; sym != nil {
		return sym, e.cache != nil
	}
	rp, cp := e.chunkPanels(id)
	offs := make([]int64, rp.M.Rows+1)
	for i := 0; i < rp.M.Rows; i++ {
		offs[i+1] = offs[i] + w.RowNnz(i)
	}
	sym = speck.NewSymbolic(rp.M, cp.M, rowFlops, offs, e.cm)
	pl.syms[id] = sym
	e.cache.grow(pl, sym.Bytes())
	return sym, false
}

// compute performs chunk id's real arithmetic — the chunked replay of
// the numeric row kernel straight into the chunk's windows — and marks
// it done; the device path runs it on one thread.
func (e *Engine) compute(id, threads int) error {
	if e.ChunkFlops()[id] > 0 {
		rp, cp := e.chunkPanels(id)
		err := cpuspgemm.NumericInto(e.window(id), rp.M, cp.M, e.chunkRowFlops()[id], cpuspgemm.Options{Threads: threads})
		if err != nil {
			return fmt.Errorf("core: chunk %d: %w", id, err)
		}
	}
	e.prod.done[id] = true
	return nil
}

// HostChunk computes chunk id on the driver's CPU worker under a
// simulated "cpu" span, unless the run's deadline has passed; like
// ProcessChunks it records a terminal error on the engine (see Err). The
// worker's throughput is a property of the whole matrix, so the span is
// wholeSec (the host cost model's) prorated by flops, the paper's
// workload indicator for both processors.
func (e *Engine) HostChunk(p *sim.Proc, id int, label string, wholeSec float64, threads int) error {
	if e.pastDeadline() {
		return e.err
	}
	if err := e.compute(id, threads); err != nil {
		e.fail(err)
		return err
	}
	flops, sec := e.ChunkFlops(), 0.0
	if flops[id] > 0 {
		var total int64
		for _, f := range flops {
			total += f
		}
		sec = wholeSec * float64(flops[id]) / float64(total)
	}
	p.Span("cpu", fmt.Sprintf("%s %d", label, id), sim.Seconds(sec))
	return nil
}

// ScheduleOrder returns the chunk ids in execution order: row-major by
// default, decreasing flops when Opts.Reorder is set.
func (e *Engine) ScheduleOrder() []int {
	ids := make([]int, e.NumChunks())
	for i := range ids {
		ids[i] = i
	}
	if e.Opts.Reorder {
		flops := e.ChunkFlops()
		sort.SliceStable(ids, func(i, j int) bool { return flops[ids[i]] > flops[ids[j]] })
	}
	return ids
}

// Err returns the first error recorded by a simulation process.
func (e *Engine) Err() error { return e.err }

// fail records the first process error.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// failChunk marks one chunk as not completed on the device. It is
// unmarked in the done-set so the schedule stays honest: a failed chunk
// contributes no output until a recovery path (CPU fallback, another
// device) recomputes it into the same windows.
func (e *Engine) failChunk(id int, err error) {
	e.prod.done[id] = false
	e.failed[id] = err
}

// Failed returns the chunks that did not complete, keyed by the error
// that stopped them. The map is live; callers that recover a chunk
// must ClearFailed it.
func (e *Engine) Failed() map[int]error { return e.failed }

// ClearFailed removes a chunk from the failed set after a recovery
// path has produced its result elsewhere.
func (e *Engine) ClearFailed(id int) { delete(e.failed, id) }

// devOp runs one device operation under the chunk's retry budget:
// transient faults (ErrTransfer, ErrKernel) retry after an exponential
// simulated-clock backoff recorded on the "recovery" lane; exhausting
// the budget wraps faults.ErrChunkAbandoned; device loss and other
// errors pass through untouched.
func (e *Engine) devOp(p *sim.Proc, id int, op func() error) error {
	for {
		err := op()
		if err == nil || !faults.Transient(err) {
			return err
		}
		if e.retries[id] >= e.Opts.ChunkRetries {
			e.nAbandoned++
			return fmt.Errorf("core: chunk %d: %w: %w", id, faults.ErrChunkAbandoned, err)
		}
		e.retries[id]++
		e.nRetries++
		backoff := e.Opts.RetryBackoffSec * float64(int64(1)<<min(e.retries[id]-1, 10))
		p.Span("recovery", fmt.Sprintf("backoff c%d", id), sim.Seconds(backoff))
	}
}

// pastDeadline reports whether the run's deadline has passed on the
// simulated clock, recording the terminal error once it has.
func (e *Engine) pastDeadline() bool {
	if e.Opts.DeadlineSec <= 0 {
		return false
	}
	if now := sim.SecondsAt(e.Dev.Env.Now()); now > e.Opts.DeadlineSec {
		e.fail(fmt.Errorf("core: %w: simulated clock at %.6fs past %.6fs", faults.ErrDeadline, now, e.Opts.DeadlineSec))
		return true
	}
	return false
}

// FailedError folds the failed-chunk set into one typed error for
// callers whose recovery paths are exhausted (or absent).
func (e *Engine) FailedError() error {
	if len(e.failed) == 0 {
		return nil
	}
	ids := make([]int, 0, len(e.failed))
	for id := range e.failed {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return fmt.Errorf("core: %d of %d chunks failed (first: chunk %d): %w",
		len(ids), e.NumChunks(), ids[0], e.failed[ids[0]])
}

// Run multiplies A·B out-of-core on a fresh simulated device and
// returns the exact product plus simulated-time statistics. It is the
// package's main entry point for GPU-only execution.
func Run(a, b *csr.Matrix, cfg gpusim.DeviceConfig, opts Options) (*csr.Matrix, Stats, error) {
	c, st, _, err := RunTraced(a, b, cfg, opts)
	return c, st, err
}

// RunTraced is Run, additionally returning the simulated timeline
// (kernel, DMA and barrier spans) for schedule inspection — the data
// behind the paper's Figures 5 and 6.
func RunTraced(a, b *csr.Matrix, cfg gpusim.DeviceConfig, opts Options) (*csr.Matrix, Stats, []sim.Span, error) {
	env := sim.NewEnv()
	dev := gpusim.NewDevice(env, cfg)
	eng, err := NewEngine(dev, a, b, opts)
	if err != nil {
		return nil, Stats{}, nil, err
	}
	// End-of-run teardown on every exit path (success, deadline,
	// abandonment): release remaining device allocations and publish
	// the leak audit counter.
	defer eng.Teardown()
	env.Spawn("gpu", func(p *sim.Proc) {
		eng.ProcessChunks(p, eng.ScheduleOrder())
	})
	if err := env.Run(); err != nil {
		return nil, Stats{}, nil, err
	}
	if eng.err != nil {
		return nil, Stats{}, nil, eng.err
	}
	if err := eng.FailedError(); err != nil {
		// GPU-only execution has no fallback device; abandoned or
		// orphaned chunks surface as a typed error.
		return nil, Stats{}, nil, err
	}
	c, err := eng.Assemble()
	if err != nil {
		return nil, Stats{}, nil, err
	}
	st := eng.StatsFor(env, c)
	eng.PublishMetrics(env, st)
	return c, st, env.Timeline, nil
}

// PublishMetrics exports the run's simulated timeline and counters
// into the engine's metrics collector (no-op when none is configured).
// Callers that drive the environment themselves (the multi-worker
// driver) invoke it after computing their stats so instrumentation
// lands once, here, rather than per engine.
func (e *Engine) PublishMetrics(env *sim.Env, st metrics.Report) {
	c := e.Opts.Metrics
	if c == nil {
		return
	}
	c.ImportSim(env.Timeline)
	for k, v := range st.Counters() {
		c.Add(k, v)
	}
	e.PublishFaults()
}

// PublishFaults exports the engine's device's injected-fault counts; a
// run over several devices calls it for each one PublishMetrics was not
// called on.
func (e *Engine) PublishFaults() {
	for kind, n := range e.Dev.Faults().Counts() {
		e.Opts.Metrics.Add("faults_injected_"+kind, n)
	}
}

// StatsFor collects the run statistics of the engine's device from the
// environment, for Run and for callers (the multi-worker driver) that
// drive the environment themselves.
func (e *Engine) StatsFor(env *sim.Env, c *csr.Matrix) Stats {
	var flops int64
	for _, f := range e.ChunkFlops() {
		flops += f
	}
	transfer := sim.SecondsOf(e.Dev.TransferBusy())
	st := Stats{
		Totals:       metrics.NewTotals(sim.SecondsAt(env.Now()), flops, c.Nnz()),
		TransferSec:  transfer,
		ComputeSec:   sim.SecondsOf(e.Dev.ComputeBusy()),
		MemPeakBytes: e.Dev.MemPeak(),
		Mallocs:      e.Dev.Mallocs(),
		Chunks:       e.NumChunks(),
		BytesH2D:     e.Dev.BytesH2D(),
		BytesD2H:     e.Dev.BytesD2H(),
		Retries:      e.nRetries,
		Abandoned:    e.nAbandoned,
	}
	if st.TotalSec > 0 {
		st.TransferFraction = transfer / st.TotalSec
	}
	return st
}

// ProcessChunks executes the given chunks on the device in order,
// using the synchronous or asynchronous pipeline per Options. It must
// be called from a simulation process. It returns the ids from this
// call that did not complete (also recorded in Failed, with their
// errors) so callers can route them to a recovery path; terminal
// errors — a deadline, a host-side failure — are recorded on the
// engine (see Err).
func (e *Engine) ProcessChunks(p *sim.Proc, ids []int) []int {
	if len(ids) == 0 {
		return nil
	}
	e.product() // C is sized and allocated before the pipeline starts
	if e.Opts.Async {
		return e.processAsync(p, ids)
	}
	return e.processSync(p, ids)
}

// DeviceLost reports whether the engine's device has permanently
// failed.
func (e *Engine) DeviceLost() bool { return e.Dev.Faults().Lost() }

// IsRecoverable reports whether a chunk failure can be recovered by
// recomputing the chunk elsewhere (as opposed to a terminal condition
// like a missed deadline).
func IsRecoverable(err error) bool {
	return err != nil && !errors.Is(err, faults.ErrDeadline)
}
