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
	// runs (partitions, chunk flops, symbolic results, panel residency)
	// across engines keyed by the operands' structural fingerprints.
	// A warm run re-values the cached partitions and skips the
	// symbolic device pipeline. Ignored with DynamicAlloc (that mode
	// models unmodified spECK, which re-plans every run by design).
	// Nil leaves every run byte-identical to a build without caching.
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
	// TotalSec is the simulated makespan, including all output
	// transfers (the paper's GFLOPS definition).
	TotalSec float64
	// TransferSec is the total time the two DMA engines were busy;
	// TransferFraction is TransferSec / TotalSec (Figure 4's metric).
	TransferSec      float64
	TransferFraction float64
	// ComputeSec is the time the kernel engine was busy.
	ComputeSec float64
	// Flops is the multiply-add flop count (x2) of the whole product.
	Flops int64
	// GFLOPS is Flops / TotalSec / 1e9.
	GFLOPS float64
	// NnzC is the number of non-zeros of the product.
	NnzC int64
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

// Seconds returns the simulated makespan; part of metrics.Report.
func (s Stats) Seconds() float64 { return s.TotalSec }

// FlopCount returns the multiply-add flop count (x2) of the product.
func (s Stats) FlopCount() int64 { return s.Flops }

// Throughput returns the run's GFLOPS.
func (s Stats) Throughput() float64 { return s.GFLOPS }

// OutputNnz returns the product's non-zero count.
func (s Stats) OutputNnz() int64 { return s.NnzC }

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
// device. It is exported so the hybrid package can schedule a subset of
// chunks on the GPU while a CPU worker takes the rest.
type Engine struct {
	Dev  *gpusim.Device
	Opts Options

	RowPanels []partition.RowPanel
	ColPanels []partition.ColPanel

	cm speck.CostModel

	// Results maps chunk id (row*ColPanels+col) to the computed chunk.
	Results map[int]*speck.Result

	// err records the first failure inside simulation processes.
	err error

	// failed maps chunk ids that did not complete on the device to the
	// error that stopped them; callers recover them (hybrid falls back
	// to the CPU, multigpu fails over to a surviving device) or the run
	// surfaces them as a typed error.
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

	// plan is the engine's pinned plan-cache entry (nil without a
	// cache); planWarm marks a cache hit. planResident carries the
	// panel keys the previous run on this pattern left device-resident
	// (those skip their H2D transfer); endResident collects the final
	// residency this run writes back at Teardown.
	plan         *planEntry
	planWarm     bool
	planResident map[string]struct{}
	endResident  []string

	rows, cols int // dimensions of C
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
	warm := false
	var key planKey
	if pc != nil {
		stopFP := opts.Metrics.StartWall("host", "fingerprint")
		key = planKey{
			fpA: csr.Fingerprint(a), fpB: csr.Fingerprint(b),
			aRows: a.Rows, aCols: a.Cols, bCols: b.Cols,
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
		warm = true
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
		}
	}
	if opts.Faults.Enabled() && dev.Faults() == nil {
		// Attach the injector unless the caller (multigpu) already
		// installed a per-device derived one.
		dev.SetFaults(faults.New(opts.Faults))
	}
	e := &Engine{
		Dev:       dev,
		Opts:      opts,
		RowPanels: rps,
		ColPanels: cps,
		cm:        cm,
		Results:   map[int]*speck.Result{},
		failed:    map[int]error{},
		retries:   map[int]int{},
		live:      map[*gpusim.Alloc]struct{}{},
		plan:      ent,
		planWarm:  warm,
		rows:      a.Rows,
		cols:      b.Cols,
	}
	if warm {
		e.planResident = pc.residentSet(ent, opts.PlanDevice)
	}
	return e, nil
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
	if e.plan != nil {
		// Write back device residency for the next run on this
		// pattern — unless the device was lost, which invalidates any
		// recorded residency (its memory is gone; trusting it would
		// serve stale panels).
		pc := e.Opts.PlanCache
		pc.setResident(e.plan, e.Opts.PlanDevice, e.endResident, e.DeviceLost())
		pc.release(e.plan)
		e.plan = nil
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

// ChunkFlops computes the flop count of every chunk (GetFlops of
// Algorithm 4), indexed by chunk id in row-major order. Flop counts
// depend only on structure, so with a plan cache a warm run returns
// the cached counts without re-walking the panels.
func (e *Engine) ChunkFlops() []int64 {
	pc := e.Opts.PlanCache
	if e.plan != nil {
		if f := pc.flops(e.plan); f != nil {
			return f
		}
	}
	out := make([]int64, e.NumChunks())
	for id := range out {
		rp, cp := e.chunkPanels(id)
		out[id] = csr.Flops(rp.M, cp.M)
	}
	if e.plan != nil {
		pc.setFlops(e.plan, out)
	}
	return out
}

// RowAnalysis returns the whole-matrix row analysis of the engine's
// operands, which the hybrid engines' host cost model prices the CPU
// worker from: the one handed in through Options.Analysis, else the one
// cached with the plan, else computed here — once per run, and with a
// plan cache once per pattern.
func (e *Engine) RowAnalysis(a, b *csr.Matrix) *speck.RowAnalysis {
	ra := e.Opts.Analysis
	if ra == nil && e.plan != nil {
		ra = e.Opts.PlanCache.analysis(e.plan)
	}
	if ra == nil {
		stop := e.Opts.Metrics.StartWall("host", "row analysis")
		ra = speck.Analyze(a, b)
		stop()
	}
	if e.plan != nil {
		e.Opts.PlanCache.setAnalysis(e.plan, ra)
	}
	return ra
}

// PlanWarm reports whether the engine was built from a plan-cache hit.
func (e *Engine) PlanWarm() bool { return e.planWarm }

// chunkResult computes one chunk's result. With a cached symbolic
// plan for the chunk it runs only the numeric half (warm=true tells
// the pipelines to skip the chunk's symbolic device phases); otherwise
// it runs the full computation and, when a plan entry is active,
// records the symbolic half for future runs. Compute is exactly
// SymbolicCompute followed by Numeric, so both paths produce
// bit-identical chunks.
func (e *Engine) chunkResult(id int, rp partition.RowPanel, cp partition.ColPanel) (res *speck.Result, warm bool, err error) {
	if e.plan == nil {
		res, err = speck.Compute(rp.M, cp.M, e.cm)
		return res, false, err
	}
	pc := e.Opts.PlanCache
	if sym := pc.symbolic(e.plan, id); sym != nil {
		res, err = speck.Numeric(sym, rp.M, cp.M)
		return res, err == nil, err
	}
	sym, err := speck.SymbolicCompute(rp.M, cp.M, e.cm)
	if err != nil {
		return nil, false, err
	}
	res, err = speck.Numeric(sym, rp.M, cp.M)
	if err != nil {
		return nil, false, err
	}
	pc.addSymbolic(e.plan, id, sym)
	return res, false, nil
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

// failChunk marks one chunk as not completed on the device. Its result
// is dropped so the schedule stays honest: a failed chunk contributes
// no output until a recovery path (CPU fallback, another device)
// recomputes it.
func (e *Engine) failChunk(id int, err error) {
	delete(e.Results, id)
	e.failed[id] = err
}

// Failed returns the chunks that did not complete, keyed by the error
// that stopped them. The map is live; callers that recover a chunk
// must ClearFailed it.
func (e *Engine) Failed() map[int]error { return e.failed }

// ClearFailed removes a chunk from the failed set after a recovery
// path has produced its result elsewhere.
func (e *Engine) ClearFailed(id int) { delete(e.failed, id) }

// Retries reports the transient faults absorbed by retrying so far.
func (e *Engine) Retries() int64 { return e.nRetries }

// Abandoned reports the transient faults that exhausted a chunk's
// retry budget so far.
func (e *Engine) Abandoned() int64 { return e.nAbandoned }

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
	st := eng.stats(env, c)
	eng.PublishMetrics(env, st)
	return c, st, env.Timeline, nil
}

// PublishMetrics exports the run's simulated timeline and counters
// into the engine's metrics collector (no-op when none is configured).
// Callers that drive the environment themselves (hybrid, multigpu)
// invoke it after computing their stats so instrumentation lands once,
// here, rather than per engine.
func (e *Engine) PublishMetrics(env *sim.Env, st Stats) {
	c := e.Opts.Metrics
	if c == nil {
		return
	}
	c.ImportSim(env.Timeline)
	for k, v := range st.Counters() {
		c.Add(k, v)
	}
	for kind, n := range e.Dev.Faults().Counts() {
		c.Add("faults_injected_"+kind, n)
	}
}

// stats collects run statistics from the environment.
func (e *Engine) stats(env *sim.Env, c *csr.Matrix) Stats {
	var flops int64
	for _, r := range e.Results {
		flops += r.Flops
	}
	total := sim.SecondsAt(env.Now())
	transfer := sim.SecondsOf(e.Dev.TransferBusy())
	st := Stats{
		TotalSec:     total,
		TransferSec:  transfer,
		ComputeSec:   sim.SecondsOf(e.Dev.ComputeBusy()),
		Flops:        flops,
		MemPeakBytes: e.Dev.MemPeak(),
		Mallocs:      e.Dev.Mallocs(),
		Chunks:       e.NumChunks(),
		BytesH2D:     e.Dev.BytesH2D(),
		BytesD2H:     e.Dev.BytesD2H(),
		Retries:      e.nRetries,
		Abandoned:    e.nAbandoned,
	}
	if c != nil {
		st.NnzC = c.Nnz()
	}
	if total > 0 {
		st.TransferFraction = transfer / total
		st.GFLOPS = float64(flops) / total / 1e9
	}
	return st
}

// StatsFor exposes stats computation for callers (like the hybrid
// engine) that drive the environment themselves.
func (e *Engine) StatsFor(env *sim.Env, c *csr.Matrix) Stats { return e.stats(env, c) }

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

// inputBytes reports the device footprint of a chunk's input panels.
func inputBytes(rp partition.RowPanel, cp partition.ColPanel) (aBytes, bBytes int64) {
	return rp.M.Bytes(), cp.M.Bytes()
}
