package spgemm

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cpuspgemm"
	"repro/internal/hybrid"
	"repro/internal/metrics"
)

// Report is the common statistics interface every engine returns: the
// run's duration (simulated seconds for device engines, wall-clock for
// the real-CPU ones), its work and throughput, and a flat counter
// snapshot for benchmark files and figure runners. Stats, HybridStats,
// MultiGPUStats, SUMMAStats and CPUStats all satisfy it.
type Report = metrics.Report

// Collector is the shared observability sink of the framework: a
// concurrency-safe recorder of per-phase spans (in both the simulated
// and the wall-clock time domain) and named counters. A nil *Collector
// is valid everywhere and records nothing, so disabled instrumentation
// costs one pointer comparison.
type Collector = metrics.Collector

// NewCollector returns an enabled metrics collector to pass through
// RunOptions.Metrics (or the engine-specific option structs).
func NewCollector() *Collector { return metrics.New() }

// SnapshotKeys returns a snapshot's keys in sorted order, for
// deterministic printing of Collector.Snapshot maps.
func SnapshotKeys(snap map[string]int64) []string { return metrics.SnapshotKeys(snap) }

// RunOptions is the one option set shared by every registered engine.
// The zero value (or a nil pointer) is usable: a V100-class device, an
// automatically planned chunk grid, default flop ratios and no
// instrumentation.
type RunOptions struct {
	// Threads bounds the real CPU parallelism (0 = GOMAXPROCS). It
	// applies to the cpu* engines and to the CPU workers of the hybrid
	// and multi-GPU engines.
	Threads int
	// Device is the simulated GPU model; nil means V100().
	Device *DeviceConfig
	// Core configures the out-of-core chunk grid and pipeline for the
	// gpu, gpu-sync, hybrid and multigpu engines. A zero grid
	// (RowPanels == 0 || ColPanels == 0) is planned automatically with
	// Plan.
	Core OutOfCoreOptions
	// Ratio is the GPU flop share of the hybrid and multigpu engines;
	// 0 means the engine's calibrated default.
	Ratio float64
	// NumGPUs is the device count of the multigpu engine; 0 means 1.
	NumGPUs int
	// UseCPU adds the CPU worker to the multigpu engine.
	UseCPU bool
	// SUMMA configures the distributed engine (process grid, fabric).
	SUMMA SUMMAConfig
	// Metrics, when non-nil, receives every engine's spans and
	// counters; export it with WriteChromeTrace or Snapshot.
	Metrics *Collector
	// PlanCache, when non-nil, enables the structure-reuse fast path:
	// symbolic results, chunk plans and device panel residency are
	// cached across runs keyed by the operands' structural
	// fingerprints, so repeated multiplies on an unchanged sparsity
	// pattern skip the symbolic phase and re-run only the numeric
	// accumulation. Share one cache across jobs to get warm hits; nil
	// keeps every run cold (byte-identical to a build without the
	// cache). DynamicAlloc device runs never consult it.
	PlanCache *PlanCache
	// Faults configures deterministic fault injection on the simulated
	// devices of the gpu, gpu-sync, hybrid and multigpu engines. The
	// zero value is fault-free.
	Faults FaultConfig
	// ChunkRetries bounds the transient-fault retries per chunk before
	// it is handed to a recovery path (0 means 3, negative disables).
	ChunkRetries int
	// DeadlineSec aborts a run once its clock passes it: the simulated
	// clock for device engines and SUMMA, the wall clock for the cpu
	// engine. 0 means no deadline.
	DeadlineSec float64
	// AID and BID are the operands' identity records when the caller
	// holds them (the serving layer's matrix store mints one per stored
	// matrix, the plan cache one per product pattern). They are operand
	// metadata, not a setting: no value changes a product. An operand
	// its record is of (Identity.Of, an O(1) check) is not validated,
	// hashed or flop-scanned again; nil, or a record of another matrix,
	// means exactly the behaviour without one.
	AID, BID *Identity
}

// wallDeadline converts DeadlineSec into a wall-clock cancellation
// hook for the real-CPU engines, whose time domain is wall time.
func (o RunOptions) wallDeadline() func() bool {
	if o.DeadlineSec <= 0 {
		return nil
	}
	deadline := time.Now().Add(time.Duration(o.DeadlineSec * float64(time.Second)))
	return func() bool { return time.Now().After(deadline) }
}

func (o *RunOptions) withDefaults() RunOptions {
	if o == nil {
		return RunOptions{}
	}
	return *o
}

func (o RunOptions) device() DeviceConfig {
	if o.Device != nil {
		return *o.Device
	}
	return V100()
}

// plan resolves the chunk grid for a's and b's structures, through
// the plan cache's memoized planner when one is configured. A planning
// pass hands its row analysis on in the returned options, so the engine
// that runs the grid (and EstimateCost's write-back) reuses it.
func (o RunOptions) plan(a, b *Matrix) (OutOfCoreOptions, error) {
	return o.PlanCache.plan(a, b, o)
}

// coreOptions resolves the out-of-core options: an explicit grid is
// kept, a zero grid is planned from the device memory. The engine name
// (gpu vs gpu-sync) decides the pipeline mode either way.
func (o RunOptions) coreOptions(a, b *Matrix, async bool) (OutOfCoreOptions, error) {
	opts := o.Core
	if opts.RowPanels == 0 || opts.ColPanels == 0 {
		planned, err := o.plan(a, b)
		if err != nil {
			return OutOfCoreOptions{}, err
		}
		opts = planned
	}
	opts.Async = async
	opts.Metrics = o.Metrics
	opts.Faults = o.Faults
	opts.ChunkRetries = o.ChunkRetries
	opts.DeadlineSec = o.DeadlineSec
	opts.AID, opts.BID = o.AID, o.BID
	if pc := o.PlanCache.coreCache(); pc != nil {
		opts.PlanCache = pc // an explicitly set Core.PlanCache is kept otherwise
	}
	return opts, nil
}

// Engine is a named SpGEMM implementation with a uniform entry point.
// All engines return the exact product; Report carries the per-engine
// statistics (simulated or wall-clock) behind one interface.
type Engine interface {
	// Name is the registry key (e.g. "hybrid").
	Name() string
	// Describe is a one-line human-readable summary.
	Describe() string
	// Run multiplies A·B. opts may be nil for defaults.
	Run(a, b *Matrix, opts *RunOptions) (*Matrix, Report, error)
}

// engine is the registry's function-backed Engine implementation.
type engine struct {
	name     string
	describe string
	// device marks engines that run (at least partly) on the simulated
	// GPU stack: they honor FaultConfig, need a device arena, and are
	// the ones a serving-layer circuit breaker can degrade away from.
	device bool
	run    func(a, b *Matrix, o RunOptions) (*Matrix, Report, error)
}

func (e *engine) Name() string     { return e.name }
func (e *engine) Describe() string { return e.describe }
func (e *engine) Run(a, b *Matrix, opts *RunOptions) (*Matrix, Report, error) {
	o := opts.withDefaults()
	if err := validateOperands(a, b, o.AID, o.BID, o.Metrics); err != nil {
		return nil, nil, err
	}
	return e.run(a, b, o)
}

var registry = map[string]*engine{}

// Register adds an engine under its name; it panics on duplicates
// (registration is an init-time act). The built-in engines are
// registered by this package; external packages may add their own.
func Register(e Engine) {
	name := e.Name()
	if _, dup := registry[name]; dup {
		panic("spgemm: duplicate engine " + name)
	}
	if impl, ok := e.(*engine); ok {
		registry[name] = impl
		return
	}
	registry[name] = &engine{name: name, describe: e.Describe(), run: func(a, b *Matrix, o RunOptions) (*Matrix, Report, error) {
		return e.Run(a, b, &o)
	}}
}

// Engines returns the registered engine names, sorted.
func Engines() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Describe returns the one-line description of a registered engine.
func Describe(name string) string {
	if e, ok := registry[name]; ok {
		return e.describe
	}
	return ""
}

// ByName looks up a registered engine. The error lists the valid names
// so CLI flag errors are self-documenting.
func ByName(name string) (Engine, error) {
	if e, ok := registry[name]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("spgemm: unknown engine %q (have %v)", name, Engines())
}

// DeviceBacked reports whether a registered engine runs on the
// simulated GPU stack (honors FaultConfig and needs a device arena).
// The serving layer uses it to decide which engines plan against
// device memory at admission and which a tripped circuit breaker can
// degrade to the CPU path. Unknown and externally registered engines
// report false.
func DeviceBacked(name string) bool {
	e, ok := registry[name]
	return ok && e.device
}

// Cost is a job's pre-execution footprint estimate — the signal an
// admission controller needs before accepting work (the
// memory-footprint-first discipline of the heterogeneous SpGEMM
// frameworks this repo follows). Flops is exact (a host-side scan, or
// the plan cache's memo of one); the device fields are the planned out-of-core grid for
// device-backed engines and zero otherwise.
type Cost struct {
	// Flops is the multiply-add flop count (x2) of A·B.
	Flops int64
	// Chunks is the planned RowPanels*ColPanels grid (device engines).
	Chunks int
	// ArenaBytes is the simulated device memory the plan assumes.
	ArenaBytes int64
	// DeviceBacked mirrors DeviceBacked(engine).
	DeviceBacked bool
}

// EstimateCost sizes a job before it runs: input validation, the exact
// flop count, and — for device-backed engines — the out-of-core chunk
// plan against the job's device memory. A job whose inputs cannot fit
// the device at any grid comes back as an error wrapping ErrOOM, so an
// admission controller can reject it up front instead of discovering
// mid-run.
//
// When opts is non-nil and the grid had to be planned here, the
// planned grid is written back into opts.Core, so running the job
// with the same options reuses it instead of planning a second time
// (the admission path plans each job exactly once).
func EstimateCost(engineName string, a, b *Matrix, opts *RunOptions) (Cost, error) {
	if _, ok := registry[engineName]; !ok {
		return Cost{}, fmt.Errorf("spgemm: unknown engine %q (have %v)", engineName, Engines())
	}
	o := opts.withDefaults()
	if err := validateOperands(a, b, o.AID, o.BID, o.Metrics); err != nil {
		return Cost{}, err
	}
	if a.Cols != b.Rows {
		return Cost{}, fmt.Errorf("spgemm: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	cost := Cost{Flops: o.flops(a, b), DeviceBacked: DeviceBacked(engineName)}
	if !cost.DeviceBacked {
		return cost, nil
	}
	cost.ArenaBytes = o.device().MemoryBytes
	grid := o.Core
	if grid.RowPanels == 0 || grid.ColPanels == 0 {
		planned, err := o.plan(a, b)
		if err != nil {
			return Cost{}, fmt.Errorf("spgemm: job does not fit the device: %w: %w", ErrOOM, err)
		}
		grid = planned
		if opts != nil {
			// Thread the plan through to the engine: coreOptions sees a
			// non-zero grid and skips its own Plan call. The engine still
			// overrides the pipeline mode (Async) by name, exactly as it
			// does for a user-provided grid.
			opts.Core = planned
		}
	}
	cost.Chunks = grid.RowPanels * grid.ColPanels
	return cost, nil
}

// CPUStats reports a wall-clock run of the real-CPU engine: TotalSec is
// the measured duration of the multiply.
type CPUStats struct{ metrics.Totals }

// Counters returns the flat key/value snapshot of the run.
func (s CPUStats) Counters() map[string]int64 {
	return map[string]int64{
		metrics.CounterFlops: s.Flops,
		metrics.CounterNnzC:  s.NnzC,
	}
}

// flops is the pair's flop count: the plan cache's memo when the
// operands come with their records and the pattern has a CPU plan (an
// O(1) probe that moves no counter), one scan otherwise.
func (o RunOptions) flops(a, b *Matrix) int64 {
	if o.AID.Of(a) && o.BID.Of(b) {
		if ent := o.PlanCache.peekCPU(o.PlanKey(a, b)); ent != nil {
			return ent.flops
		}
	}
	o.Metrics.Add(metrics.CounterIdentityPasses, 1)
	return Flops(a, b)
}

// nodeEngine is an engine over the one multi-worker out-of-core driver,
// flop-sorted as the paper designs it. The node's shape is the run's
// NumGPUs and UseCPU, unless the engine is the paper's hybrid: one GPU
// beside the CPU worker.
func nodeEngine(name, describe string, hybridNode bool) *engine {
	return &engine{name: name, device: true, describe: describe,
		run: func(a, b *Matrix, o RunOptions) (*Matrix, Report, error) {
			opts, err := o.coreOptions(a, b, true)
			if err != nil {
				return nil, nil, err
			}
			opts.Reorder = true
			nopts := MultiGPUOptions{Core: opts, NumGPUs: o.NumGPUs, UseCPU: o.UseCPU, Ratio: o.Ratio}
			if hybridNode {
				nopts.NumGPUs, nopts.UseCPU = 1, true
			}
			if o.Threads != 0 {
				nopts.Host = hybrid.DefaultHostModel()
				nopts.Host.Threads = o.Threads
			}
			c, st, err := MultiplyMultiGPU(a, b, o.device(), nopts)
			if err != nil {
				return nil, nil, err
			}
			return c, st, nil
		}}
}

func init() {
	Register(&engine{
		name:     "cpu",
		describe: "real multi-core two-phase SpGEMM with per-row accumulator selection (Nagasaka et al.)",
		run: func(a, b *Matrix, o RunOptions) (*Matrix, Report, error) {
			copts := cpuspgemm.Options{
				Threads: o.Threads, Metrics: o.Metrics, Cancel: o.wallDeadline(),
			}
			var c *Matrix
			var flops int64
			var err error
			start := time.Now()
			if o.PlanCache != nil {
				c, flops, err = o.PlanCache.multiplyCPU(a, b, o, copts)
			} else {
				c, err = cpuspgemm.Multiply(a, b, copts)
			}
			if errors.Is(err, cpuspgemm.ErrCanceled) {
				err = fmt.Errorf("spgemm: cpu engine: %w: %w", ErrDeadline, err)
			}
			if err != nil {
				return nil, nil, err
			}
			elapsed := time.Since(start)
			if o.PlanCache == nil {
				o.Metrics.Add(metrics.CounterIdentityPasses, 1)
				flops = Flops(a, b)
			}
			return c, CPUStats{metrics.NewTotals(elapsed.Seconds(), flops, c.Nnz())}, nil
		},
	})
	Register(&engine{
		name:     "gpu",
		device:   true,
		describe: "out-of-core GPU framework, asynchronous pre-allocated pipeline (paper Section III-B)",
		run: func(a, b *Matrix, o RunOptions) (*Matrix, Report, error) {
			opts, err := o.coreOptions(a, b, true)
			if err != nil {
				return nil, nil, err
			}
			c, st, err := MultiplyOutOfCore(a, b, o.device(), opts)
			if err != nil {
				return nil, nil, err
			}
			return c, st, nil
		},
	})
	Register(&engine{
		name:     "gpu-sync",
		device:   true,
		describe: "out-of-core GPU framework, synchronous baseline (paper Algorithm 3)",
		run: func(a, b *Matrix, o RunOptions) (*Matrix, Report, error) {
			opts, err := o.coreOptions(a, b, false)
			if err != nil {
				return nil, nil, err
			}
			c, st, err := MultiplyOutOfCore(a, b, o.device(), opts)
			if err != nil {
				return nil, nil, err
			}
			return c, st, nil
		},
	})
	Register(nodeEngine("hybrid", "CPU-GPU hybrid with flop-sorted chunk distribution (paper Algorithm 4)", true))
	Register(nodeEngine("multigpu", "LPT-scheduled chunks across several simulated GPUs, optional CPU worker", false))
	Register(&engine{
		name:     "summa",
		describe: "2-D sparse SUMMA on a simulated cluster (distributed counterpart, reference [33])",
		run: func(a, b *Matrix, o RunOptions) (*Matrix, Report, error) {
			cfg := o.SUMMA
			cfg.Metrics = o.Metrics
			if cfg.Threads == 0 {
				cfg.Threads = o.Threads
			}
			if cfg.DeadlineSec == 0 {
				cfg.DeadlineSec = o.DeadlineSec
			}
			c, st, err := MultiplySUMMA(a, b, cfg)
			if err != nil {
				return nil, nil, err
			}
			return c, st, nil
		},
	})
	Register(&engine{
		name:     "auto",
		device:   true,
		describe: "out-of-core GPU with automatic chunk-grid planning and refinement",
		run: func(a, b *Matrix, o RunOptions) (*Matrix, Report, error) {
			c, st, err := runAuto(a, b, o)
			if err != nil {
				return nil, nil, err
			}
			return c, st, nil
		},
	})
}
