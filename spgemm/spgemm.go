// Package spgemm is the public API of the out-of-core CPU-GPU SpGEMM
// framework: sparse matrix-matrix multiplication for products that do
// not fit in (simulated) GPU memory, after "Scaling Sparse Matrix
// Multiplication on CPU-GPU Nodes" (Xia, Jiang, Agrawal, Ramnath —
// IPDPS 2021).
//
// Three engines are exposed:
//
//   - MultiplyCPU: real multi-core two-phase hash SpGEMM (the paper's
//     CPU baseline, after Nagasaka et al.).
//   - MultiplyOutOfCore: the paper's out-of-core GPU framework on a
//     simulated V100-class device, with the synchronous baseline and
//     the asynchronous pre-allocated pipeline.
//   - MultiplyHybrid: the CPU-GPU hybrid with flop-sorted chunk
//     distribution.
//
// All engines return numerically exact products; the GPU and hybrid
// engines additionally report simulated-time statistics under the
// device's cost model. See the examples directory for usage.
//
// Besides the Multiply* functions, every implementation (including the
// multi-GPU and distributed SUMMA extensions) is registered as a named
// Engine with one uniform entry point:
//
//	eng, _ := spgemm.ByName("hybrid")
//	c, report, _ := eng.Run(a, b, &spgemm.RunOptions{Metrics: spgemm.NewCollector()})
//
// Engines() lists the names; Report is the common statistics interface
// of all engines, and RunOptions.Metrics plugs in the shared
// observability layer (per-phase spans in simulated and wall-clock
// time, counters, Chrome-trace export).
package spgemm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/hybrid"
	"repro/internal/metrics"
	"repro/internal/mmio"
	"repro/internal/multigpu"
	"repro/internal/reorder"
	"repro/internal/speck"
	"repro/internal/summa"
)

// FaultConfig configures deterministic fault injection on the
// simulated devices (seeded transfer/kernel failures, stragglers, OOM
// pressure, device loss). The zero value is fault-free and leaves runs
// byte-identical to a build without the injection layer; pass it via
// RunOptions.Faults or OutOfCoreOptions.Faults.
type FaultConfig = faults.Config

// ParseFaultSpec parses the CLI fault specification, a comma-separated
// key=value list such as "seed=7,rate=0.02,loseafter=40".
func ParseFaultSpec(spec string) (FaultConfig, error) { return faults.ParseSpec(spec) }

// The fault/recovery error taxonomy. Engines wrap these sentinels with
// chunk and device context; classify with errors.Is.
var (
	// ErrTransfer and ErrKernel are transient device faults (retried up
	// to OutOfCoreOptions.ChunkRetries times per chunk).
	ErrTransfer = faults.ErrTransfer
	ErrKernel   = faults.ErrKernel
	// ErrOOM marks an allocation that exceeded usable device memory.
	ErrOOM = faults.ErrOOM
	// ErrDeviceLost marks a permanently failed device.
	ErrDeviceLost = faults.ErrDeviceLost
	// ErrChunkAbandoned marks a chunk whose retry budget was exhausted
	// with no recovery path left.
	ErrChunkAbandoned = faults.ErrChunkAbandoned
	// ErrDeadline marks a run aborted at RunOptions.DeadlineSec.
	ErrDeadline = faults.ErrDeadline
	// ErrOverloaded is the serving layer's load-shed rejection: the
	// job was never admitted (internal/serve wraps it with a
	// retry-after hint).
	ErrOverloaded = faults.ErrOverloaded
	// ErrQueueFull is the serving layer's bounded-queue rejection.
	ErrQueueFull = faults.ErrQueueFull
	// ErrJobPanic marks a job whose engine panicked; the serving layer
	// isolates the crash as this typed error instead of dying.
	ErrJobPanic = faults.ErrJobPanic
)

// Matrix is a sparse matrix in compressed sparse row form.
type Matrix = csr.Matrix

// Entry is a coordinate-format non-zero used to build matrices.
type Entry = csr.Entry

// NewMatrix creates an empty rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix { return csr.New(rows, cols) }

// FromEntries builds a matrix from coordinate triplets, summing
// duplicates.
func FromEntries(rows, cols int, entries []Entry) (*Matrix, error) {
	return csr.FromEntries(rows, cols, entries)
}

// Equal reports whether two matrices match within tol.
func Equal(a, b *Matrix, tol float64) bool { return csr.Equal(a, b, tol) }

// Flops reports the multiply-add flop count (x2) of computing A·B.
func Flops(a, b *Matrix) int64 { return csr.Flops(a, b) }

// ReadMatrixMarket loads a .mtx (optionally gzipped) file.
func ReadMatrixMarket(path string) (*Matrix, error) { return mmio.ReadFile(path) }

// WriteMatrixMarket writes a .mtx (optionally gzipped) file.
func WriteMatrixMarket(path string, m *Matrix) error { return mmio.WriteFile(path, m) }

// DeviceConfig describes the simulated GPU and its cost model.
type DeviceConfig = gpusim.DeviceConfig

// V100 returns the calibrated Tesla V100 device model (Table I of the
// paper).
func V100() DeviceConfig { return gpusim.V100Config() }

// V100WithMemory returns the V100 model with a different device-memory
// capacity, used to study out-of-core behaviour at small scales.
func V100WithMemory(bytes int64) DeviceConfig { return gpusim.ScaledV100Config(bytes) }

// OutOfCoreOptions configures the out-of-core GPU engine; see
// core.Options for the fields (chunk grid, Async, Reorder, ...).
type OutOfCoreOptions = core.Options

// Stats reports simulated-time statistics of an out-of-core run.
type Stats = core.Stats

// HostModel is the simulated multi-core CPU cost model.
type HostModel = hybrid.HostModel

// Identity is proof that a matrix's structure arrays were validated
// and hash to a structural fingerprint; see csr.Identity. The serving
// layer's matrix store and the plan cache mint them; RunOptions.AID and
// BID carry them to the engines.
type Identity = csr.Identity

// validateInputs rejects structurally corrupt matrices at the API
// boundary, where the cost (one O(nnz) scan per operand) is paid once
// rather than as a crash deep inside an engine.
func validateInputs(a, b *Matrix) error { return validateOperands(a, b, nil, nil, nil) }

// validateOperands is validateInputs for operands that may come with
// their identity records: an operand its record is of was validated
// where the record was minted and is not scanned again.
func validateOperands(a, b *Matrix, aid, bid *Identity, m *Collector) error {
	if !aid.Of(a) {
		m.Add(metrics.CounterIdentityPasses, 1)
		if err := a.Validate(); err != nil {
			return fmt.Errorf("spgemm: left operand invalid: %w", err)
		}
	}
	if !bid.Of(b) {
		m.Add(metrics.CounterIdentityPasses, 1)
		if err := b.Validate(); err != nil {
			return fmt.Errorf("spgemm: right operand invalid: %w", err)
		}
	}
	return nil
}

// MultiplyCPU computes A·B on the real multi-core CPU engine with
// threads worker goroutines (0 = GOMAXPROCS).
func MultiplyCPU(a, b *Matrix, threads int) (*Matrix, error) {
	if err := validateInputs(a, b); err != nil {
		return nil, err
	}
	return cpuspgemm.Multiply(a, b, cpuspgemm.Options{Threads: threads})
}

// Multiply computes A·B with the default engine (multi-core CPU).
func Multiply(a, b *Matrix) (*Matrix, error) { return MultiplyCPU(a, b, 0) }

// MultiplyOutOfCore computes A·B with the out-of-core GPU framework on
// a simulated device, returning the exact product and the simulated
// statistics.
func MultiplyOutOfCore(a, b *Matrix, cfg DeviceConfig, opts OutOfCoreOptions) (*Matrix, Stats, error) {
	if err := validateOperands(a, b, opts.AID, opts.BID, opts.Metrics); err != nil {
		return nil, Stats{}, err
	}
	return core.Run(a, b, cfg, opts)
}

// Plan chooses a chunk grid for the out-of-core engine: the smallest
// grid whose double-buffered pipeline fits the device memory, assuming
// chunk outputs up to skew x the average (graph matrices concentrate
// output in hub chunks). It runs a symbolic pass to size the output
// exactly, and hands that pass's row analysis on in the returned
// options (Analysis) so the engine run that follows does not repeat it.
func Plan(a, b *Matrix, cfg DeviceConfig) (OutOfCoreOptions, error) {
	return planExact(a, b, cfg, nil)
}

// planExact is Plan with an optional metrics sink for the symbolic
// pass's wall span.
func planExact(a, b *Matrix, cfg DeviceConfig, m *Collector) (OutOfCoreOptions, error) {
	if a.Cols != b.Rows {
		return OutOfCoreOptions{}, fmt.Errorf("spgemm: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	stop := m.StartWall("host", "row analysis")
	ra := speck.Analyze(a, b)
	stop()
	outBytes := ra.OutNnz()*12 + int64(a.Rows+1)*8
	inputs := a.Bytes() + b.Bytes()
	// Workspace and per-chunk row-info margins.
	margin := inputs/4 + int64(a.Rows)*24 + (1 << 16)
	avail := cfg.MemoryBytes - inputs - margin
	if avail <= 0 {
		return OutOfCoreOptions{}, fmt.Errorf("spgemm: device memory %d too small for inputs (%d) + margin (%d)",
			cfg.MemoryBytes, inputs, margin)
	}
	const skew = 4
	// Need 2 output slots of up to skew*outBytes/chunks each.
	chunks := int(2*skew*outBytes/avail) + 1
	if chunks < 1 {
		chunks = 1
	}
	opts := OutOfCoreOptions{Async: true, Reorder: true, Analysis: ra}
	opts.RowPanels, opts.ColPanels = gridFor(chunks, a.Rows, b.Cols)
	return opts, nil
}

// gridFor factors a chunk budget into a near-square grid bounded by
// the matrix dimensions.
func gridFor(chunks, rows, cols int) (r, c int) {
	r, c = 1, 1
	for r*c < chunks {
		// Grow the dimension that keeps the grid square-ish and legal.
		if (r <= c || c >= cols) && r < rows {
			r++
		} else if c < cols {
			c++
		} else {
			break
		}
	}
	return r, c
}

// MultiGPUOptions configures the one multi-worker out-of-core driver:
// any number of simulated GPUs, optionally beside the CPU worker.
// HybridOptions is the same set under the paper's name for one GPU plus
// the CPU; MultiplyHybrid pins those two fields.
type (
	MultiGPUOptions = multigpu.Options
	HybridOptions   = multigpu.Options
)

// MultiGPUStats reports a run of the driver: Stats plus the split
// between the workers. HybridStats is the same type.
type (
	MultiGPUStats = multigpu.Stats
	HybridStats   = multigpu.Stats
)

// MultiplyMultiGPU computes A·B across several simulated GPUs (plus
// optionally the CPU) — the scaling extension beyond the paper's
// single-GPU node.
func MultiplyMultiGPU(a, b *Matrix, cfg DeviceConfig, opts MultiGPUOptions) (*Matrix, MultiGPUStats, error) {
	if err := validateOperands(a, b, opts.Core.AID, opts.Core.BID, opts.Core.Metrics); err != nil {
		return nil, MultiGPUStats{}, err
	}
	return multigpu.Run(a, b, cfg, opts)
}

// MultiplyHybrid computes A·B with the paper's CPU-GPU hybrid engine
// (Algorithm 4): the driver with one GPU beside the CPU worker.
func MultiplyHybrid(a, b *Matrix, cfg DeviceConfig, opts HybridOptions) (*Matrix, HybridStats, error) {
	opts.NumGPUs, opts.UseCPU = 1, true
	return MultiplyMultiGPU(a, b, cfg, opts)
}

// SUMMAConfig configures the distributed sparse-SUMMA engine.
type SUMMAConfig = summa.Config

// SUMMAStats reports a distributed run.
type SUMMAStats = summa.Stats

// MultiplySUMMA computes A·B with 2-D sparse SUMMA on a simulated
// cluster of Q x Q nodes — the distributed-memory counterpart of the
// out-of-core single-node framework (the paper's reference [33]).
func MultiplySUMMA(a, b *Matrix, cfg SUMMAConfig) (*Matrix, SUMMAStats, error) {
	if err := validateInputs(a, b); err != nil {
		return nil, SUMMAStats{}, err
	}
	return summa.Run(a, b, cfg)
}

// MultiplyAuto multiplies A·B out-of-core, planning the chunk grid
// automatically and refining it (up to a few retries) if a chunk turns
// out not to fit the device arena — the situation the paper notes when
// "certain chunks are extremely dense and require large allocation".
func MultiplyAuto(a, b *Matrix, cfg DeviceConfig) (*Matrix, Stats, error) {
	return runAuto(a, b, RunOptions{Device: &cfg})
}

// runAuto is MultiplyAuto with the run's metrics sink, plan cache and
// operand records (the "auto" registry engine threads them through
// here).
func runAuto(a, b *Matrix, o RunOptions) (*Matrix, Stats, error) {
	cfg := o.device()
	opts, err := o.plan(a, b)
	if err != nil {
		return nil, Stats{}, err
	}
	opts.Metrics = o.Metrics
	opts.PlanCache = o.PlanCache.coreCache()
	opts.AID, opts.BID = o.AID, o.BID
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		c, st, err := MultiplyOutOfCore(a, b, cfg, opts)
		if err == nil {
			return c, st, nil
		}
		lastErr = err
		// Refine: more chunks shrink every per-chunk allocation.
		if opts.RowPanels*2 <= a.Rows {
			opts.RowPanels *= 2
		} else if opts.ColPanels*2 <= b.Cols {
			opts.ColPanels *= 2
		} else {
			break
		}
	}
	return nil, Stats{}, fmt.Errorf("spgemm: no chunk grid fits the device: %w", lastErr)
}

// RCM computes the reverse Cuthill-McKee bandwidth-reducing permutation
// of a square matrix's sparsity graph (perm[new] = old). Reordering
// inputs concentrates the out-of-core chunk grid's work near the
// diagonal (see the locality ablation in EXPERIMENTS.md).
func RCM(a *Matrix) ([]int32, error) { return reorder.RCM(a) }

// Permute applies a symmetric permutation P·A·Pᵀ.
func Permute(a *Matrix, perm []int32) (*Matrix, error) { return reorder.Permute(a, perm) }

// Bandwidth reports max |i-j| over the stored entries.
func Bandwidth(a *Matrix) int { return reorder.Bandwidth(a) }
