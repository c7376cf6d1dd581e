// Package spgemm is the public API of the out-of-core CPU-GPU SpGEMM
// framework: sparse matrix-matrix multiplication for products that do
// not fit in (simulated) GPU memory, after "Scaling Sparse Matrix
// Multiplication on CPU-GPU Nodes" (Xia, Jiang, Agrawal, Ramnath —
// IPDPS 2021).
//
// Every engine is a named Engine in one registry with one entry point:
//
//	eng, _ := spgemm.ByName("hybrid")
//	c, report, _ := eng.Run(a, b, &spgemm.RunOptions{Metrics: spgemm.NewCollector()})
//
// Engines() lists the names: the real multi-core CPU engine ("cpu",
// the paper's baseline: Gustavson rows in one pass on a two-level
// bitmap), the out-of-core GPU framework on a simulated V100-class
// device ("gpu" with the asynchronous pre-allocated pipeline,
// "gpu-sync" with the synchronous baseline, "auto" with a grid refined
// until it fits), the CPU-GPU hybrid of Algorithm 4 ("hybrid"), and the
// multi-GPU and distributed SUMMA extensions ("multigpu", "summa").
// Multiply(a, b) is the one shorthand: the cpu engine's product.
//
// All engines return numerically exact products; the device engines
// additionally report simulated-time statistics under the device's
// cost model. Report is the common statistics interface of all
// engines, and RunOptions.Metrics plugs in the shared observability
// layer (per-phase spans in simulated and wall-clock time, counters,
// Chrome-trace export).
package spgemm

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/hybrid"
	"repro/internal/metrics"
	"repro/internal/mmio"
	"repro/internal/multigpu"
	"repro/internal/parallel"
	"repro/internal/speck"
	"repro/internal/summa"
)

// FaultConfig configures deterministic fault injection on the
// simulated devices (seeded transfer/kernel failures, stragglers, OOM
// pressure, device loss). The zero value is fault-free and leaves runs
// byte-identical to a build without the injection layer; pass it via
// RunOptions.Faults.
type FaultConfig = faults.Config

// ParseFaultSpec parses the CLI fault specification, a comma-separated
// key=value list such as "seed=7,rate=0.02,loseafter=40".
func ParseFaultSpec(spec string) (FaultConfig, error) { return faults.ParseSpec(spec) }

// The fault/recovery error taxonomy. Engines wrap these sentinels with
// chunk and device context; classify with errors.Is.
var (
	// ErrTransfer and ErrKernel are transient device faults (retried up
	// to RunOptions.ChunkRetries times per chunk).
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

// FromEntries builds a matrix from coordinate triplets. It only reads
// entries. Duplicates are summed in input order: the first is assigned
// and the rest are added in the order they appear, so the result does
// not depend on the host.
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

// OutOfCoreOptions is the chunk grid (Algorithm 3's row and column
// panel counts) of the gpu, gpu-sync, hybrid and multigpu engines; a
// zero grid is planned with Plan.
//
// A grid the planner chose (Plan, a zero grid, EstimateCost's
// write-back) runs in decreasing-flop order (Section IV-C). A grid the
// caller chose runs row-major on gpu and gpu-sync, and flop-sorted on
// hybrid and multigpu, whose split is defined on that order.
type OutOfCoreOptions struct {
	RowPanels, ColPanels int
	// planned marks a grid the planner chose; analysis is its symbolic
	// pass's row analysis (nil for a grid from the plan cache's memo) of
	// the operands whose arrays a and b pin.
	planned  bool
	analysis *speck.RowAnalysis
	a, b     csr.Arrays
}

// analysisOf returns the planner's row analysis when a and b are the
// operands it was computed from (an O(1) check), nil otherwise.
func (g OutOfCoreOptions) analysisOf(a, b *Matrix) *speck.RowAnalysis {
	if g.analysis == nil || !g.a.Of(a) || !g.b.Of(b) {
		return nil
	}
	return g.analysis
}

// Stats reports simulated-time statistics of an out-of-core run.
type Stats = core.Stats

// HostModel is the simulated multi-core CPU cost model.
type HostModel = hybrid.HostModel

// Identity is proof that a matrix's structure arrays were validated
// and hash to a structural fingerprint; see csr.Identity. The serving
// layer's matrix store and the plan cache mint them; RunOptions.AID and
// BID carry them to the engines.
type Identity = csr.Identity

// validateOperands rejects structurally corrupt matrices at the API
// boundary, where the cost (one O(nnz) scan per operand) is paid once
// rather than as a crash deep inside an engine. An operand its identity
// record is of was validated where the record was minted and is not
// scanned again, and B that is A (A², the paper's evaluation) is A's
// pass or record.
func validateOperands(a, b *Matrix, aid, bid *Identity, m *Collector) error {
	if !aid.Of(a) {
		m.Add(metrics.CounterIdentityPasses, 1)
		if err := a.Validate(); err != nil {
			return fmt.Errorf("spgemm: left operand invalid: %w", err)
		}
	}
	if b != a && !bid.Of(b) {
		m.Add(metrics.CounterIdentityPasses, 1)
		if err := b.Validate(); err != nil {
			return fmt.Errorf("spgemm: right operand invalid: %w", err)
		}
	}
	return nil
}

// Multiply computes A·B on the default engine: the cpu engine's
// product, with every thread of the host.
func Multiply(a, b *Matrix) (*Matrix, error) {
	c, _, err := registry["cpu"].Run(a, b, nil)
	return c, err
}

// Plan chooses a chunk grid for the out-of-core engine: the smallest
// grid whose double-buffered pipeline fits the device memory, assuming
// chunk outputs up to skew x the average (graph matrices concentrate
// output in hub chunks). It runs a symbolic pass to size the output
// exactly, and hands that pass's row analysis on in the returned
// options, so an engine run of the same operands does not repeat it.
func Plan(a, b *Matrix, cfg DeviceConfig) (OutOfCoreOptions, error) {
	return planExact(a, b, RunOptions{Device: &cfg})
}

// planExact is Plan for o's device, with o's metrics sink for the
// symbolic pass's wall span. The pass walks on Threads plus one
// workers, the host-lane budget of a one-GPU node (DESIGN.md §8) and so
// within every device run's.
func planExact(a, b *Matrix, o RunOptions) (OutOfCoreOptions, error) {
	if a.Cols != b.Rows {
		return OutOfCoreOptions{}, fmt.Errorf("spgemm: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	cfg := o.device()
	stop := o.Metrics.StartWall("host", "row analysis")
	ra := speck.Analyze(a, b, parallel.Workers(o.Threads)+1)
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
	opts := OutOfCoreOptions{planned: true, analysis: ra, a: csr.ArraysOf(a), b: csr.ArraysOf(b)}
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

// HybridStats reports a run of the one out-of-core driver on several
// workers (the hybrid and multigpu engines): Stats plus the split
// between the workers.
type HybridStats = multigpu.Stats

// SUMMAConfig is the simulated cluster of the distributed sparse-SUMMA
// engine; a run's threads, metrics and deadline are RunOptions'.
type SUMMAConfig = summa.Cluster

// SUMMAStats reports a distributed run.
type SUMMAStats = summa.Stats

// runAuto runs the auto engine on validated operands: it plans the
// chunk grid and refines it (up to a few retries) if a chunk turns out
// not to fit the device arena — the situation the paper notes when
// "certain chunks are extremely dense and require large allocation".
// Only a grid that does not fit (ErrOOM) is refined; any other failure
// — a deadline, a lost device — is the run's answer.
func runAuto(a, b *Matrix, o RunOptions) (*Matrix, Stats, error) {
	o.Core = OutOfCoreOptions{} // planned in coreOptions
	opts, err := o.coreOptions(a, b, true, false)
	if err != nil {
		return nil, Stats{}, err
	}
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		c, st, err := multigpu.Run(a, b, o.device(), multigpu.Options{Core: opts, Host: o.host()})
		if err == nil {
			return c, st.Stats, nil
		}
		if !errors.Is(err, ErrOOM) {
			return nil, Stats{}, err
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
