// Package hybrid implements the paper's CPU-GPU hybrid SpGEMM engine
// (Section III-C, Algorithm 4).
//
// The flop count of every chunk is computed up front; chunks are sorted
// by decreasing flops; the most expensive chunks — at least Ratio of
// the total flops, Ratio = S/(S+1) for an expected GPU/CPU speedup S —
// go to the GPU, the rest to the CPU. A GPU worker then runs the
// asynchronous out-of-core pipeline over its chunks while a CPU worker
// (the multi-core hash SpGEMM of Nagasaka et al.) processes the
// remainder concurrently; the run ends when both finish.
package hybrid

import (
	"sort"

	"repro/internal/core"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/speck"
)

// DefaultRatio is the share of total flops assigned to the GPU,
// computed as S/(S+1) for the expected GPU/CPU speedup S (Section
// III-C). The paper's hardware gives S about 1.9 and a 65% ratio; the
// calibrated simulation sits at S about 2.1, giving 68%. The paper
// notes the ratio "might change if we use another GPU or CPU, but we
// should still be able to use a [fixed] ratio" — this constant is that
// fixed ratio for the simulated node.
const DefaultRatio = 0.68

// HostModel is the cost model of the multi-core CPU worker in
// simulated time. CPU SpGEMM time decomposes into an arithmetic term
// (flops at FlopRate) and an output-write term (the product's bytes at
// OutputBandwidth); the second term is why measured CPU GFLOPS track
// the compression ratio, on the paper's Xeon as in this model. Values
// are calibrated so the simulated multi-core implementation sits 2-3x
// below the out-of-core GPU across the suite, as the paper measures
// for its 28-thread Xeon E5-2680.
type HostModel struct {
	// HashRate and DenseRate are effective multiply-add throughputs in
	// flops/s for sparse (hash-accumulated) and dense output rows.
	HashRate, DenseRate float64
	// OutputBandwidth is the effective rate at which the CPU engine
	// materializes the output CSR arrays, bytes/s.
	OutputBandwidth float64
	// Threads is the worker thread count of the real CPU
	// implementation (the simulated duration does not depend on it,
	// but the actual computation uses it).
	Threads int
}

// DefaultHostModel returns the calibrated Xeon E5-2680 v2 model.
func DefaultHostModel() HostModel {
	return HostModel{HashRate: 0.62e9, DenseRate: 1.6e9, OutputBandwidth: 5.0e9, Threads: 0}
}

// ChunkSeconds converts a chunk's work into simulated CPU seconds.
func (h HostModel) ChunkSeconds(hashFlops, denseFlops, outputBytes int64) float64 {
	var s float64
	if h.HashRate > 0 {
		s += float64(hashFlops) / h.HashRate
	}
	if h.DenseRate > 0 {
		s += float64(denseFlops) / h.DenseRate
	}
	if h.OutputBandwidth > 0 {
		s += float64(outputBytes) / h.OutputBandwidth
	}
	return s
}

// WholeSeconds prices the whole product A·B on the CPU worker from its
// row analysis; the hybrid engines prorate it over chunks by flops.
func (h HostModel) WholeSeconds(ra *speck.RowAnalysis) float64 {
	return h.ChunkSeconds(ra.HashFlops, ra.DenseFlops, ra.OutNnz()*12+int64(len(ra.RowOffsets))*8)
}

// Options configures a hybrid run.
type Options struct {
	// Core configures the chunk grid and the GPU pipeline. Async
	// defaults to true for the hybrid engine.
	Core core.Options
	// Ratio is the GPU flop share; 0 means DefaultRatio.
	Ratio float64
	// Reorder assigns the highest-flop chunks to the GPU and processes
	// them in decreasing order (the paper's design). When false, the
	// "default implementation" of Figure 9 is used: chunks are taken
	// in row-major order until the ratio is met.
	Reorder bool
	// Host is the CPU worker model; zero value means DefaultHostModel.
	Host HostModel
	// ForceGPUChunks, when positive, overrides Ratio and assigns
	// exactly this many chunks (in schedule order) to the GPU. The
	// exhaustive search behind the paper's Table III uses it.
	ForceGPUChunks int
	// Metrics is an optional observability sink; it receives the
	// combined GPU+CPU timeline and the split counters. It also
	// propagates to the underlying core engine and its CPU worker.
	Metrics *metrics.Collector
}

// Stats extends the core stats with the split between devices.
type Stats struct {
	core.Stats
	// GPUChunks and CPUChunks count the chunks each device processed.
	GPUChunks, CPUChunks int
	// GPUFlops and CPUFlops split the flops between devices.
	GPUFlops, CPUFlops int64
	// GPUSec and CPUSec are each worker's busy makespan.
	GPUSec, CPUSec float64
	// Ratio is the flop share requested for the GPU.
	Ratio float64
	// FallbackChunks counts GPU chunks the CPU worker absorbed after
	// their device-side retries were exhausted (graceful degradation).
	FallbackChunks int
}

// Counters extends the core counters with the device split, keeping
// Stats a metrics.Report (Seconds, FlopCount, ... promote from the
// embedded core.Stats).
func (s Stats) Counters() map[string]int64 {
	out := s.Stats.Counters()
	out["gpu_chunks"] = int64(s.GPUChunks)
	out["cpu_chunks"] = int64(s.CPUChunks)
	out["gpu_flops"] = s.GPUFlops
	out["cpu_flops"] = s.CPUFlops
	out[metrics.CounterFallbacks] = int64(s.FallbackChunks)
	return out
}

// Split computes Algorithm 4's chunk assignment: it returns the chunk
// ids for the GPU and the CPU. When reorder is set the ids are sorted
// by decreasing flops before the prefix is taken; otherwise the
// original order is kept ("default implementation").
func Split(flops []int64, ratio float64, reorder bool) (gpu, cpu []int) {
	ids := make([]int, len(flops))
	for i := range ids {
		ids[i] = i
	}
	if reorder {
		sort.SliceStable(ids, func(i, j int) bool { return flops[ids[i]] > flops[ids[j]] })
	}
	var total int64
	for _, f := range flops {
		total += f
	}
	if total == 0 {
		return ids, nil
	}
	var acc int64
	numGPU := len(ids)
	for i, id := range ids {
		acc += flops[id]
		if float64(acc)/float64(total) >= ratio {
			numGPU = i + 1
			break
		}
	}
	return ids[:numGPU], ids[numGPU:]
}

// SplitCount assigns exactly numGPU chunks (in schedule order) to the
// GPU, used by the exhaustive search of Table III.
func SplitCount(flops []int64, numGPU int, reorder bool) (gpu, cpu []int) {
	ids := make([]int, len(flops))
	for i := range ids {
		ids[i] = i
	}
	if reorder {
		sort.SliceStable(ids, func(i, j int) bool { return flops[ids[i]] > flops[ids[j]] })
	}
	if numGPU > len(ids) {
		numGPU = len(ids)
	}
	return ids[:numGPU], ids[numGPU:]
}

// Run multiplies A·B with the hybrid engine on a fresh simulated
// device and host, returning the exact product and statistics.
func Run(a, b *csr.Matrix, cfg gpusim.DeviceConfig, opts Options) (*csr.Matrix, Stats, error) {
	if opts.Ratio <= 0 {
		opts.Ratio = DefaultRatio
	}
	if opts.Host == (HostModel{}) {
		opts.Host = DefaultHostModel()
	}
	opts.Core.Async = true
	// The GPU worker's own chunk list is already ordered by the split;
	// core-level reordering must not permute it again.
	opts.Core.Reorder = false
	// The engine records host-side wall phases (partition, structure)
	// into the same collector; counters and the timeline are published
	// once, below, after the run completes.
	opts.Core.Metrics = opts.Metrics

	env := sim.NewEnv()
	dev := gpusim.NewDevice(env, cfg)
	eng, err := core.NewEngine(dev, a, b, opts.Core)
	if err != nil {
		return nil, Stats{}, err
	}
	// Release device allocations and publish the leak-audit counter on
	// every exit path, including deadline aborts.
	defer eng.Teardown()

	flops := eng.ChunkFlops()
	var gpuIDs, cpuIDs []int
	if n := opts.ForceGPUChunks; n > 0 {
		gpuIDs, cpuIDs = SplitCount(flops, n, opts.Reorder)
	} else {
		gpuIDs, cpuIDs = Split(flops, opts.Ratio, opts.Reorder)
	}

	st := Stats{Ratio: opts.Ratio, GPUChunks: len(gpuIDs), CPUChunks: len(cpuIDs)}
	for _, id := range gpuIDs {
		st.GPUFlops += flops[id]
	}
	for _, id := range cpuIDs {
		st.CPUFlops += flops[id]
	}

	// The CPU worker is priced from the whole matrix's row analysis;
	// Engine.HostChunk prorates it over the chunks it computes.
	wholeSec := opts.Host.WholeSeconds(eng.RowAnalysis())

	gpuDone := &sim.Signal{}
	env.Spawn("gpu", func(p *sim.Proc) {
		eng.ProcessChunks(p, gpuIDs)
		st.GPUSec = sim.SecondsAt(env.Now())
		gpuDone.Fire(p)
	})
	env.Spawn("cpu", func(p *sim.Proc) {
		for _, id := range cpuIDs {
			if eng.HostChunk(p, id, "chunk", wholeSec, opts.Host.Threads) != nil {
				return // recorded on the engine
			}
		}
		st.CPUSec = sim.SecondsAt(env.Now())

		// Graceful degradation: chunks the GPU abandoned (retries
		// exhausted, arena misfits, a lost device) drain to this
		// worker once the GPU pipeline winds down, instead of failing
		// the run. The same exact arithmetic runs either way, so the
		// product is unchanged — only the simulated schedule pays.
		p.Await(gpuDone)
		orphans := make([]int, 0, len(eng.Failed()))
		for id, ferr := range eng.Failed() {
			if core.IsRecoverable(ferr) {
				orphans = append(orphans, id)
			}
		}
		if len(orphans) == 0 {
			return
		}
		sort.Ints(orphans)
		for _, id := range orphans {
			if eng.HostChunk(p, id, "fallback chunk", wholeSec, opts.Host.Threads) != nil {
				return // recorded on the engine
			}
			eng.ClearFailed(id)
			st.FallbackChunks++
		}
		st.CPUSec = sim.SecondsAt(env.Now())
	})
	if err := env.Run(); err != nil {
		return nil, Stats{}, err
	}
	if eng.Err() != nil {
		return nil, Stats{}, eng.Err()
	}
	if err := eng.FailedError(); err != nil {
		return nil, Stats{}, err
	}
	c, err := eng.Assemble()
	if err != nil {
		return nil, Stats{}, err
	}
	st.Stats = eng.StatsFor(env, c)
	eng.PublishMetrics(env, st)
	return c, st, nil
}

// RunCPUOnly multiplies A·B entirely on the simulated multi-core CPU
// (the paper's baseline in Figure 7): real computation via the
// Nagasaka-style hash SpGEMM, simulated duration from the host model.
func RunCPUOnly(a, b *csr.Matrix, cfg gpusim.DeviceConfig, host HostModel) (*csr.Matrix, Stats, error) {
	if host == (HostModel{}) {
		host = DefaultHostModel()
	}
	c, err := cpuspgemm.Multiply(a, b, cpuspgemm.Options{Threads: host.Threads})
	if err != nil {
		return nil, Stats{}, err
	}
	// The product is in hand, so its row offsets are the exact symbolic
	// result: no second pass.
	hashF, denseF := speck.SplitFlops(csr.RowFlops(a, b), c.RowOffsets)
	flops := hashF + denseF
	total := host.ChunkSeconds(hashF, denseF, c.Bytes())
	st := Stats{
		CPUChunks: 1,
		CPUFlops:  flops,
		CPUSec:    total,
	}
	st.Stats = core.Stats{
		TotalSec: total,
		Flops:    flops,
		NnzC:     c.Nnz(),
		Chunks:   1,
	}
	if total > 0 {
		st.Stats.GFLOPS = float64(flops) / total / 1e9
	}
	return c, st, nil
}
