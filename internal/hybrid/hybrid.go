// Package hybrid holds the policy of the paper's CPU-GPU split (Section
// III-C, Algorithm 4) — the library the one out-of-core driver
// (internal/multigpu) calls.
//
// The flop count of every chunk is computed up front; chunks are sorted
// by decreasing flops; the most expensive chunks — at least Ratio of
// the total flops, Ratio = S/(S+1) for an expected GPU/CPU speedup S —
// go to the GPU, the rest to the CPU (Split). The CPU worker (the
// multi-core hash SpGEMM of Nagasaka et al.) is priced in simulated time
// by HostModel; RunCPUOnly is the paper's CPU baseline.
package hybrid

import (
	"sort"

	"repro/internal/core"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/gpusim"
	"repro/internal/metrics"
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

// schedule returns the chunk ids in schedule order: by decreasing flops
// when reorder is set (the paper's design), row-major otherwise (the
// "default implementation" of Figure 9).
func schedule(flops []int64, reorder bool) []int {
	ids := make([]int, len(flops))
	for i := range ids {
		ids[i] = i
	}
	if reorder {
		sort.SliceStable(ids, func(i, j int) bool { return flops[ids[i]] > flops[ids[j]] })
	}
	return ids
}

// Split computes Algorithm 4's chunk assignment: it returns the chunk
// ids for the GPU — the shortest prefix of the schedule order holding at
// least ratio of the flops — and the CPU.
func Split(flops []int64, ratio float64, reorder bool) (gpu, cpu []int) {
	ids := schedule(flops, reorder)
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
	ids := schedule(flops, reorder)
	if numGPU > len(ids) {
		numGPU = len(ids)
	}
	return ids[:numGPU], ids[numGPU:]
}

// RunCPUOnly multiplies A·B entirely on the simulated multi-core CPU
// (the paper's baseline in Figure 7): real computation via the
// Nagasaka-style hash SpGEMM, simulated duration from the host model.
func RunCPUOnly(a, b *csr.Matrix, cfg gpusim.DeviceConfig, host HostModel) (*csr.Matrix, core.Stats, error) {
	if host == (HostModel{}) {
		host = DefaultHostModel()
	}
	c, err := cpuspgemm.Multiply(a, b, cpuspgemm.Options{Threads: host.Threads})
	if err != nil {
		return nil, core.Stats{}, err
	}
	// The product is in hand, so its row offsets are the exact symbolic
	// result: no second pass.
	hashF, denseF := speck.SplitFlops(csr.RowFlops(a, b), c.RowOffsets)
	total := host.ChunkSeconds(hashF, denseF, c.Bytes())
	return c, core.Stats{Totals: metrics.NewTotals(total, hashF+denseF, c.Nnz()), Chunks: 1}, nil
}
