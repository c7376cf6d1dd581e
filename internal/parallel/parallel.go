// Package parallel is the shared parallel runtime of every real
// wall-clock hot path in this repository (the multicore SpGEMM engines,
// chunk-result assembly, and the CSR utilities feeding them).
//
// The paper's CPU baseline distributes rows over threads with static
// flops-balanced contiguous ranges. On power-law inputs (the RMAT class
// of the synthetic suite) a static split leaves stragglers: the flop
// estimate is only a proxy for time, and a single skewed row pins one
// worker while the rest idle. Liu & Vinter's heterogeneous SpGEMM
// framework identifies exactly this load imbalance as the dominant
// cost on such inputs. The runtime here therefore schedules
// dynamically: chunk boundaries are precomputed from a per-item cost
// array (so one expensive row ends up alone in its chunk), and workers
// claim chunks off a shared atomic counter until none remain.
//
// The package also provides a block-parallel prefix sum, used wherever
// a CSR row-offset array is built from per-row counts.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// oversample is the number of chunks targeted per worker by the
// cost-based chunking. More chunks give the dynamic scheduler finer
// rebalancing at the price of more claim operations; 8 keeps the claim
// overhead (one atomic add per chunk) far below the per-chunk work for
// any realistic grain.
//
// Granularity heuristic, recorded for the dynamic-vs-static regression
// test (TestDynamicNeverLosesToStatic): with chunks ≈ workers ×
// oversample, a perfectly balanced input costs the dynamic scheduler
// only the oversample−1 extra claim operations per worker over a
// static split — nanoseconds against millisecond chunks — while a
// skewed input lets the last-finishing worker trail the rest by at
// most one chunk ≈ 1/(workers·oversample) of the total work instead of
// a whole static range. The regression the test guards against was
// never the claim cost: it was per-chunk accumulator churn (each chunk
// re-fetching and re-growing pooled accumulators sized to its own
// worst-case row). ForChunksW exists so workloads hoist that state to
// one set per *worker*, making per-chunk overhead claim-only.
const oversample = 8

// prefixSeqCutoff is the input size below which PrefixSum runs
// sequentially; a scan this short is cheaper than two goroutine fleets.
const prefixSeqCutoff = 1 << 14

// Workers normalizes a thread-count option: n > 0 returns n, anything
// else returns GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Run spawns workers goroutines, calls body(w) on each with w in
// [0, workers), and waits for all of them. workers <= 0 means
// GOMAXPROCS; workers == 1 calls body inline.
func Run(workers int, body func(w int)) {
	workers = Workers(workers)
	if workers == 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w)
		}(w)
	}
	wg.Wait()
}

// For runs fn over [0, n) in dynamically claimed chunks of grain
// iterations: workers pull the next chunk off a shared counter, so slow
// chunks never leave the remaining work stranded behind a static
// assignment. fn is called concurrently on disjoint ranges.
func For(workers, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers = Workers(workers)
	if chunks := (n + grain - 1) / grain; workers > chunks {
		workers = chunks
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	var next int64
	Run(workers, func(int) {
		for {
			hi := atomic.AddInt64(&next, int64(grain))
			lo := int(hi) - grain
			if lo >= n {
				return
			}
			if hi > int64(n) {
				hi = int64(n)
			}
			fn(lo, int(hi))
		}
	})
}

// ForChunks runs fn over each precomputed range [bounds[k],
// bounds[k+1]), with chunks claimed dynamically by workers goroutines.
// Empty ranges are skipped. Use CostBounds to derive bounds from a
// per-item cost array.
func ForChunks(workers int, bounds []int, fn func(lo, hi int)) {
	ForChunksW(workers, bounds, func(_, lo, hi int) { fn(lo, hi) })
}

// ForChunksW is ForChunks with the claiming worker's index passed to
// fn (w in [0, workers)). A given w is never active on two chunks at
// once, so callers can keep per-worker state — pooled accumulators,
// scratch arrays — fetched once per phase instead of once per chunk
// (a per-chunk re-fetch, and the re-Grow churn it causes, costs a
// balanced input more than dynamic claiming saves it).
func ForChunksW(workers int, bounds []int, fn func(w, lo, hi int)) {
	chunks := len(bounds) - 1
	if chunks <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > chunks {
		workers = chunks
	}
	if workers == 1 {
		for k := 0; k < chunks; k++ {
			if bounds[k] < bounds[k+1] {
				fn(0, bounds[k], bounds[k+1])
			}
		}
		return
	}
	var next int64
	Run(workers, func(w int) {
		for {
			k := int(atomic.AddInt64(&next, 1)) - 1
			if k >= chunks {
				return
			}
			if bounds[k] < bounds[k+1] {
				fn(w, bounds[k], bounds[k+1])
			}
		}
	})
}

// ListSchedule replays measured per-chunk durations through the
// dynamic claiming discipline with the given worker count and returns
// the makespan: chunks are claimed in order, each by the worker that
// frees up first — exactly what ForChunks does when every worker runs
// at the same speed. The ratio sum(durations)/makespan is the
// *scheduled speedup*: how much the chunking + dynamic claiming let N
// equal workers overlap the measured work. The CPU benchmark reports
// it next to wall-clock speedup so machines with fewer physical cores
// than the requested thread count (where wall-clock speedup is
// physically capped) still put the scheduler's real balance on record,
// from real measured chunk times.
func ListSchedule(durations []float64, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	free := make([]float64, workers)
	for _, d := range durations {
		// The earliest-free worker claims the next chunk.
		mi := 0
		for w := 1; w < workers; w++ {
			if free[w] < free[mi] {
				mi = w
			}
		}
		free[mi] += d
	}
	makespan := 0.0
	for _, f := range free {
		if f > makespan {
			makespan = f
		}
	}
	return makespan
}

// ForCost runs fn over [0, len(cost)) in dynamically claimed chunks
// whose boundaries are auto-tuned from the per-item cost array (e.g.
// per-row flops): each chunk carries roughly equal total cost.
func ForCost(workers int, cost []int64, fn func(lo, hi int)) {
	ForChunks(workers, CostBounds(cost, workers), fn)
}

// CostBounds cuts [0, len(cost)) into chunks of roughly equal total
// cost, targeting oversample chunks per worker so the dynamic scheduler
// can rebalance. An item whose cost alone exceeds the target gets its
// own chunk — the skewed-row case that breaks static partitions. With
// an all-zero cost array the split falls back to equal item counts.
func CostBounds(cost []int64, workers int) []int {
	n := len(cost)
	if n == 0 {
		return []int{0}
	}
	workers = Workers(workers)
	chunks := workers * oversample
	if chunks > n {
		chunks = n
	}
	var total int64
	for _, c := range cost {
		total += c
	}
	if total == 0 {
		return Blocks(n, chunks)
	}
	threshold := (total + int64(chunks) - 1) / int64(chunks)
	bounds := make([]int, 1, chunks+1)
	var acc int64
	for i := 0; i < n; i++ {
		// An item that alone meets the target gets its own chunk: close
		// the running chunk first so cheap predecessors don't ride along.
		if cost[i] >= threshold && acc > 0 {
			bounds = append(bounds, i)
			acc = 0
		}
		acc += cost[i]
		if acc >= threshold && i+1 < n {
			bounds = append(bounds, i+1)
			acc = 0
		}
	}
	return append(bounds, n)
}

// Grain picks a chunk size for For over n uniform-cost items: small
// enough that about oversample chunks per worker exist for dynamic
// rebalancing, large enough to amortize the claim.
func Grain(n, workers int) int {
	g := n / (Workers(workers) * oversample)
	if g < 1 {
		g = 1
	}
	return g
}

// Blocks returns parts+1 even boundaries over [0, extent).
func Blocks(extent, parts int) []int {
	if parts < 1 {
		parts = 1
	}
	b := make([]int, parts+1)
	for i := 0; i <= parts; i++ {
		b[i] = i * extent / parts
	}
	return b
}

// PrefixSum fills offsets (length len(counts)+1) with the exclusive
// prefix sum of counts: offsets[0] = 0 and offsets[i+1] = offsets[i] +
// counts[i] — the CSR row-offset construction. Large inputs use the
// three-phase block-parallel scan (block sums in parallel, sequential
// scan of the per-block totals, parallel fill).
func PrefixSum(workers int, offsets, counts []int64) {
	n := len(counts)
	if len(offsets) != n+1 {
		panic(fmt.Sprintf("parallel: PrefixSum offsets length %d, want %d", len(offsets), n+1))
	}
	workers = Workers(workers)
	if workers == 1 || n < prefixSeqCutoff {
		offsets[0] = 0
		for i, c := range counts {
			offsets[i+1] = offsets[i] + c
		}
		return
	}
	bounds := Blocks(n, workers)
	sums := make([]int64, workers)
	Run(workers, func(w int) {
		var s int64
		for i := bounds[w]; i < bounds[w+1]; i++ {
			s += counts[i]
		}
		sums[w] = s
	})
	starts := make([]int64, workers)
	var run int64
	for w := 0; w < workers; w++ {
		starts[w] = run
		run += sums[w]
	}
	offsets[0] = 0
	Run(workers, func(w int) {
		s := starts[w]
		for i := bounds[w]; i < bounds[w+1]; i++ {
			s += counts[i]
			offsets[i+1] = s
		}
	})
}
