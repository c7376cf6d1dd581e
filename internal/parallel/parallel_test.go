package parallel

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// coverageCheck asserts that the ranges passed to a loop body cover
// [0, n) exactly once.
type coverageCheck struct {
	mu   sync.Mutex
	seen []int
}

func (c *coverageCheck) visit(lo, hi int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := lo; i < hi; i++ {
		c.seen[i]++
	}
}

func (c *coverageCheck) assertOnce(t *testing.T, n int) {
	t.Helper()
	if len(c.seen) != n {
		t.Fatalf("seen length %d, want %d", len(c.seen), n)
	}
	for i, v := range c.seen {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("Workers(3) != 3")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Fatal("Workers(0) != GOMAXPROCS")
	}
	if Workers(-2) != runtime.GOMAXPROCS(0) {
		t.Fatal("Workers(-2) != GOMAXPROCS")
	}
}

func TestRunCallsEveryWorker(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		var called int64
		Run(workers, func(w int) {
			if w < 0 || w >= workers {
				t.Errorf("worker id %d outside [0,%d)", w, workers)
			}
			atomic.AddInt64(&called, 1)
		})
		if called != int64(workers) {
			t.Fatalf("workers=%d: %d calls", workers, called)
		}
	}
}

func TestForCoversExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n, grain int }{
		{1, 100, 7},
		{4, 100, 7},
		{4, 1, 16},
		{8, 1000, 1},
		{3, 17, 100}, // grain larger than n
		{4, 0, 4},    // empty
	} {
		c := &coverageCheck{seen: make([]int, tc.n)}
		For(tc.workers, tc.n, tc.grain, c.visit)
		c.assertOnce(t, tc.n)
	}
}

func TestForChunksCoversExactlyOnce(t *testing.T) {
	for _, bounds := range [][]int{
		{0, 5, 5, 12, 40}, // includes an empty chunk
		{0, 100},
		{0},
		{0, 1, 2, 3, 4, 5},
	} {
		n := bounds[len(bounds)-1]
		for _, workers := range []int{1, 4} {
			c := &coverageCheck{seen: make([]int, n)}
			ForChunks(workers, bounds, c.visit)
			c.assertOnce(t, n)
		}
	}
}

func TestForCostCoversExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cost := make([]int64, 500)
	for i := range cost {
		cost[i] = int64(rng.Intn(50))
	}
	cost[17] = 1 << 40 // one pathologically expensive row
	c := &coverageCheck{seen: make([]int, len(cost))}
	ForCost(4, cost, c.visit)
	c.assertOnce(t, len(cost))
}

func TestCostBoundsProperties(t *testing.T) {
	check := func(bounds []int, n int) {
		t.Helper()
		if bounds[0] != 0 || bounds[len(bounds)-1] != n {
			t.Fatalf("endpoints wrong: %v (n=%d)", bounds, n)
		}
		for i := 0; i+1 < len(bounds); i++ {
			if bounds[i] >= bounds[i+1] {
				t.Fatalf("bounds not strictly increasing: %v", bounds)
			}
		}
	}

	// Uniform cost: all chunks near-equal.
	uniform := make([]int64, 1000)
	for i := range uniform {
		uniform[i] = 3
	}
	b := CostBounds(uniform, 4)
	check(b, 1000)
	if len(b) < 4 {
		t.Fatalf("uniform cost produced too few chunks: %v", b)
	}

	// A single dominant item must sit alone in its chunk.
	skew := make([]int64, 100)
	for i := range skew {
		skew[i] = 1
	}
	skew[50] = 1 << 30
	b = CostBounds(skew, 4)
	check(b, 100)
	alone := false
	for i := 0; i+1 < len(b); i++ {
		if b[i] == 50 && b[i+1] == 51 {
			alone = true
		}
	}
	if !alone {
		t.Fatalf("dominant item not isolated: %v", b)
	}

	// All-zero cost falls back to an even split.
	b = CostBounds(make([]int64, 64), 4)
	check(b, 64)

	// Empty input.
	b = CostBounds(nil, 4)
	if len(b) != 1 || b[0] != 0 {
		t.Fatalf("empty cost bounds = %v", b)
	}
}

func TestBlocks(t *testing.T) {
	b := Blocks(10, 3)
	if b[0] != 0 || b[3] != 10 {
		t.Fatalf("Blocks endpoints: %v", b)
	}
	for i := 0; i < 3; i++ {
		if b[i] > b[i+1] {
			t.Fatalf("Blocks not monotone: %v", b)
		}
	}
	if b := Blocks(5, 0); len(b) != 2 || b[1] != 5 {
		t.Fatalf("Blocks with parts=0: %v", b)
	}
}

func TestPrefixSumMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 100, prefixSeqCutoff + 1000} {
		counts := make([]int64, n)
		for i := range counts {
			counts[i] = int64(rng.Intn(1000))
		}
		want := make([]int64, n+1)
		for i, c := range counts {
			want[i+1] = want[i] + c
		}
		for _, workers := range []int{1, 4} {
			got := make([]int64, n+1)
			PrefixSum(workers, got, counts)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d workers=%d: offsets[%d] = %d, want %d", n, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestPrefixSumBadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad offsets length")
		}
	}()
	PrefixSum(1, make([]int64, 3), make([]int64, 3))
}

func TestForChunksWCoversExactlyOnceWithValidWorkers(t *testing.T) {
	const n = 1000
	bounds := CostBounds(make([]int64, n), 4) // zero costs: even split
	hits := make([]int32, n)
	var badWorker atomic.Int32
	ForChunksW(4, bounds, func(w, lo, hi int) {
		if w < 0 || w >= 4 {
			badWorker.Store(int32(w + 1))
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	if bw := badWorker.Load(); bw != 0 {
		t.Fatalf("worker index out of range: %d", bw-1)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("item %d hit %d times", i, h)
		}
	}
}

// TestForChunksWPerWorkerExclusive checks the contract callers rely on
// for per-worker accumulator kits: a given worker index is never active
// on two chunks at once.
func TestForChunksWPerWorkerExclusive(t *testing.T) {
	bounds := Blocks(512, 64)
	var active [8]atomic.Int32
	var violated atomic.Bool
	ForChunksW(8, bounds, func(w, lo, hi int) {
		if active[w].Add(1) != 1 {
			violated.Store(true)
		}
		for i := 0; i < 100; i++ {
			_ = i * i
		}
		active[w].Add(-1)
	})
	if violated.Load() {
		t.Fatal("same worker index active on two chunks concurrently")
	}
}

func TestListSchedule(t *testing.T) {
	// Greedy earliest-free replay: w0 takes 4; w1 takes 2, 2; the final
	// 2 goes to whichever freed first (w1 at t=4 ties w0; w0 wins the
	// tie by index) -> makespan 6.
	if got := ListSchedule([]float64{4, 2, 2, 2}, 2); got != 6 {
		t.Fatalf("makespan = %v, want 6", got)
	}
	// One worker: makespan is the sum.
	if got := ListSchedule([]float64{1, 2, 3}, 1); got != 6 {
		t.Fatalf("1-worker makespan = %v, want 6", got)
	}
	// More workers than chunks: makespan is the max.
	if got := ListSchedule([]float64{1, 5, 2}, 8); got != 5 {
		t.Fatalf("8-worker makespan = %v, want 5", got)
	}
	// Degenerate inputs.
	if got := ListSchedule(nil, 4); got != 0 {
		t.Fatalf("empty makespan = %v, want 0", got)
	}
	if got := ListSchedule([]float64{3}, 0); got != 3 {
		t.Fatalf("0-worker makespan = %v, want 3", got)
	}
}

// TestListScheduleBalancedNearPerfect: on CostBounds-shaped chunk lists
// (many similar chunks), the scheduled speedup must approach the worker
// count — the property cpuspgemm's TestAdaptiveChunkLogAndWorkers
// floors on measured chunk durations.
func TestListScheduleBalancedNearPerfect(t *testing.T) {
	durations := make([]float64, 64)
	for i := range durations {
		durations[i] = 1 + float64(i%5)/100
	}
	var sum float64
	for _, d := range durations {
		sum += d
	}
	for _, w := range []int{2, 4, 8} {
		speedup := sum / ListSchedule(durations, w)
		if speedup < 0.9*float64(w) {
			t.Fatalf("scheduled speedup at %d workers = %.2f, want >= %.2f", w, speedup, 0.9*float64(w))
		}
	}
}
