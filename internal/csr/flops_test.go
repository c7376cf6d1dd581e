package csr

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/parallel"
)

// denseMul multiplies via dense arithmetic for cross-checking flop and
// bound computations on small matrices.
func denseFlops(a, b *Matrix) int64 {
	var total int64
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.Row(i)
		for _, k := range cols {
			total += 2 * b.RowNnz(int(k))
		}
	}
	return total
}

func TestFlopsAgainstDirectCount(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		a := randomMatrix(rng, 20, 15, 0.2)
		b := randomMatrix(rng, 15, 25, 0.2)
		if got, want := Flops(a, b), denseFlops(a, b); got != want {
			t.Fatalf("Flops = %d, want %d", got, want)
		}
	}
}

func TestRowFlopsSumsToFlops(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(rng, 30, 30, 0.15)
	b := randomMatrix(rng, 30, 30, 0.15)
	rf := RowFlops(a, b, 0)
	var sum int64
	for _, f := range rf {
		sum += f
	}
	if sum != Flops(a, b) {
		t.Fatalf("sum(RowFlops) = %d, Flops = %d", sum, Flops(a, b))
	}
}

func TestRowUpperBoundsAreFlopsHalved(t *testing.T) {
	// By definition the worst-case row nnz equals the number of
	// multiplications, which is flops/2.
	rng := rand.New(rand.NewSource(12))
	a := randomMatrix(rng, 25, 25, 0.2)
	b := randomMatrix(rng, 25, 25, 0.2)
	ub := RowUpperBounds(a, b)
	rf := RowFlops(a, b, 0)
	for i := range ub {
		if ub[i]*2 != rf[i] {
			t.Fatalf("row %d: upper bound %d, flops %d", i, ub[i], rf[i])
		}
	}
}

func TestFlopsIdentity(t *testing.T) {
	// A * I: every nonzero of A touches exactly one row of I with one
	// element, so flops = 2*nnz(A).
	n := 12
	var es []Entry
	for i := 0; i < n; i++ {
		es = append(es, Entry{int32(i), int32(i), 1})
	}
	id, _ := FromEntries(n, n, es)
	rng := rand.New(rand.NewSource(13))
	a := randomMatrix(rng, n, n, 0.3)
	if got, want := Flops(a, id), 2*a.Nnz(); got != want {
		t.Fatalf("Flops(A,I) = %d, want %d", got, want)
	}
}

// TestRowFlopsHonoursWorkers: the scan runs on the workers it is given —
// one is its caller's goroutine, on a host of four processors — and its
// counts do not depend on how many.
func TestRowFlopsHonoursWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(11))
	a, b := randomMatrix(rng, 600, 500, 0.02), randomMatrix(rng, 500, 700, 0.02)
	before := parallel.Spawned()
	one := RowFlops(a, b, 1)
	if n := parallel.Spawned() - before; n != 0 {
		t.Fatalf("RowFlops on one worker started %d goroutines", n)
	}
	for _, workers := range []int{0, 2, 3} {
		if got := RowFlops(a, b, workers); !slices.Equal(got, one) {
			t.Fatalf("%d workers: the counts differ from one worker's", workers)
		}
	}
}
