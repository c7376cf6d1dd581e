package cpuspgemm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/csr"
	"repro/internal/matgen"
)

func randomMatrix(rng *rand.Rand, rows, cols int, density float64) *csr.Matrix {
	var es []csr.Entry
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				es = append(es, csr.Entry{Row: int32(r), Col: int32(c), Val: rng.NormFloat64()})
			}
		}
	}
	m, err := csr.FromEntries(rows, cols, es)
	if err != nil {
		panic(err)
	}
	return m
}

// denseMul computes A·B via dense arithmetic for ground truth.
func denseMul(t *testing.T, a, b *csr.Matrix) *csr.Matrix {
	t.Helper()
	acc := make([]float64, a.Rows*b.Cols)
	for i := 0; i < a.Rows; i++ {
		ac, av := a.Row(i)
		for p := range ac {
			bc, bv := b.Row(int(ac[p]))
			for q := range bc {
				acc[i*b.Cols+int(bc[q])] += av[p] * bv[q]
			}
		}
	}
	var es []csr.Entry
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			if acc[i*b.Cols+j] != 0 {
				es = append(es, csr.Entry{Row: int32(i), Col: int32(j), Val: acc[i*b.Cols+j]})
			}
		}
	}
	m, err := csr.FromEntries(a.Rows, b.Cols, es)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSequentialAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		a := randomMatrix(rng, 1+rng.Intn(30), 1+rng.Intn(20), 0.2)
		b := randomMatrix(rng, a.Cols, 1+rng.Intn(25), 0.2)
		got, err := Sequential(a, b)
		if err != nil {
			t.Fatalf("Sequential: %v", err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("product invalid: %v", err)
		}
		want := denseMul(t, a, b)
		// Note: structural zeros that cancel exactly would differ, but
		// NormFloat64 values never cancel to exactly zero in practice.
		if !csr.Equal(got, want, 1e-12) {
			t.Fatalf("trial %d: %s", trial, csr.Diff(got, want, 1e-12))
		}
	}
}

func TestMultiplyMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, threads := range []int{1, 2, 4, 7} {
		for trial := 0; trial < 5; trial++ {
			a := randomMatrix(rng, 40+rng.Intn(30), 35, 0.15)
			b := randomMatrix(rng, 35, 45, 0.15)
			want, err := Sequential(a, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Multiply(a, b, Options{Threads: threads})
			if err != nil {
				t.Fatalf("threads=%d: %v", threads, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("threads=%d: invalid: %v", threads, err)
			}
			if !csr.Equal(got, want, 1e-12) {
				t.Fatalf("threads=%d: %s", threads, csr.Diff(got, want, 1e-12))
			}
		}
	}
}

func TestMultiplyRMATSquare(t *testing.T) {
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 3)
	want, err := Sequential(a, a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Multiply(a, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !csr.Equal(got, want, 1e-9) {
		t.Fatal(csr.Diff(got, want, 1e-9))
	}
}

func TestMultiplyDimensionMismatch(t *testing.T) {
	a := csr.New(3, 4)
	b := csr.New(5, 3)
	if _, err := Multiply(a, b, Options{}); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
	if _, err := Sequential(a, b); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestMultiplyEmptyInputs(t *testing.T) {
	a := csr.New(4, 4)
	c, err := Multiply(a, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Nnz() != 0 || c.Rows != 4 || c.Cols != 4 {
		t.Fatalf("empty product wrong: nnz=%d dims %dx%d", c.Nnz(), c.Rows, c.Cols)
	}
}

func TestMultiplyMoreThreadsThanRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 3, 3, 0.5)
	got, err := Multiply(a, a, Options{Threads: 16})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Sequential(a, a)
	if !csr.Equal(got, want, 1e-12) {
		t.Fatal("mismatch with more threads than rows")
	}
}

func TestMultiplyIdentity(t *testing.T) {
	n := 60
	var es []csr.Entry
	for i := 0; i < n; i++ {
		es = append(es, csr.Entry{Row: int32(i), Col: int32(i), Val: 1})
	}
	id, _ := csr.FromEntries(n, n, es)
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, n, n, 0.1)
	c, err := Multiply(a, id, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !csr.Equal(c, a, 0) {
		t.Fatalf("A·I != A: %s", csr.Diff(c, a, 0))
	}
	c, err = Multiply(id, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !csr.Equal(c, a, 0) {
		t.Fatal("I·A != A")
	}
}

func TestBalanceRows(t *testing.T) {
	// Uniform flops: boundaries should split evenly.
	uniform := make([]int64, 100)
	for i := range uniform {
		uniform[i] = 10
	}
	b := BalanceRows(uniform, 4)
	if len(b) != 5 || b[0] != 0 || b[4] != 100 {
		t.Fatalf("bounds = %v", b)
	}
	for w := 0; w < 4; w++ {
		if sz := b[w+1] - b[w]; sz < 20 || sz > 30 {
			t.Fatalf("uneven uniform split: %v", b)
		}
	}

	// One huge row: it should get its own part (others may be empty).
	skew := make([]int64, 10)
	skew[0] = 1000
	bounds := BalanceRows(skew, 2)
	if bounds[1] != 1 {
		t.Fatalf("skewed bounds = %v, want first part exactly the heavy row", bounds)
	}

	// Monotone, covering, correct endpoints on random input.
	rng := rand.New(rand.NewSource(6))
	rf := make([]int64, 57)
	for i := range rf {
		rf[i] = int64(rng.Intn(100))
	}
	for parts := 1; parts <= 8; parts++ {
		bb := BalanceRows(rf, parts)
		if bb[0] != 0 || bb[parts] != len(rf) {
			t.Fatalf("parts=%d endpoints wrong: %v", parts, bb)
		}
		for i := 0; i < parts; i++ {
			if bb[i] > bb[i+1] {
				t.Fatalf("parts=%d not monotone: %v", parts, bb)
			}
		}
	}
}

func TestBalanceRowsZeroFlops(t *testing.T) {
	b := BalanceRows(make([]int64, 10), 3)
	if b[0] != 0 || b[3] != 10 {
		t.Fatalf("zero-flop bounds = %v", b)
	}
	// All-zero flops must fall back to an even split, not leave every
	// row in one part.
	for w := 0; w < 3; w++ {
		if sz := b[w+1] - b[w]; sz < 3 || sz > 4 {
			t.Fatalf("zero-flop split uneven: %v", b)
		}
	}
}

func TestBalanceRowsEdgeCases(t *testing.T) {
	// More parts than rows: boundaries must stay monotone and cover.
	rf := []int64{5, 1, 9}
	b := BalanceRows(rf, 8)
	if len(b) != 9 || b[0] != 0 || b[8] != 3 {
		t.Fatalf("parts>rows endpoints wrong: %v", b)
	}
	for i := 0; i < 8; i++ {
		if b[i] > b[i+1] {
			t.Fatalf("parts>rows not monotone: %v", b)
		}
	}

	// Empty matrix (no rows).
	b = BalanceRows(nil, 4)
	if len(b) != 5 || b[0] != 0 || b[4] != 0 {
		t.Fatalf("empty bounds = %v", b)
	}

	// parts < 1 is treated as one part.
	b = BalanceRows([]int64{1, 2, 3}, 0)
	if len(b) != 2 || b[0] != 0 || b[1] != 3 {
		t.Fatalf("parts=0 bounds = %v", b)
	}

	// Zero flops with more parts than rows.
	b = BalanceRows(make([]int64, 2), 5)
	if len(b) != 6 || b[0] != 0 || b[5] != 2 {
		t.Fatalf("zero-flop parts>rows bounds = %v", b)
	}
	for i := 0; i < 5; i++ {
		if b[i] > b[i+1] {
			t.Fatalf("zero-flop parts>rows not monotone: %v", b)
		}
	}
}

// TestMultiplyReusesPooledAccumulators runs repeated multiplications
// to exercise the cross-call accumulator reuse path under the race
// detector.
func TestMultiplyReusesPooledAccumulators(t *testing.T) {
	a := matgen.RMAT(8, 8, 0.57, 0.19, 0.19, 11)
	want, err := Sequential(a, a)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		got, err := Multiply(a, a, Options{Threads: 3})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !csr.Equal(got, want, 1e-9) {
			t.Fatalf("round %d: %s", round, csr.Diff(got, want, 1e-9))
		}
	}
}

func BenchmarkMultiplyRMAT(b *testing.B) {
	a := matgen.RMAT(11, 8, 0.57, 0.19, 0.19, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Multiply(a, a, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiplyBand(b *testing.B) {
	a := matgen.Band(4000, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Multiply(a, a, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiplyThreadScaling measures the real multi-core engine's
// wall-time scaling with the worker count.
func BenchmarkMultiplyThreadScaling(b *testing.B) {
	a := matgen.RMAT(12, 8, 0.57, 0.19, 0.19, 3)
	for _, threads := range []int{1, 2, 4, 8} {
		threads := threads
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Multiply(a, a, Options{Threads: threads}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
