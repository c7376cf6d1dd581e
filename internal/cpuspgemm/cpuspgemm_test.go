package cpuspgemm

import (
	"fmt"
	"math/rand"
	"runtime"
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
				acc[i*b.Cols+int(bc[q])] += float64(av[p] * bv[q])
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

// TestShortArraysNeverMultiply hands every product entry an operand
// whose ColIDs, Data or RowOffsets is shorter than its shape says, with
// the cut entries still in capacity behind it. Each must return an error
// or panic on a bounds check, never read behind the length into a
// product.
func TestShortArraysNeverMultiply(t *testing.T) {
	entries := map[string]func(a, b *csr.Matrix) (*csr.Matrix, error){
		"Sequential": Sequential,
		"Multiply": func(a, b *csr.Matrix) (*csr.Matrix, error) {
			return Multiply(a, b, Options{Threads: 1})
		},
		"MultiplyPlanned": func(a, b *csr.Matrix) (*csr.Matrix, error) {
			c, _, err := MultiplyPlanned(a, b, Options{Threads: 1})
			return c, err
		},
	}
	cuts := map[string]func(m *csr.Matrix){
		"ColIDs":     func(m *csr.Matrix) { m.ColIDs = m.ColIDs[:len(m.ColIDs)-3] },
		"Data":       func(m *csr.Matrix) { m.Data = m.Data[:len(m.Data)-3] },
		"RowOffsets": func(m *csr.Matrix) { m.RowOffsets = m.RowOffsets[:len(m.RowOffsets)-3] },
	}
	for entry, run := range entries {
		for array, cut := range cuts {
			for _, operand := range []string{"A", "B"} {
				t.Run(entry+"/"+operand+"."+array, func(t *testing.T) {
					a, b := matgen.ER(256, 256, 0.05, 1), matgen.ER(256, 256, 0.05, 2)
					if operand == "A" {
						cut(a)
					} else {
						cut(b)
					}
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(runtime.Error); !ok {
								t.Fatalf("panic %v is not a runtime check", r)
							}
						}
					}()
					if c, err := run(a, b); err == nil {
						t.Fatalf("returned a %dx%d product with %d entries and no error", c.Rows, c.Cols, c.Nnz())
					}
				})
			}
		}
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
