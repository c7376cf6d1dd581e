package cpuspgemm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/csr"
	"repro/internal/matgen"
)

// freshValues returns a copy of m sharing the sparsity pattern with
// new deterministic values, the iterative-workload shape.
func freshValues(m *csr.Matrix, seed int64) *csr.Matrix {
	rng := rand.New(rand.NewSource(seed))
	out := &csr.Matrix{
		Rows:       m.Rows,
		Cols:       m.Cols,
		RowOffsets: m.RowOffsets,
		ColIDs:     m.ColIDs,
		Data:       make([]float64, len(m.Data)),
	}
	for i := range out.Data {
		out.Data[i] = rng.NormFloat64()
	}
	return out
}

func assertBitIdentical(t *testing.T, cold, warm *csr.Matrix) {
	t.Helper()
	if cold.Rows != warm.Rows || cold.Cols != warm.Cols {
		t.Fatalf("dims %dx%d != %dx%d", cold.Rows, cold.Cols, warm.Rows, warm.Cols)
	}
	if len(cold.ColIDs) != len(warm.ColIDs) {
		t.Fatalf("nnz %d != %d", len(cold.ColIDs), len(warm.ColIDs))
	}
	for i := range cold.RowOffsets {
		if cold.RowOffsets[i] != warm.RowOffsets[i] {
			t.Fatalf("row offset %d: %d != %d", i, cold.RowOffsets[i], warm.RowOffsets[i])
		}
	}
	for i := range cold.ColIDs {
		if cold.ColIDs[i] != warm.ColIDs[i] {
			t.Fatalf("col id %d: %d != %d", i, cold.ColIDs[i], warm.ColIDs[i])
		}
	}
	for i := range cold.Data {
		if math.Float64bits(cold.Data[i]) != math.Float64bits(warm.Data[i]) {
			t.Fatalf("value %d: bits %x != %x (%v vs %v)", i,
				math.Float64bits(cold.Data[i]), math.Float64bits(warm.Data[i]), cold.Data[i], warm.Data[i])
		}
	}
}

// TestNumericByteIdenticalToMultiply is the CPU fast path's contract:
// a warm numeric-only re-multiply against a captured plan is
// bit-for-bit what a cold Multiply of the same inputs returns, across
// repeated value refreshes.
func TestNumericByteIdenticalToMultiply(t *testing.T) {
	mats := []*csr.Matrix{
		matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 11),
		matgen.Band(500, 5, 12),
		matgen.ER(150, 150, 0.04, 13),
	}
	for _, m := range mats {
		opts := Options{Threads: 4}
		cold0, sym, err := MultiplyPlanned(m, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		// The captured plan's first product must itself match a
		// plain Multiply of the same inputs.
		ref, err := Multiply(m, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, ref, cold0)
		for it := int64(0); it < 3; it++ {
			fresh := freshValues(m, 700+it)
			cold, err := Multiply(fresh, fresh, opts)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := Numeric(sym, fresh, fresh, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, cold, warm)
		}
	}
}

// TestNumericSharesPlanStructure pins the zero-copy contract: warm
// products share the plan's structure arrays.
func TestNumericSharesPlanStructure(t *testing.T) {
	m := matgen.ER(80, 80, 0.05, 14)
	_, sym, err := MultiplyPlanned(m, m, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Numeric(sym, m, m, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if &warm.RowOffsets[0] != &sym.RowOffsets[0] {
		t.Fatal("warm product does not share the plan's RowOffsets")
	}
	if len(sym.ColIDs) > 0 && &warm.ColIDs[0] != &sym.ColIDs[0] {
		t.Fatal("warm product does not share the plan's ColIDs")
	}
}

// TestNumericShapeMismatch rejects operands that do not fit the plan.
func TestNumericShapeMismatch(t *testing.T) {
	m := matgen.ER(40, 40, 0.1, 15)
	other := matgen.ER(30, 30, 0.1, 16)
	_, sym, err := MultiplyPlanned(m, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Numeric(sym, other, other, Options{}); err == nil {
		t.Fatal("shape mismatch not rejected")
	}
}

// TestNumericCanceled honors the cancellation hook like Multiply does.
func TestNumericCanceled(t *testing.T) {
	m := matgen.ER(100, 100, 0.05, 17)
	_, sym, err := MultiplyPlanned(m, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Numeric(sym, m, m, Options{Threads: 2, Cancel: func() bool { return true }})
	if err != ErrCanceled {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestNumericSingleRowRegression exercises generation wrap-around
// bookkeeping indirectly by running many rows through a single worker.
func TestNumericSingleRowRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := randomMatrix(rng, 60, 40, 0.15)
	b := randomMatrix(rng, 40, 50, 0.15)
	cold, sym, err := MultiplyPlanned(a, b, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Numeric(sym, a, b, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, cold, warm)
}
