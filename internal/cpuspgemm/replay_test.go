package cpuspgemm

import (
	"errors"
	"math"
	"testing"

	"repro/internal/accum"
	"repro/internal/csr"
	"repro/internal/matgen"
	"repro/internal/speck"
)

// families are the six matrix families the kernel property tests share.
func families() map[string]*csr.Matrix {
	return map[string]*csr.Matrix{
		"rmat":     matgen.RMAT(10, 8, 0.57, 0.19, 0.19, 71),
		"er":       matgen.ER(300, 300, 0.03, 72),
		"band":     matgen.Band(600, 5, 73),
		"diag":     matgen.BlockDiag(20, 8, 74),
		"stencil":  matgen.Stencil2D(24, 24),
		"skewrmat": matgen.RMAT(9, 16, 0.7, 0.12, 0.12, 75),
	}
}

// TestColdSequentialWarmBitIdentical is the symbolic-emit + replay
// pipeline's property test: the cold product, the sequential reference
// and the warm replay of the cold call's own plan agree bit for bit
// over the families and thread counts, with chunkings finer than the
// worker count so the numeric phase reads column ids another worker's
// buffer supplied. The class statistics must account for every row
// with flops, every flop and every output non-zero exactly once.
func TestColdSequentialWarmBitIdentical(t *testing.T) {
	for name, a := range families() {
		want, err := Sequential(a, a)
		if err != nil {
			t.Fatal(err)
		}
		rowFlops := csr.RowFlops(a, a)
		var flops, flopRows int64
		for _, f := range rowFlops {
			flops += f
			if f != 0 {
				flopRows++
			}
		}
		for _, threads := range []int{1, 2, 4, 8} {
			for _, chunkWorkers := range []int{0, 3, 16} {
				var stats ClassStats
				opts := Options{Threads: threads, ChunkWorkers: chunkWorkers, ClassStats: &stats}
				cold, sym, err := MultiplyPlanned(a, a, opts)
				if err != nil {
					t.Fatalf("%s/threads=%d/chunks=%d: %v", name, threads, chunkWorkers, err)
				}
				if err := cold.Validate(); err != nil {
					t.Fatalf("%s/threads=%d/chunks=%d: invalid product: %v", name, threads, chunkWorkers, err)
				}
				requireBitsEqual(t, cold, want, name+": cold vs Sequential")
				warm, err := Numeric(sym, a, a, Options{Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				requireBitsEqual(t, warm, cold, name+": warm vs cold")

				var rows, classFlops, nnz int64
				for _, c := range stats.Classes {
					rows += c.Rows
					classFlops += c.Flops
					nnz += c.Nnz
				}
				if rows != flopRows || classFlops != flops || nnz != int64(len(cold.ColIDs)) {
					t.Fatalf("%s/threads=%d/chunks=%d: class totals (rows %d, flops %d, nnz %d) != matrix (%d, %d, %d)",
						name, threads, chunkWorkers, rows, classFlops, nnz, flopRows, flops, len(cold.ColIDs))
				}
			}
		}
	}
}

// TestStagedStructureAcrossBlocks drives the symbolic phase's staging
// through its three cases: rows that fill several pooled blocks, spans
// cut in the middle of a chunk, and a hub row whose bound exceeds a
// block and stages in a buffer of its own.
func TestStagedStructureAcrossBlocks(t *testing.T) {
	const inner, width = 200, accum.ColBlockLen + 5000
	b := matgen.ER(inner, width, 400/float64(width), 81)
	ea := make([]csr.Entry, 0, inner+3*300)
	for k := 0; k < inner; k++ { // row 7: every B row, 80 000 products
		ea = append(ea, csr.Entry{Row: 7, Col: int32(k), Val: 1 + float64(k)})
	}
	for r := 0; r < 300; r++ { // 1200 products each: 360 000 ids, six blocks
		if r == 7 {
			continue
		}
		for j := 0; j < 3; j++ {
			ea = append(ea, csr.Entry{Row: int32(r), Col: int32((r*3 + j*67) % inner), Val: float64(j) - 0.5})
		}
	}
	a, err := csr.FromEntries(300, inner, ea)
	if err != nil {
		t.Fatal(err)
	}
	if f := csr.RowFlops(a, b)[7] / 2; f <= accum.ColBlockLen {
		t.Fatalf("hub row has %d products, want more than a block (%d)", f, accum.ColBlockLen)
	}
	want, err := Sequential(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.ColIDs) < 4*accum.ColBlockLen {
		t.Fatalf("product has %d non-zeros, want several blocks", len(want.ColIDs))
	}
	for _, threads := range []int{1, 3} {
		for _, chunkWorkers := range []int{0, 1, 16} {
			got, err := Multiply(a, b, Options{Threads: threads, ChunkWorkers: chunkWorkers})
			if err != nil {
				t.Fatal(err)
			}
			requireBitsEqual(t, got, want, "staged across blocks")
		}
	}
}

// TestNonFiniteOperands is the NaN contract: the output structure is
// the symbolic phase's alone, so no value — NaN, an infinity, a signed
// zero, a sum that turns into NaN — can make a cold multiply fail or
// shift a slot, and cold, sequential and warm agree on every bit.
func TestNonFiniteOperands(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	// Row 0 of C: column 0 is a lone -0.0 product, column 1 sums
	// +Inf + -Inf, column 2 carries a NaN operand, column 3 adds Inf·0
	// to an infinity, column 4 is a lone Inf·-0. Row 1 runs the same
	// columns from a -0.0, a finite and a NaN multiplier; row 2 is all
	// finite.
	a, err := csr.FromEntries(3, 3, []csr.Entry{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: -1}, {Row: 0, Col: 2, Val: inf},
		{Row: 1, Col: 0, Val: negZero}, {Row: 1, Col: 1, Val: 2}, {Row: 1, Col: 2, Val: nan},
		{Row: 2, Col: 0, Val: 3}, {Row: 2, Col: 2, Val: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := csr.FromEntries(3, 5, []csr.Entry{
		{Row: 0, Col: 0, Val: negZero}, {Row: 0, Col: 1, Val: inf}, {Row: 0, Col: 2, Val: nan},
		{Row: 1, Col: 1, Val: inf}, {Row: 1, Col: 2, Val: 1}, {Row: 1, Col: 3, Val: -inf},
		{Row: 2, Col: 3, Val: 0}, {Row: 2, Col: 4, Val: negZero},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Sequential(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// The expected product, worked out by hand in IEEE 754 arithmetic and
	// not by any multiply in this repo: Sequential and the row kernel
	// share the assign-on-first-touch rule, so a bug in that rule would
	// pass a comparison of one with the other. Every row has all five
	// columns. A NaN's payload is the hardware's choice, so NaN slots are
	// only required to be NaN; every other slot is required bit for bit.
	anyNaN := math.NaN()
	hand := [3][5]float64{
		// -0 alone; Inf-Inf; NaN-1; Inf+Inf·0; Inf·-0 alone.
		{negZero, anyNaN, anyNaN, anyNaN, anyNaN},
		// -0·-0 = +0; -0·Inf+Inf; NaN+2; -Inf+NaN·0; NaN·-0 alone.
		{0, anyNaN, anyNaN, anyNaN, anyNaN},
		// 3·-0 alone; 3·Inf alone (a stale slot from row 1 would make
		// it NaN); 3·NaN; 0.5·0 alone; 0.5·-0 alone.
		{negZero, inf, anyNaN, 0, negZero},
	}
	requireHand := func(got *csr.Matrix, what string) {
		t.Helper()
		if got.Rows != 3 || len(got.Data) != 15 {
			t.Fatalf("%s: %d rows, %d non-zeros, want 3 and 15", what, got.Rows, len(got.Data))
		}
		for r, row := range hand {
			for c, w := range row {
				k := r*5 + c
				if got.RowOffsets[r+1] != int64(5*(r+1)) || got.ColIDs[k] != int32(c) {
					t.Fatalf("%s: row %d is not columns 0..4", what, r)
				}
				g := got.Data[k]
				if math.IsNaN(w) != math.IsNaN(g) || !math.IsNaN(w) && math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: C[%d,%d] = %v (bits %#x), hand-computed %v (bits %#x)",
						what, r, c, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
	requireHand(want, "Sequential")

	// The one thing the hardware leaves open: when two NaNs with
	// different payloads meet in one sum, the surviving payload depends
	// on which the compiler made the first operand. Cold and warm run the
	// same loop, so they still agree on the bits; against another
	// implementation only "it is a NaN" is defined.
	a2, _ := csr.FromEntries(1, 2, []csr.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: inf}})
	b2, _ := csr.FromEntries(2, 1, []csr.Entry{{Row: 0, Col: 0, Val: nan}, {Row: 1, Col: 0, Val: 0}})

	for _, threads := range []int{1, 4} {
		opts := Options{Threads: threads}
		cold, sym, err := MultiplyPlanned(a, b, opts)
		if err != nil {
			t.Fatalf("threads=%d: cold multiply of non-finite operands: %v", threads, err)
		}
		requireHand(cold, "cold")
		requireBitsEqual(t, cold, want, "cold vs Sequential")
		warm, err := Numeric(sym, a, b, opts)
		if err != nil {
			t.Fatalf("threads=%d: warm replay of non-finite operands: %v", threads, err)
		}
		requireHand(warm, "warm")
		requireBitsEqual(t, warm, want, "warm vs Sequential")

		cold2, sym2, err := MultiplyPlanned(a2, b2, opts)
		if err != nil {
			t.Fatal(err)
		}
		warm2, err := Numeric(sym2, a2, b2, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireBitsEqual(t, warm2, cold2, "NaN + NaN: warm vs cold")
		if len(cold2.Data) != 1 || !math.IsNaN(cold2.Data[0]) {
			t.Fatalf("NaN + NaN = %v, want one NaN", cold2.Data)
		}
	}
}

// TestReplayStructureError checks the invariant that replaced the
// numeric-vs-symbolic size comparison: operands that do not carry the
// plan's pattern fail with the kernel's typed error.
func TestReplayStructureError(t *testing.T) {
	a := matgen.ER(60, 60, 0.1, 5)
	_, sym, err := MultiplyPlanned(a, a, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	other := matgen.ER(60, 60, 0.1, 6)
	_, err = Numeric(sym, other, other, Options{Threads: 2})
	var se *speck.StructureError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a *speck.StructureError", err)
	}
}

// TestAllocationCeilings pins the allocation count of a cold Multiply
// and a warm Numeric, after a pool warm-up call, under one constant at
// two sizes of the same family sixteen-fold apart: an allocation per
// row, per chunk of rows or per flush would show as a count that grows
// with the matrix.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const ceiling = 48
	for _, n := range []int{256, 4096} {
		a := matgen.ER(n, n, 8/float64(n), 33)
		opts := Options{Threads: 1}
		_, sym, err := MultiplyPlanned(a, a, opts) // warms the pools
		if err != nil {
			t.Fatal(err)
		}
		cold := testing.AllocsPerRun(5, func() {
			if _, err := Multiply(a, a, opts); err != nil {
				t.Fatal(err)
			}
		})
		warm := testing.AllocsPerRun(5, func() {
			if _, err := Numeric(sym, a, a, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d rows: cold %v allocs, warm %v allocs", n, cold, warm)
		if cold > ceiling || warm > ceiling {
			t.Fatalf("%d rows: cold %v / warm %v allocations per call, ceiling %d", n, cold, warm, ceiling)
		}
	}
}
