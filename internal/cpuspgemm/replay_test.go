package cpuspgemm

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/accum"
	"repro/internal/csr"
	"repro/internal/matgen"
	"repro/internal/metrics"
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

// TestColdSequentialWarmBitIdentical is the cold pipeline's property
// test: the cold product, the sequential reference and the warm replay
// of the cold call's own plan agree bit for bit over the families and
// thread counts, with chunkings finer than the worker count so the
// numeric phase reads column ids another worker's buffer supplied, and
// each run uninstrumented and under ClassStats (which labels rows the
// uninstrumented pass does not). Under ClassStats every row with flops,
// every flop and every output non-zero is accounted exactly once, and a
// product (finite here) runs no numeric replay and books no numeric time.
// Then the same products with B padded to 2^20 columns, the widest panel
// of the bitmap tier, and to one more, the narrowest past it.
func TestColdSequentialWarmBitIdentical(t *testing.T) {
	for name, a := range families() {
		for _, threads := range []int{1, 2, 4, 8} {
			for _, chunkWorkers := range []int{0, 3, 16} {
				requireColdSequentialWarm(t, fmt.Sprintf("%s/threads=%d/chunks=%d", name, threads, chunkWorkers), a, a, threads, chunkWorkers)
			}
		}
		for _, width := range []int{1 << 20, 1<<20 + 1} {
			for _, threads := range []int{1, 3} {
				for _, chunkWorkers := range []int{0, 16} {
					requireColdSequentialWarm(t, fmt.Sprintf("%s/width=%d/threads=%d/chunks=%d", name, width, threads, chunkWorkers),
						a, padCols(a, width), threads, chunkWorkers)
				}
			}
		}
	}
}

func requireColdSequentialWarm(t *testing.T, label string, a, b *csr.Matrix, threads, chunkWorkers int) {
	t.Helper()
	want, err := Sequential(a, b)
	if err != nil {
		t.Fatal(err)
	}
	rowFlops := csr.RowFlops(a, b, 0)
	var flops, flopRows int64
	for _, f := range rowFlops {
		flops += f
		if f != 0 {
			flopRows++
		}
	}
	for _, stats := range []*ClassStats{nil, {}} {
		col := metrics.New()
		opts := Options{Threads: threads, ChunkWorkers: chunkWorkers, ClassStats: stats, Metrics: col}
		cold, sym, err := MultiplyPlanned(a, b, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if replayed(col) {
			t.Fatalf("%s: numeric replay ran on a finite product", label)
		}
		if err := cold.Validate(); err != nil {
			t.Fatalf("%s: invalid product: %v", label, err)
		}
		requireBitsEqual(t, cold, want, label+": cold vs Sequential")
		warm, err := Numeric(sym, a, b, Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		requireBitsEqual(t, warm, cold, label+": warm vs cold")
		requireBitsEqual(t, scheduled(t, sym, a, b, Options{Threads: threads}), cold, label+": bound warm vs cold")
		if stats == nil {
			continue
		}
		var rows, classFlops, nnz, numericNs int64
		for _, c := range stats.Classes {
			rows += c.Rows
			classFlops += c.Flops
			nnz += c.Nnz
			numericNs += c.NumericNs
		}
		if rows != flopRows || classFlops != flops || nnz != int64(len(cold.ColIDs)) {
			t.Fatalf("%s: class totals (rows %d, flops %d, nnz %d) != matrix (%d, %d, %d)",
				label, rows, classFlops, nnz, flopRows, flops, len(cold.ColIDs))
		}
		if numericNs != 0 {
			t.Fatalf("%s: product booked %d ns of numeric time", label, numericNs)
		}
	}
}

// scheduled is the bound warm replay a plan cache runs for operands
// with records: the plan's schedule built and checked once for a and b,
// then run for every chunk without checks.
func scheduled(t *testing.T, sym *SymbolicResult, a, b *csr.Matrix, opts Options) *csr.Matrix {
	t.Helper()
	c, err := NumericScheduled(sym, sym.Schedule(a, b), nil, a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// replayed reports whether a cold multiply ran the numeric replay.
func replayed(col *metrics.Collector) bool {
	return slices.ContainsFunc(col.Spans(), func(s metrics.Span) bool { return s.Label == "numeric" })
}

// TestStagedStructureAcrossBlocks drives the staging through its three
// cases: rows that fill several pooled blocks, spans cut in the middle of
// a chunk, and a hub row whose bound exceeds a block and stages in a
// buffer of its own, every id block with a value block beside it — with
// B on the bitmap tier and padded past it (wider than 2^20 columns).
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
	if f := csr.RowFlops(a, b, 0)[7] / 2; f <= accum.ColBlockLen {
		t.Fatalf("hub row has %d products, want more than a block (%d)", f, accum.ColBlockLen)
	}
	want, err := Sequential(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.ColIDs) < 4*accum.ColBlockLen {
		t.Fatalf("product has %d non-zeros, want several blocks", len(want.ColIDs))
	}
	const wide = 1<<20 + 1 // B padded past the tier
	for _, tc := range []struct {
		b, want *csr.Matrix
	}{{b, want}, {padCols(b, wide), padCols(want, wide)}} {
		for _, threads := range []int{1, 3} {
			for _, chunkWorkers := range []int{0, 1, 16} {
				got, err := Multiply(a, tc.b, Options{Threads: threads, ChunkWorkers: chunkWorkers})
				if err != nil {
					t.Fatal(err)
				}
				requireBitsEqual(t, got, tc.want, fmt.Sprintf("staged across blocks, B %d columns", tc.b.Cols))
			}
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
	// different payloads meet in one sum or product, the payload that
	// survives is the one the compiler made the first operand, so against
	// another implementation only "it is a NaN" is defined. Cold and warm
	// agree on those bits too, in every build (-race included): a cold
	// product holding a NaN is replayed by NumericRows, the loop the warm
	// replay runs.
	a2, _ := csr.FromEntries(1, 2, []csr.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: inf}})
	b2, _ := csr.FromEntries(2, 1, []csr.Entry{{Row: 0, Col: 0, Val: nan}, {Row: 1, Col: 0, Val: 0}})

	// No row of a3 has more than four products, so on the bitmap tier
	// ComputeRow runs every one on its summary body (Add, FlushValues): no
	// window route, and no block group — rows 1 and 2 share their A row,
	// whose B rows 4 and 5 are a block, but a group takes four rows. a3
	// puts the collision after a row of four products onto one column
	// (row 1), in an equal row after it (row 2), and in a product of two
	// NaNs, by a degree-1 row (the scaled copy, row 3) and a degree-2 one
	// (row 4). The window route's NaN replay is TestWindowRouteNonFinite's;
	// a group's is the last case below. At one thread one kit computes the
	// rows in order.
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	a3, _ := csr.FromEntries(5, 6, []csr.Entry{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1}, {Row: 0, Col: 2, Val: 1}, {Row: 0, Col: 3, Val: 1},
		{Row: 1, Col: 4, Val: 1}, {Row: 1, Col: 5, Val: inf},
		{Row: 2, Col: 4, Val: 1}, {Row: 2, Col: 5, Val: inf},
		{Row: 3, Col: 4, Val: nan2},
		{Row: 4, Col: 4, Val: nan2}, {Row: 4, Col: 5, Val: 1},
	})
	b3, _ := csr.FromEntries(6, 2, []csr.Entry{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 1}, {Row: 2, Col: 0, Val: 1}, {Row: 3, Col: 0, Val: 1},
		{Row: 4, Col: 1, Val: nan1}, {Row: 5, Col: 1, Val: 0},
	})
	// a4's one row spans both of b4's columns, so with B's columns spread
	// apart past the tier it misses every window and runs on the hash:
	// nan1 + Inf·0 in column 0, 1 + Inf·nan2 in column 1.
	a4, _ := csr.FromEntries(1, 2, []csr.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: inf}})
	b4, _ := csr.FromEntries(2, 2, []csr.Entry{
		{Row: 0, Col: 0, Val: nan1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 0}, {Row: 1, Col: 1, Val: nan2},
	})

	// Block-diagonal pairs: full blocks of A against lower-triangular
	// blocks of B (not a block: every row stamped) and against full
	// blocks, whose warm rows NumericRows sums four at a time column by
	// column, six rows each (a group and two rows left over; four columns
	// and two).
	// Block 0 adds an Inf to finite products, block 1's last column is a
	// lone -0.0 product (triangular) or sums -0.0 products only (full),
	// row 13 alone holds a NaN, block 3 sums +Inf and -Inf in every row.
	var ea, eb, ef []csr.Entry
	for base := 0; base < 24; base += 6 {
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				r, c, v := int32(base+i), int32(base+j), 1+float64((5*i+j)%7)/8
				ea = append(ea, csr.Entry{Row: r, Col: c, Val: v})
				ef = append(ef, csr.Entry{Row: r, Col: c, Val: v})
				if j <= i {
					eb = append(eb, csr.Entry{Row: r, Col: c, Val: v})
				}
			}
		}
	}
	ea[13*6+0].Val = nan
	for _, es := range [][]csr.Entry{eb, ef} {
		for k, e := range es {
			switch {
			case e.Row == 3 && e.Col == 1, e.Row == 19 && e.Col == 18:
				es[k].Val = inf
			case e.Row == 20 && e.Col == 18:
				es[k].Val = -inf
			case e.Row/6 == 1 && e.Col == 11:
				es[k].Val = negZero
			}
		}
	}
	blockA, _ := csr.FromEntries(24, 24, ea)
	blockB, _ := csr.FromEntries(24, 24, eb)
	fullB, _ := csr.FromEntries(24, 24, ef)

	const wide = 1<<20 + 1 // B padded past the bitmap tier
	for _, threads := range []int{1, 4} {
		opts := Options{Threads: threads}
		for _, b := range []*csr.Matrix{b, padCols(b, wide)} {
			route := fmt.Sprintf("threads=%d, B %d columns", threads, b.Cols)
			want, err := Sequential(a, b)
			if err != nil {
				t.Fatal(err)
			}
			cold, sym, err := MultiplyPlanned(a, b, opts)
			if err != nil {
				t.Fatalf("%s: cold multiply of non-finite operands: %v", route, err)
			}
			requireHand(cold, "cold")
			requireBitsEqual(t, cold, want, route+": cold vs Sequential")
			warm, err := Numeric(sym, a, b, opts)
			if err != nil {
				t.Fatalf("%s: warm replay of non-finite operands: %v", route, err)
			}
			requireHand(warm, "warm")
			requireBitsEqual(t, warm, want, route+": warm vs Sequential")
		}

		for _, pair := range [][2]*csr.Matrix{{a2, b2}, {a3, b3}, {a4, b4}} {
			stride := 1<<20/pair[1].Cols + 1 // spread past the tier
			var colds [3]*csr.Matrix
			for route, b := range []*csr.Matrix{pair[1], padCols(pair[1], wide), spreadCols(pair[1], stride)} {
				col := metrics.New()
				cold, sym, err := MultiplyPlanned(pair[0], b, Options{Threads: threads, Metrics: col})
				if err != nil {
					t.Fatal(err)
				}
				if !replayed(col) {
					t.Fatalf("B %d columns: a product holding a NaN skipped the numeric replay", b.Cols)
				}
				warm, err := Numeric(sym, pair[0], b, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireBitsEqual(t, warm, cold, fmt.Sprintf("NaN + NaN, B %d columns: warm vs cold", b.Cols))
				if v := cold.Data[len(cold.Data)-1]; !math.IsNaN(v) {
					t.Fatalf("NaN + NaN = %v, want a NaN", v)
				}
				colds[route] = cold
			}
			requireBitsEqual(t, padCols(colds[0], wide), colds[1], "NaN + NaN: bitmap tier vs past it")
			requireBitsEqual(t, spreadCols(colds[0], stride), colds[2], "NaN + NaN: bitmap tier vs spread past it")
		}

		for _, b := range []*csr.Matrix{blockB, padCols(blockB, wide), fullB, padCols(fullB, wide)} {
			route := fmt.Sprintf("blocks, threads=%d, B %d columns", threads, b.Cols)
			want, err := Sequential(blockA, b)
			if err != nil {
				t.Fatal(err)
			}
			cold, sym, err := MultiplyPlanned(blockA, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := Numeric(sym, blockA, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireBitsEqual(t, warm, cold, route+": warm vs cold")
			requireBitsEqual(t, scheduled(t, sym, blockA, b, opts), cold, route+": bound warm vs cold")
			for k, w := range want.Data {
				if g := warm.Data[k]; math.IsNaN(w) != math.IsNaN(g) || !math.IsNaN(w) && math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: value %d is %v, Sequential's %v", route, k, g, w)
				}
			}
			if v := warm.Data[warm.RowOffsets[7]-1]; v != 0 || !math.Signbit(v) {
				t.Fatalf("%s: a sum of -0.0 products came out as %v", route, v)
			}
		}

		// A NaN inside a cold block group and nowhere else: rows 8-11 of
		// grpA are a group over B's block 1, and row 9's multiplier of B
		// row 8, whose column 11 is a NaN of another payload, is a NaN. Only
		// the group's nan flag sends this product through the numeric
		// replay. At one thread the group is whole and takes the run body;
		// at four every chunk is one row.
		grpA, grpB := matgen.BlockDiag(4, 8, 91), matgen.BlockDiag(4, 8, 92)
		grpA.Data[9*8] = nan1
		grpB.Data[8*8+3] = nan2
		col := metrics.New()
		groups := speck.GroupsComputed()
		cold, sym, err := MultiplyPlanned(grpA, grpB, Options{Threads: threads, Metrics: col})
		if err != nil {
			t.Fatal(err)
		}
		if threads == 1 && speck.GroupsComputed() == groups {
			t.Fatal("NaN in a block group: no group took the run body")
		}
		if !replayed(col) {
			t.Fatalf("threads=%d: a product whose only NaNs are a block group's skipped the numeric replay", threads)
		}
		warm, err := Numeric(sym, grpA, grpB, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireBitsEqual(t, warm, cold, fmt.Sprintf("NaN in a block group, threads=%d: warm vs cold", threads))
		if v := cold.Data[9*8+3]; !math.IsNaN(v) {
			t.Fatalf("NaN · NaN in a block group = %v, want a NaN", v)
		}
	}
}

// TestWindowRouteNonFinite runs a band product, whose rows take the
// one-phase kernel's window route (contiguous B rows added in one loop),
// with NaN, ±Inf and −0.0 planted in both operands: the cold product must
// run the numeric replay, agree with the warm replay bit for bit, with
// the product of B padded past the bitmap tier bit for bit and with
// Sequential but for NaN payloads, at one thread and at four.
func TestWindowRouteNonFinite(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	plant := func(m *csr.Matrix, every int, specials []float64) *csr.Matrix {
		c := m.Clone()
		for k := 3; k < len(c.Data); k += every {
			c.Data[k] = specials[k%len(specials)]
		}
		return c
	}
	band := matgen.Band(600, 5, 76)
	a := plant(band, 97, []float64{negZero, inf, -inf})
	b := plant(band, 131, []float64{nan, negZero, -inf, 0})
	for _, threads := range []int{1, 4} {
		var colds [2]*csr.Matrix
		for route, b := range []*csr.Matrix{b, padCols(b, 1<<20+1)} {
			label := fmt.Sprintf("threads=%d, B %d columns", threads, b.Cols)
			col := metrics.New()
			opts := Options{Threads: threads, Metrics: col}
			cold, sym, err := MultiplyPlanned(a, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !replayed(col) {
				t.Fatalf("%s: a product holding a NaN skipped the numeric replay", label)
			}
			warm, err := Numeric(sym, a, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireBitsEqual(t, warm, cold, label+": warm vs cold")
			want, err := Sequential(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if d := csr.Diff(cold, want, 0); d != "" {
				t.Fatalf("%s: cold vs Sequential: %s", label, d)
			}
			colds[route] = cold
		}
		requireBitsEqual(t, padCols(colds[0], 1<<20+1), colds[1], "bitmap tier vs past it")
	}
}

// TestProductValueFingerprint pins the value bits of two fixed products,
// cold, warm and bound: an RMAT square (stamped rows) and a
// block-diagonal square (block groups). Every value is a division by 7,
// correctly rounded everywhere, and most products round, so a platform
// that fused a multiply-add or summed in another order would compute
// another fingerprint than the pinned one, which amd64 computes.
func TestProductValueFingerprint(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *csr.Matrix
		want uint64
	}{
		{"rmat", matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 5), 0x73071bbcf211a41},
		{"blocks", matgen.BlockDiag(32, 8, 5), 0xd6d3709caaba5851},
	} {
		for k := range tc.a.Data {
			tc.a.Data[k] = float64(k%11+1) / 7
		}
		opts := Options{Threads: 2}
		cold, sym, err := MultiplyPlanned(tc.a, tc.a, opts)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Numeric(sym, tc.a, tc.a, opts)
		if err != nil {
			t.Fatal(err)
		}
		for what, c := range map[string]*csr.Matrix{"cold": cold, "warm": warm, "bound": scheduled(t, sym, tc.a, tc.a, opts)} {
			if fp := csr.FingerprintValues(c); fp != tc.want {
				t.Errorf("%s, %s: value fingerprint %#x, want %#x", tc.name, what, fp, tc.want)
			}
		}
	}
}

// TestReplayStructureError checks the invariant that replaced the
// numeric-vs-symbolic size comparison: operands that do not carry the
// plan's pattern fail with the kernel's typed error, on a schedule built
// per chunk and on one built for the whole product.
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

	// A schedule is checked when it is built: one built for a B whose block
	// 2 is one column short holds that group back for the stamped body,
	// which fails on the B it was built for.
	plan := matgen.BlockDiag(6, 8, 7)
	_, psym, err := MultiplyPlanned(plan, plan, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	var es []csr.Entry
	for r := 0; r < plan.Rows; r++ {
		cols, vals := plan.Row(r)
		for k, c := range cols {
			if r/8 != 2 || c != 17 {
				es = append(es, csr.Entry{Row: int32(r), Col: c, Val: vals[k]})
			}
		}
	}
	short, err := csr.FromEntries(plan.Rows, plan.Cols, es)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NumericScheduled(psym, psym.Schedule(plan, short), nil, plan, short, Options{Threads: 1})
	if !errors.As(err, &se) || se.Row != 16 {
		t.Fatalf("a block one column short: err = %v, want a *speck.StructureError at row 16", err)
	}
}

// TestAllocationCeilings pins the allocation count of a cold Multiply
// and a warm Numeric, after a pool warm-up call, under one constant at
// two sizes of the same family sixteen-fold apart: an allocation per
// row, per chunk of rows or per flush would show as a count that grows
// with the matrix. A bound warm replay (NumericScheduled on a schedule
// built once) allocates no more than a warm Numeric. The collector is
// held off from the warm-up on: a collection between rounds empties the
// pools, and their refill moved the counts by one or two.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const ceiling = 48
	for _, n := range []int{256, 4096, -1} {
		var a *csr.Matrix
		if n < 0 { // block rows: the column sums keep their outputs on the stack
			a, n = matgen.BlockDiag(64, 32, 34), 64*32
		} else {
			a = matgen.ER(n, n, 8/float64(n), 33)
		}
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
		sched := sym.Schedule(a, a)
		bound := testing.AllocsPerRun(5, func() {
			if _, err := NumericScheduled(sym, sched, nil, a, a, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d rows: cold %v allocs, warm %v allocs, bound warm %v allocs", n, cold, warm, bound)
		if cold > ceiling || warm > ceiling || bound > warm {
			t.Fatalf("%d rows: cold %v / warm %v / bound warm %v allocations per call, ceiling %d (bound: warm's)", n, cold, warm, bound, ceiling)
		}
	}
}
