package cpuspgemm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/csr"
	"repro/internal/matgen"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/speck"
)

// blockRows returns the block-diagonal matrix of square blocks of the
// given sizes, its values drawn from BlockDiag's generator: dense blocks,
// or with lower set lower-triangular ones, whose rows differ.
func blockRows(sizes []int, lower bool, seed int64) *csr.Matrix {
	n := 0
	for _, bs := range sizes {
		n += bs
	}
	vals := matgen.BlockDiag(1, n, seed).Data
	m := &csr.Matrix{Rows: n, Cols: n, RowOffsets: make([]int64, n+1)}
	base := 0
	for _, bs := range sizes {
		for i := base; i < base+bs; i++ {
			for j := base; j < base+bs && (!lower || j <= i); j++ {
				m.ColIDs = append(m.ColIDs, int32(j))
				m.Data = append(m.Data, vals[i*n+j])
			}
			m.RowOffsets[i+1] = int64(len(m.ColIDs))
		}
		base += bs
	}
	return m
}

// TestColdGroups holds the cold product's block groups (Kit.ComputeGroups,
// computed on the warm replay's run body) to the warm replay of the
// product's own plan, bit for bit, and to Sequential's structure — and,
// where no NaN is involved, to Sequential's values bit for bit — on the
// block shapes of the warm workloads, on block rows of 8, 6, 9, 4 and 3
// rows (the last shorter than a group), on equal A rows whose B rows are
// not a block (lower-triangular blocks), and on blocks holding ±Inf and
// -0.0 (no NaN: the values are the run body's) or a NaN (the product runs
// the numeric replay). Each runs at one, two and four threads and at
// chunkings (ChunkWorkers) whose bounds cut groups, which the stager then
// computes row by row. speck.GroupsComputed shows that groups took the run
// body, or, over B rows that are no block, that none did.
func TestColdGroups(t *testing.T) {
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	block32, block8 := matgen.BlockDiag(256, 32, 61), matgen.BlockDiag(512, 8, 62)
	sizes := []int{8, 6, 9, 4, 3}
	ragged, tri := blockRows(sizes, false, 63), blockRows(sizes, true, 64)
	// Row 1 of fa multiplies an Inf; B's column 11 is -0.0 in block 1, so
	// C's column 11 there sums -0.0 products only. na and nb add a NaN
	// (row 27 of A) and +Inf and -Inf in one column of block 2 of B.
	operands := func() (a, b *csr.Matrix) {
		a, b = matgen.BlockDiag(16, 8, 65), matgen.BlockDiag(16, 8, 66)
		a.Data[1*8+2] = inf
		for r := 8; r < 16; r++ {
			b.Data[r*8+3] = negZero
		}
		return a, b
	}
	fa, fb := operands()
	na, nb := operands()
	na.Data[27*8+4] = math.NaN()
	nb.Data[16*8+1], nb.Data[17*8+1] = inf, -inf

	cases := []struct {
		name        string
		a, b        *csr.Matrix
		groups, nan bool
	}{
		{"block32", block32, block32, true, false},
		{"block8", block8, block8, true, false},
		{"ragged", ragged, ragged, true, false},
		{"not a block", ragged, tri, false, false},
		{"inf and -0", fa, fb, true, false},
		{"nan", na, nb, true, true},
	}
	optsList := []Options{{Threads: 1}, {Threads: 2}, {Threads: 4}, {Threads: 1, ChunkWorkers: 7}, {Threads: 2, ChunkWorkers: 13}}
	for _, tc := range cases {
		want, err := Sequential(tc.a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		cut, ran := false, int64(0)
		for _, opts := range optsList {
			label := fmt.Sprintf("%s, threads=%d, chunk workers=%d", tc.name, opts.Threads, opts.ChunkWorkers)
			col := metrics.New()
			opts.Metrics = col
			groups := speck.GroupsComputed()
			cold, sym, err := MultiplyPlanned(tc.a, tc.b, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			moved := speck.GroupsComputed() - groups
			if !tc.groups && moved != 0 {
				t.Fatalf("%s: %d groups over B rows that are no block", label, moved)
			}
			ran += moved
			if replayed(col) != tc.nan {
				t.Fatalf("%s: numeric replay ran = %v, want %v", label, !tc.nan, tc.nan)
			}
			opts.Metrics = nil
			if !slices.Equal(cold.RowOffsets, want.RowOffsets) || !slices.Equal(cold.ColIDs, want.ColIDs) {
				t.Fatalf("%s: structure differs from Sequential's", label)
			}
			for k, w := range want.Data {
				if g := cold.Data[k]; math.IsNaN(w) != math.IsNaN(g) || !math.IsNaN(w) && math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: value %d is %v, Sequential's %v", label, k, g, w)
				}
			}
			warm, err := Numeric(sym, tc.a, tc.b, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireBitsEqual(t, warm, cold, label+": warm vs cold")
			requireBitsEqual(t, scheduled(t, sym, tc.a, tc.b, opts), cold, label+": bound warm vs cold")
			if v := cold.Data[cold.RowOffsets[8]+3]; tc.a == fa && (v != 0 || !math.Signbit(v)) {
				t.Fatalf("%s: a sum of -0.0 products came out as %v", label, v)
			}
			nt := opts.Threads
			if opts.ChunkWorkers > 0 {
				nt = opts.ChunkWorkers
			}
			cut = cut || slices.ContainsFunc(parallel.CostBounds(sym.RowFlops, nt), func(b int) bool { return b%speck.GroupRows != 0 })
		}
		if tc.groups && ran == 0 {
			t.Fatalf("%s: no group took the run body", tc.name)
		}
		if (tc.name == "block32" || tc.name == "block8") && !cut {
			t.Fatalf("%s: no chunking cut a group", tc.name)
		}
	}
}

// TestColdGroupsCheckBounds hands a cold product block operands whose value
// array is shorter than their offsets claim, the three entries past its
// end NaNs in the same backing array. Every row is in a group, so the groups'
// bounds check (groupRun) must refuse the last run before the unchecked
// body reads past the array: the product fails with an error, as the
// warm replay of the same operands does, with no panic.
func TestColdGroupsCheckBounds(t *testing.T) {
	for _, short := range []string{"A", "B"} {
		a, b := matgen.BlockDiag(32, 8, 67), matgen.BlockDiag(32, 8, 68)
		_, sym, err := MultiplyPlanned(a, b, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		m := a
		if short == "B" {
			m = b
		}
		n := len(m.Data) - 3
		m.Data = append(m.Data[:n:n], math.NaN(), math.NaN(), math.NaN())[:n]
		groups := speck.GroupsComputed()
		c, err := Multiply(a, b, Options{Threads: 1})
		if err == nil {
			t.Fatalf("%s's values short by 3: the cold product returned %d values and no error", short, len(c.Data))
		}
		if moved := speck.GroupsComputed() - groups; moved >= int64(a.Rows/speck.GroupRows) {
			t.Fatalf("%s's values short by 3: %d groups ran the body, all there are", short, moved)
		}
		t.Logf("%s's values short by 3: cold: %v", short, err)
		if _, err := Numeric(sym, a, b, Options{Threads: 1}); err == nil {
			t.Fatalf("%s's values short by 3: the warm replay returned no error", short)
		}
	}
}
