package speck

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/accum"
	"repro/internal/csr"
	"repro/internal/matgen"
	"repro/internal/partition"
)

// oracleCompute is the implementation SymbolicCompute and Numeric had
// before the shared row kernel, kept as the tests' reference: every row
// through one Hash accumulator, values included, flushed by its
// pair sort; the dense/hash flop split by the literal rule.
func oracleCompute(a, b *csr.Matrix, cm CostModel) (*Symbolic, []float64) {
	sym := &Symbolic{Rows: a.Rows, ACols: a.Cols, Cols: b.Cols,
		RowFlops: csr.RowFlops(a, b, 0), UpperBounds: csr.RowUpperBounds(a, b)}
	offs := make([]int64, a.Rows+1)
	hash := accum.NewHash(64)
	var data []float64
	for r := 0; r < a.Rows; r++ {
		ac, av := a.Row(r)
		for p, k := range ac {
			bc, bv := b.Row(int(k))
			for q, col := range bc {
				hash.Add(col, av[p]*bv[q])
			}
		}
		offs[r+1] = offs[r] + int64(hash.Len())
		sym.ColIDs, data = hash.Flush(sym.ColIDs, data)
	}
	finalizeSymbolic(sym, offs, b.Cols, cm)
	sym.HashFlops, sym.DenseFlops = 0, 0
	for r, f := range sym.RowFlops {
		if nnz := offs[r+1] - offs[r]; nnz > 0 && f >= 8*nnz {
			sym.DenseFlops += f
		} else {
			sym.HashFlops += f
		}
	}
	return sym, data
}

// requireMatchesOracle compares Compute (and so SymbolicCompute and
// Numeric) with the oracle field by field.
func requireMatchesOracle(t *testing.T, name string, a, b *csr.Matrix) *Result {
	t.Helper()
	want, wantData := oracleCompute(a, b, model())
	got, err := Compute(a, b, model())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := got.C.Validate(); err != nil {
		t.Fatalf("%s: invalid product: %v", name, err)
	}
	if !reflect.DeepEqual(got.C.RowOffsets, want.RowOffsets) {
		t.Fatalf("%s: RowOffsets differ", name)
	}
	if len(got.C.ColIDs) != len(want.ColIDs) || (len(want.ColIDs) > 0 && !reflect.DeepEqual(got.C.ColIDs, want.ColIDs)) {
		t.Fatalf("%s: ColIDs differ", name)
	}
	for i, v := range wantData {
		if math.Float64bits(got.C.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: value %d: %v (%x) != oracle %v (%x)", name, i,
				got.C.Data[i], math.Float64bits(got.C.Data[i]), v, math.Float64bits(v))
		}
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("%s: Groups differ", name)
	}
	if got.Flops != want.Flops || got.HashFlops != want.HashFlops || got.DenseFlops != want.DenseFlops {
		t.Fatalf("%s: flops (%d, hash %d, dense %d) != oracle (%d, %d, %d)", name,
			got.Flops, got.HashFlops, got.DenseFlops, want.Flops, want.HashFlops, want.DenseFlops)
	}
	if got.AnalysisSec != want.AnalysisSec || got.SymbolicSec != want.SymbolicSec || got.NumericSec != want.NumericSec {
		t.Fatalf("%s: simulated phase seconds moved", name)
	}
	if got.RowInfoBytes != want.RowInfoBytes || got.NnzInfoBytes != want.NnzInfoBytes ||
		got.OutputBytes != want.OutputBytes || got.WorkspaceBytes != want.WorkspaceBytes {
		t.Fatalf("%s: transfer/workspace bytes moved", name)
	}
	return got
}

// kindsUsed reports which labels the symbolic pass of A·B gives rows
// with flops.
func kindsUsed(a, b *csr.Matrix) (used [NumKinds]bool) {
	rf := csr.RowFlops(a, b, 0)
	p := NewSymbolicPass(a, b, rf)
	for i, f := range rf {
		if f != 0 {
			used[p.Kind(i)] = true
		}
	}
	return used
}

// accumsServing reports which of a kit's accumulators serve the rows of
// A·B with flops, each row computed on a kit of its own by the one pass
// (Kit.ComputeRow) and by the symbolic walk (SymbolicPass.AppendCols),
// which must fetch the same one.
func accumsServing(t *testing.T, a, b *csr.Matrix) (hash, bitmap bool) {
	t.Helper()
	rf := csr.RowFlops(a, b, 0)
	pass := NewSymbolicPass(a, b, rf)
	for i, f := range rf {
		if f == 0 {
			continue
		}
		var one, walk Kit
		one.ComputeRow(a, b, i, f, nil, nil)
		pass.AppendCols(&walk, i, nil)
		if (one.hash != nil) != (walk.hash != nil) || (one.two != nil) != (walk.two != nil) {
			t.Fatalf("row %d: the one pass fetched hash %v, bitmap %v; the walk hash %v, bitmap %v",
				i, one.hash != nil, one.two != nil, walk.hash != nil, walk.two != nil)
		}
		hash, bitmap = hash || one.hash != nil, bitmap || one.two != nil
		one.Release()
		walk.Release()
	}
	return hash, bitmap
}

// spreadCols returns m with every column id multiplied by stride, on a
// panel stride times as wide: the same product structure, its columns
// stride apart.
func spreadCols(m *csr.Matrix, stride int) *csr.Matrix {
	p := *m
	p.ColIDs = slices.Clone(m.ColIDs)
	for j := range p.ColIDs {
		p.ColIDs[j] *= int32(stride)
	}
	p.Cols = m.Cols * stride
	return &p
}

// TestRowKernelMatchesOracle is the shared kernel's property test from
// speck's side: over the matrix families the adaptive CPU tests use and
// the shapes that force each kernel, Compute is field-for-field the
// single-Hash implementation it replaced.
func TestRowKernelMatchesOracle(t *testing.T) {
	square := map[string]*csr.Matrix{
		"rmat":     matgen.RMAT(10, 8, 0.57, 0.19, 0.19, 71),
		"er":       matgen.ER(300, 300, 0.03, 72),
		"band":     matgen.Band(600, 5, 73),
		"diag":     matgen.BlockDiag(20, 8, 74),
		"stencil":  matgen.Stencil2D(24, 24),
		"skewrmat": matgen.RMAT(9, 16, 0.7, 0.12, 0.12, 75),
	}
	var used [NumKinds]bool
	check := func(name string, a, b *csr.Matrix) {
		requireMatchesOracle(t, name, a, b)
		for k, u := range kindsUsed(a, b) {
			used[k] = used[k] || u
		}
	}
	for name, a := range square {
		check(name, a, a)
	}

	// Empty rows on both sides: A rows with no entries, and A entries
	// that select empty B rows (flops 0 although the row has non-zeros).
	sparse := matgen.ER(200, 200, 0.004, 76)
	check("empty-rows", sparse, sparse)
	check("zero", csr.New(5, 7), csr.New(7, 3))

	// In a panel wider than 2^16 columns dense-class rows (here ~600
	// products each) are labelled cseg, not dense; the bitmap serves them.
	wideA := matgen.ER(40, 60, 0.5, 77)
	wideB := matgen.ER(60, 1<<16+500, 20.0/(1<<16), 78)
	check("wide-cseg", wideA, wideB)
	if u := kindsUsed(wideA, wideB); !u[KindCSeg] || u[KindDense] {
		t.Fatalf("wide panel: kinds %v, want cseg and no dense", u)
	}
	if hash, _ := accumsServing(t, wideA, wideB); hash {
		t.Fatal("wide panel on the bitmap tier: a row took the hash")
	}

	// Sparse rows of an unclustered product in a wide panel are labelled
	// hash; past the tier, their columns spread 64 words apart, the hash
	// serves them.
	sparseA, sparseB := matgen.ER(200, 400, 0.03, 79), matgen.ER(400, 1<<14, 5.0/(1<<14), 80)
	check("wide-hash", sparseA, sparseB)
	spread := spreadCols(sparseB, 64*64)
	check("past-tier-hash", sparseA, spread)
	if hash, bitmap := accumsServing(t, sparseA, spread); !hash || bitmap {
		t.Fatalf("scattered short rows past the tier: hash %v, bitmap %v; want the hash alone", hash, bitmap)
	}

	for k, u := range used {
		if !u {
			t.Errorf("no test input is labelled %s", Kind(k))
		}
	}
}

// requirePassMatchesOracle drives the symbolic pass row by row on one
// kit — emitting even rows into a fresh slice and odd ones after a
// prefix, so each flush hands the accumulator to the next — against the
// single-Hash oracle's structure, and checks the kit's bitmap is empty
// after every flush. It also runs the one-phase kernel on every row, on
// the same kit, against the oracle's values too, bit for bit.
func requirePassMatchesOracle(t *testing.T, name string, a, b *csr.Matrix) *SymbolicPass {
	t.Helper()
	want, wantData := oracleCompute(a, b, model())
	pass := NewSymbolicPass(a, b, want.RowFlops)
	var kit Kit
	defer kit.Release()
	for i := 0; i < a.Rows; i++ {
		lo, hi := want.RowOffsets[i], want.RowOffsets[i+1]
		wantCols := want.ColIDs[lo:hi]
		if i%2 == 0 {
			if got := len(pass.AppendCols(&kit, i, nil)); got != len(wantCols) {
				t.Fatalf("%s: row %d emits %d columns, oracle %d", name, i, got, len(wantCols))
			}
		} else if got := pass.AppendCols(&kit, i, []int32{-1}); got[0] != -1 || !slices.Equal(got[1:], wantCols) {
			t.Fatalf("%s: row %d emits %d columns after a prefix, oracle %d", name, i, len(got)-1, len(wantCols))
		}
		if kit.two != nil {
			if left := kit.two.FlushSymbolic(); left != 0 {
				t.Fatalf("%s: row %d left %d columns in the bitmap", name, i, left)
			}
		}
		cols, vals, nan := kit.ComputeRow(a, b, i, want.RowFlops[i], nil, nil)
		if !slices.Equal(cols, wantCols) {
			t.Fatalf("%s: one-phase row %d computes %d columns, oracle %d", name, i, len(cols), len(wantCols))
		}
		if nan != slices.ContainsFunc(vals, math.IsNaN) {
			t.Fatalf("%s: one-phase row %d reports nan = %v for %v", name, i, nan, vals)
		}
		for j, v := range vals {
			if math.Float64bits(v) != math.Float64bits(wantData[lo+int64(j)]) {
				t.Fatalf("%s: one-phase row %d value %d: %v, oracle %v", name, i, j, v, wantData[lo+int64(j)])
			}
		}
	}
	return pass
}

// TestComputeRowWindowGate pins the window route's edges: a row of 63
// products and one of 64 in one word, windows of exactly 64 words at
// exactly two products per word and at one fewer product, a window of 64
// words that starts past word 0, and one of 65 words. Each row must be
// routed as stated and, on either route, computed bit for bit as the
// oracle computes it.
func TestComputeRowWindowGate(t *testing.T) {
	const width = 64 * 70
	run := func(lo, hi int) (ids []int32) {
		for c := lo; c < hi; c++ {
			ids = append(ids, int32(c))
		}
		return ids
	}
	var spread []int32 // 126 ids, every 32nd column: words 0 to 62
	for j := 0; j < 126; j++ {
		spread = append(spread, int32(32*j))
	}
	bRows := [][]int32{
		run(0, 32),                // 0
		run(0, 31),                // 1
		run(0, 32),                // 2
		{1, 64*63 + 1},            // 3: words 0 and 63
		spread,                    // 4
		{64*63 + 1},               // 5: word 63
		run(64*64, 64*65),         // 6: word 64, whole
		run(64, 64+130),           // 7: words 1 to 3
		{64*64 + 63},              // 8: word 64
		{7, 64*63 + 5, 64*64 + 9}, // 9: a hole-y row over words 0 to 64
	}
	rows := []struct {
		name   string
		bRows  []int32
		window bool
	}{
		{"63 products in one word", []int32{0, 1}, false},
		{"64 products in one word", []int32{0, 2}, true},
		{"64 words at 2 products per word", []int32{4, 3}, true},
		{"64 words at 127 products", []int32{4, 5}, false},
		{"65 words", []int32{4, 6}, false},
		{"64 words from word 1", []int32{7, 8}, true},
		{"65 words of scattered rows", []int32{9, 4, 6}, false},
	}
	negZero := math.Copysign(0, -1)
	var eb, ea []csr.Entry
	for r, ids := range bRows {
		for j, c := range ids {
			v := 1 + float64((r*7+j)%11)/8
			if j%13 == 5 {
				v = negZero
			}
			eb = append(eb, csr.Entry{Row: int32(r), Col: c, Val: v})
		}
	}
	for i, row := range rows {
		for p, k := range row.bRows {
			ea = append(ea, csr.Entry{Row: int32(i), Col: k, Val: 0.5 + float64(p)})
		}
	}
	b, err := csr.FromEntries(len(bRows), width, eb)
	if err != nil {
		t.Fatal(err)
	}
	a, err := csr.FromEntries(len(rows), len(bRows), ea)
	if err != nil {
		t.Fatal(err)
	}
	flops := csr.RowFlops(a, b, 1)
	for i, row := range rows {
		ac, _ := a.Row(i)
		r, _, _ := routeOf(b, ac, flops[i]/2, true)
		if got := r == windowRoute; got != row.window {
			t.Errorf("%s (%d products): window route %v, want %v", row.name, flops[i]/2, got, row.window)
		}
	}
	requirePassMatchesOracle(t, "window gate", a, b)
}

// TestDegreeOneRowsTouchNoAccumulator pins the short-circuit: a row of A
// with one entry is a scaled copy of its B row — ids from AppendCols,
// (id, value) pairs from ComputeRow, values bit for bit the oracle's
// for −0.0, NaN and ±Inf operands — and fetches no accumulator. A row
// with no entries has no flops, which every caller skips.
func TestDegreeOneRowsTouchNoAccumulator(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	b, _ := csr.FromEntries(3, 6, []csr.Entry{
		{Row: 0, Col: 0, Val: negZero}, {Row: 0, Col: 2, Val: inf}, {Row: 0, Col: 5, Val: 3},
		{Row: 1, Col: 1, Val: nan}, {Row: 1, Col: 4, Val: -inf},
		{Row: 2, Col: 3, Val: 0},
	})
	a, _ := csr.FromEntries(7, 3, []csr.Entry{
		{Row: 0, Col: 0, Val: 2}, {Row: 1, Col: 1, Val: negZero}, {Row: 2, Col: 2, Val: inf},
		{Row: 3, Col: 0, Val: nan}, {Row: 4, Col: 1, Val: -inf}, {Row: 6, Col: 2, Val: negZero},
	}) // row 5 is empty
	requirePassMatchesOracle(t, "degree-1", a, b)
	want, wantData := oracleCompute(a, b, model())
	pass := NewSymbolicPass(a, b, want.RowFlops)
	var kit Kit
	for i := 0; i < a.Rows; i++ {
		if want.RowFlops[i] == 0 {
			continue // as every caller skips it
		}
		lo, hi := want.RowOffsets[i], want.RowOffsets[i+1]
		if got := len(pass.AppendCols(&kit, i, nil)); got != int(hi-lo) {
			t.Fatalf("row %d: emits %d columns, want %d", i, got, hi-lo)
		}
		cols, vals, _ := kit.ComputeRow(a, b, i, want.RowFlops[i], pass.AppendCols(&kit, i, nil), nil)
		if !slices.Equal(cols[:hi-lo], cols[hi-lo:]) || !slices.Equal(cols[:hi-lo], want.ColIDs[lo:hi]) {
			t.Fatalf("row %d: ids %v, want %v twice", i, cols, want.ColIDs[lo:hi])
		}
		for j, v := range vals {
			if w := wantData[lo+int64(j)]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("row %d value %d: %v, want %v", i, j, v, w)
			}
		}
	}
	if kit != (Kit{}) {
		t.Fatalf("degree-0/1 rows fetched an accumulator: %+v", kit)
	}
}

// TestBitmapTierWidths runs the kernel over the panel widths where an
// occupancy word, a summary word and the tier itself end, on operands
// with empty rows and a hub row that touches every occupancy word, with
// B consumed compressed and uncompressed. Up to the cap no row takes the
// hash; one past it the heavy rows, which read the hub row (a product per
// word), keep the bitmap, in the one pass and the walk alike.
func TestBitmapTierWidths(t *testing.T) {
	for _, width := range []int{1, 63, 64, 65, 4095, 4096, 4097, bitmapTierMax, bitmapTierMax + 1} {
		// B: a few random rows, one empty row, and row 0 holding one
		// column in every 64-column word (every word of the bitmap).
		const inner = 48
		var eb []csr.Entry
		for c := 0; c < width; c += 64 {
			eb = append(eb, csr.Entry{Row: 0, Col: int32(c), Val: 1.5})
		}
		rng := rand.New(rand.NewSource(int64(width)))
		for r := 1; r < inner-1; r++ { // row inner-1 stays empty
			for k := 0; k < 5; k++ {
				eb = append(eb, csr.Entry{Row: int32(r), Col: int32(rng.Intn(width)), Val: float64(k) - 1.25})
			}
		}
		b, err := csr.FromEntries(inner, width, dedup(eb))
		if err != nil {
			t.Fatal(err)
		}
		// Heavy A (every row selects many B rows, the hub row included)
		// amortizes compressing B; thin A (one entry in every other row)
		// does not.
		for _, heavy := range []bool{true, false} {
			var ea []csr.Entry
			for r := 0; r < 40; r++ {
				switch {
				case r%5 == 4: // empty A row
				case !heavy:
					if r%2 == 0 {
						ea = append(ea, csr.Entry{Row: int32(r), Col: int32(r % inner), Val: 2})
					}
				default:
					// Rows 0..2 and every B row r selects; inner-1 is the
					// empty B row (flops 0 for that entry).
					for _, k := range []int{0, 1, 2, r % inner, inner - 1} {
						ea = append(ea, csr.Entry{Row: int32(r), Col: int32(k), Val: float64(r) + 0.5})
					}
				}
			}
			a, err := csr.FromEntries(40, inner, dedup(ea))
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("width=%d/heavy=%v", width, heavy)
			pass := requirePassMatchesOracle(t, name, a, b)
			requireMatchesOracle(t, name, a, b)
			if compressed := pass.segs != nil; compressed != heavy {
				t.Fatalf("%s: B compressed = %v, want %v (compressMinFlopsPerNnz)", name, compressed, heavy)
			}
			hash, bitmap := accumsServing(t, a, b)
			if hash || heavy && !bitmap {
				t.Fatalf("%s: hash %v, bitmap %v; want the bitmap alone", name, hash, bitmap)
			}
		}
	}
}

// dedup keeps the first entry of every (row, col) pair.
func dedup(es []csr.Entry) []csr.Entry {
	seen := map[[2]int32]bool{}
	out := es[:0]
	for _, e := range es {
		if k := [2]int32{e.Row, e.Col}; !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

// TestStructureErrorMessage pins both wordings: a count that differs
// from the structure's, and an equal count of other columns.
func TestStructureErrorMessage(t *testing.T) {
	for _, tc := range []struct {
		err  StructureError
		want string
	}{
		{StructureError{Row: 3, Touched: 5, Want: 4}, "row 3 touches 5 distinct columns, its symbolic structure holds 4"},
		{StructureError{Row: 1, Touched: 1, Want: 1}, "row 1 touches a different set of 1 columns than its symbolic structure holds"},
	} {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("%+v: Error() = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestNumericRowsStructureError pins the kernel's one invariant: a row
// whose products touch other columns than its structure holds is a
// typed error from both drivers, never a panic or a silently wrong row.
// Rows computed in groups are held to the column set, not just its size:
// block-diagonal operands against the plan of their pattern, with a B row
// holding one more column than its block (so no longer a block), with a
// block one column short, and with as many columns as the window holds
// but one of them another. The pooled scratch the failed call leaves must
// serve the next call bit for bit.
func TestNumericRowsStructureError(t *testing.T) {
	a := matgen.ER(30, 30, 0.2, 91)
	sym, err := SymbolicCompute(a, a, model())
	if err != nil {
		t.Fatal(err)
	}
	other := matgen.ER(30, 30, 0.2, 92) // same shape, another pattern
	_, err = Numeric(sym, other, other)
	var se *StructureError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a *StructureError", err)
	}
	if se.Touched == se.Want || se.Row < 0 || se.Row >= a.Rows {
		t.Fatalf("implausible structure error %+v", se)
	}

	const nb, bs = 12, 8
	val := func(r, c int) float64 { return 1 + float64((3*r+c)%7)/8 }
	plan := blockMatrix(nb, bs, func(i, j int) bool { return true }, val)
	psym, err := SymbolicCompute(plan, plan, model())
	if err != nil {
		t.Fatal(err)
	}
	want, wantData := oracleCompute(plan, plan, model())
	c := &csr.Matrix{Rows: psym.Rows, Cols: psym.Cols, RowOffsets: psym.RowOffsets, ColIDs: psym.ColIDs,
		Data: make([]float64, len(psym.ColIDs))}
	w := WholeWindow(c)
	s := accum.GetScratch(c.Cols)
	defer accum.PutScratch(s)
	// B row 0 also holds column 80; block 2's B rows lack column 17; block
	// 1's B rows hold column 16 instead of 15.
	stray := withEntries(plan, func(es []csr.Entry) []csr.Entry { return append(es, csr.Entry{Row: 0, Col: 80, Val: 2}) })
	short := withEntries(plan, func(es []csr.Entry) []csr.Entry {
		return slices.DeleteFunc(es, func(e csr.Entry) bool { return e.Row/bs == 2 && e.Col == 17 })
	})
	moved := withEntries(plan, func(es []csr.Entry) []csr.Entry {
		for k, e := range es {
			if e.Row/bs == 1 && e.Col == 15 {
				es[k].Col = 16
			}
		}
		return es
	})
	for _, tc := range []struct {
		name      string
		b         *csr.Matrix
		row       int
		sameCount bool
	}{
		{"a B row with one more column", stray, 0, false},
		{"a block one column short", short, 2 * bs, false},
		{"same count, another column", moved, bs, true},
	} {
		err := NumericRows(plan, tc.b, &w, s, nil, 0, plan.Rows)
		var se *StructureError
		if !errors.As(err, &se) {
			t.Fatalf("%s: err = %v, want a *StructureError", tc.name, err)
		}
		if se.Row != tc.row || (se.Touched == se.Want) != tc.sameCount {
			t.Fatalf("%s: %+v, want row %d with equal counts %v", tc.name, se, tc.row, tc.sameCount)
		}
		if err := NumericRows(plan, plan, &w, s, nil, 0, plan.Rows); err != nil {
			t.Fatalf("%s: the next call: %v", tc.name, err)
		}
		if !slices.Equal(c.ColIDs, want.ColIDs) {
			t.Fatalf("%s: the plan's structure is not the oracle's", tc.name)
		}
		requireSameBits(t, tc.name+": the next call", c.Data, wantData)
	}
}

// blockMatrix is the block-diagonal pattern of nb blocks of bs×bs whose
// entry (i, j) within a block is kept when keep(i, j), valued val(row,
// column).
func blockMatrix(nb, bs int, keep func(i, j int) bool, val func(r, c int) float64) *csr.Matrix {
	var es []csr.Entry
	for base := 0; base < nb*bs; base += bs {
		for i := 0; i < bs; i++ {
			for j := 0; j < bs; j++ {
				if keep(i, j) {
					es = append(es, csr.Entry{Row: int32(base + i), Col: int32(base + j), Val: val(base+i, base+j)})
				}
			}
		}
	}
	m, err := csr.FromEntries(nb*bs, nb*bs, es)
	if err != nil {
		panic(err)
	}
	return m
}

// withEntries rebuilds m from its entries as edit leaves them.
func withEntries(m *csr.Matrix, edit func([]csr.Entry) []csr.Entry) *csr.Matrix {
	var es []csr.Entry
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for k, col := range cols {
			es = append(es, csr.Entry{Row: int32(r), Col: col, Val: vals[k]})
		}
	}
	out, err := csr.FromEntries(m.Rows, m.Cols, edit(es))
	if err != nil {
		panic(err)
	}
	return out
}

// requireSameBits compares two value arrays bit for bit, NaN payloads
// included.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v (%#x), want %v (%#x)", what, i, v, math.Float64bits(v), want[i], math.Float64bits(want[i]))
		}
	}
}

// gridChunk is one chunk of an out-of-core grid over A·B: its operands
// and its window, addressed as core.Engine.window addresses it (Data
// unset).
type gridChunk struct {
	a, b *csr.Matrix
	w    Window
}

// gridChunks cuts A·B's structure into an nr × nc chunk grid and returns
// the chunks and the product's non-zero count.
func gridChunks(t testing.TB, a, b *csr.Matrix, nr, nc int) ([]gridChunk, int) {
	sym, err := SymbolicCompute(a, b, model())
	if err != nil {
		t.Fatal(err)
	}
	rps, err := partition.RowPanels(a, nr)
	if err != nil {
		t.Fatal(err)
	}
	cps, err := partition.ColPanels(b, nc)
	if err != nil {
		t.Fatal(err)
	}
	offs, ids := sym.RowOffsets, sym.ColIDs
	split := make([]int64, (a.Rows+1)*nc)
	for i := 0; i <= a.Rows; i++ {
		row := ids[offs[i]:offs[min(i+1, a.Rows)]]
		for k, cp := range cps {
			split[i*nc+k] = offs[i] + int64(sort.Search(len(row), func(j int) bool { return int(row[j]) >= cp.Start }))
		}
	}
	var chunks []gridChunk
	for _, rp := range rps {
		for k, cp := range cps {
			w := Window{Offs: split[rp.Start*nc+k:], Stride: nc, Cols: ids, ColBase: cp.Start, Width: b.Cols}
			chunks = append(chunks, gridChunk{rp.M, cp.M, w})
		}
	}
	return chunks, len(ids)
}

// stampedGrid computes every chunk of the grid with the stamped body
// alone, into data: the reference the grouped body is held to.
func stampedGrid(t testing.TB, chunks []gridChunk, data []float64, width int) {
	s := accum.GetScratch(width)
	defer accum.PutScratch(s)
	for _, c := range chunks {
		w := c.w
		w.Data = data
		if err := stampedRows(c.a, c.b, &w, s, 0, c.a.Rows, false); err != nil {
			t.Fatal(err)
		}
	}
}

// groupedGrid computes every chunk of the grid with NumericRows on s,
// into data, in two calls cut at row cut of the chunk (or its end): on a
// schedule each call builds, or, with whole, on one built for the chunk
// and run by both calls, as a bound warm replay runs it.
func groupedGrid(t testing.TB, chunks []gridChunk, data []float64, s *accum.Scratch, cut int, whole bool) {
	for _, c := range chunks {
		w, at := c.w, min(cut, c.a.Rows)
		w.Data = data
		var sched *Schedule
		if whole {
			sched = NewSchedule(c.a, c.b, &w, 0, c.a.Rows)
		}
		if err := NumericRows(c.a, c.b, &w, s, sched, 0, at); err != nil {
			t.Fatal(err)
		}
		if err := NumericRows(c.a, c.b, &w, s, sched, at, c.a.Rows); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNumericRowsGroupedBitIdentical holds NumericRows, which computes
// runs of block rows a group at a time, to the stamped body row by row,
// bit for bit, NaN payloads included: block-diagonal products of block
// sizes 1–9 and 63–66 (runs shorter than, as long as and longer than a
// group; column counts on either side of a multiple of four), cut into
// two ranges at every row; B blocks whose rows hold a subset of the
// block's columns (still a block); rows whose B rows are not a block —
// triangular B blocks, A rows naming a subset of a block's rows — which
// the stamped body computes; an out-of-core chunk grid (ColBase,
// Stride); and ±Inf, -0.0 columns, lone -0.0 products and NaNs, in one
// row of a group and in every row of another. One call per chunk on a
// fresh scratch also counts the rows the stamped body computed: every
// row but a block's last (bs mod 4), the groups holding a NaN and those
// whose B rows are not a block is a group's.
func TestNumericRowsGroupedBitIdentical(t *testing.T) {
	forEachBody(t, testNumericRowsGroupedBitIdentical)
}

// forEachBody runs test once per run body, skipping, with the
// missing CPU feature named, a body the host cannot run, and leaves the
// host's choice in place.
func forEachBody(t *testing.T, test func(t *testing.T)) {
	for _, b := range runBodies {
		t.Run(b.name, func(t *testing.T) {
			restore, err := UseBody(b.name)
			if err != nil {
				t.Skip(err)
			}
			defer restore()
			test(t)
		})
	}
}

func testNumericRowsGroupedBitIdentical(t *testing.T) {
	type tcase struct {
		name    string
		a, b    *csr.Matrix
		nr, nc  int
		stamped int // -1: not counted
	}
	var cases []tcase
	for _, bs := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 66} {
		nb := 6
		if bs > 9 {
			nb = 2
		}
		m := matgen.BlockDiag(nb, bs, int64(bs))
		cases = append(cases, tcase{fmt.Sprintf("blocks of %d", bs), m, m, 1, 1, nb * (bs % GroupRows)})
	}
	plain := func(r, c int) float64 { return 1 + float64((7*r+c)%5)/4 }
	all := func(i, j int) bool { return true }
	lower := func(i, j int) bool { return j <= i }
	cases = append(cases, tcase{"triangular B blocks", blockMatrix(2, 8, all, plain), blockMatrix(2, 8, lower, plain), 1, 1, 16})
	grid := matgen.BlockDiag(20, 6, 10)
	cases = append(cases, tcase{"3×3 grid", grid, grid, 3, 3, -1})
	full := blockMatrix(6, 4, all, plain)
	cases = append(cases,
		tcase{"A rows naming a subset of a block", blockMatrix(6, 4, func(i, j int) bool { return j != 1 }, plain), full, 1, 1, 24},
		tcase{"B rows holding a subset of a block", full, blockMatrix(6, 4, func(i, j int) bool { return j != 1 }, plain), 1, 1, 0})

	// Six blocks of four rows, B's blocks full (block groups) or lower
	// triangles (not a block: the stamped body). Block 0 adds an Inf to finite products; in
	// block 1 column 7's products are all -0.0 and column 6's but one, and
	// with triangular B column 7 is a lone -0.0 product; row 9 (block 2)
	// alone holds a NaN; block 3 sums +Inf and -Inf in every row; block 4
	// adds a -Inf; block 5 multiplies by -0.0.
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	sa := blockMatrix(6, 4, all, func(r, c int) float64 {
		switch [2]int{r, c} {
		case [2]int{9, 8}:
			return math.NaN()
		case [2]int{21, 20}:
			return negZero
		}
		return plain(r, c)
	})
	special := func(r, c int) float64 {
		switch {
		case r == 2 && c == 1, r == 13 && c == 12:
			return inf
		case r == 14 && c == 12, r == 19 && c == 17:
			return -inf
		case r/4 == 1 && c == 7, r/4 == 1 && c == 6 && r != 5:
			return negZero
		case r == 5 && c == 6:
			return 0
		}
		return plain(r, c)
	}
	cases = append(cases,
		tcase{"non-finite, blocks", sa, blockMatrix(6, 4, all, special), 1, 1, 8},
		tcase{"non-finite, B not a block", sa, blockMatrix(6, 4, lower, special), 1, 1, 24})

	// One entry per A row, the same for four rows at a time: each value is
	// one product, so -0.0s and an Inf are lone products, in the columns
	// summed four at a time (0–3) and in the rest (4, 5); group 2 holds a
	// NaN in every row, group 5 one NaN (Inf · 0) in its first row and
	// column only.
	var es []csr.Entry
	for r := 0; r < 24; r++ {
		v := plain(r, 0)
		if r == 20 {
			v = inf
		}
		es = append(es, csr.Entry{Row: int32(r), Col: int32(r / 4), Val: v})
	}
	lone, err := csr.FromEntries(24, 6, es)
	if err != nil {
		t.Fatal(err)
	}
	lb := blockMatrix(1, 6, all, func(r, c int) float64 {
		switch [2]int{r, c} {
		case [2]int{1, 2}, [2]int{1, 5}:
			return negZero
		case [2]int{3, 4}:
			return inf
		case [2]int{2, 3}:
			return math.NaN()
		case [2]int{5, 0}:
			return 0
		}
		return plain(r, c)
	})
	cases = append(cases, tcase{"one product per value", lone, lb, 1, 1, 8})

	// A NaN in one row of a group in the middle of a run: blocks of 12 (one
	// run of nine groups), of 13 (runs of three, one tail column on every
	// body), of 5, 6 and 7 (one to three tail columns); on the whole
	// product, where the stamped body computes the NaN's group and every
	// block's last bs mod 4 rows, and on a 2×2 grid (Stride 2).
	for _, bs := range []int{5, 6, 7, 12, 13} {
		mid := bs + bs/2
		na := blockMatrix(3, bs, all, func(r, c int) float64 {
			if r == mid && c == bs {
				return math.NaN()
			}
			return plain(r, c)
		})
		nb := blockMatrix(3, bs, all, plain)
		cases = append(cases,
			tcase{fmt.Sprintf("NaN in a middle group, blocks of %d", bs), na, nb, 1, 1, 3*(bs%GroupRows) + GroupRows},
			tcase{fmt.Sprintf("NaN in a middle group, blocks of %d, 2×2 grid", bs), na, nb, 2, 2, -1})
	}

	for _, tc := range cases {
		chunks, nnz := gridChunks(t, tc.a, tc.b, tc.nr, tc.nc)
		want := make([]float64, nnz)
		stampedGrid(t, chunks, want, tc.b.Cols)

		got := make([]float64, nnz)
		for _, whole := range []bool{false, true} {
			fresh := &accum.Scratch{Vals: make([]float64, tc.b.Cols), Stamp: make([]uint32, tc.b.Cols)}
			groupedGrid(t, chunks, got, fresh, 0, whole)
			requireSameBits(t, tc.name, got, want)
			if n := int(fresh.NextGen()) - 1; tc.stamped >= 0 && n != tc.stamped {
				t.Fatalf("%s: the stamped body computed %d rows, want %d", tc.name, n, tc.stamped)
			}
		}

		s := accum.GetScratch(tc.b.Cols)
		maxRows := 0
		for _, c := range chunks {
			maxRows = max(maxRows, c.a.Rows)
		}
		for cut := 0; cut <= maxRows; cut += 1 + maxRows/40 {
			for _, whole := range []bool{false, true} {
				for i := range got {
					got[i] = math.Float64frombits(0x7ff0dead) // a NaN no kernel writes
				}
				groupedGrid(t, chunks, got, s, cut, whole)
				requireSameBits(t, fmt.Sprintf("%s, cut at row %d (whole schedule %v)", tc.name, cut, whole), got, want)
			}
		}
		accum.PutScratch(s)
	}
}

// TestSumColumnsWidthSweep compares a run of three groups' column sums
// (sumRun) under every body with the scalar loop, bit for bit, over m =
// 1…70 columns (every count of tail columns the quads leave) and n ∈
// {1, 2, 3, 33} B rows, into windows a stride of two apart with gaps
// between them: plain, and with a special planted in the middle group, in
// the first and in the last column of each range the AVX-512 body splits
// m into — sixteen-wide tiles, an eight-wide step, the quads left, the
// one-column tail. The specials are a NaN B value (a NaN in all four
// rows), +Inf and -Inf in one column, a column of -0.0 (every product
// -0.0), and Inf·0 in each row (a NaN in one lane of one register, ±Inf
// in the row's other columns). A run whose middle group holds a NaN must
// stop there, the first group computed and the last untouched; no run
// writes outside its windows.
func TestSumColumnsWidthSweep(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(36))
		inf, negZero := math.Inf(1), math.Copysign(0, -1)
		type special struct {
			name  string
			plant func(av, bv []float64, n, m, col int)
		}
		specials := []special{
			{"plain", func(av, bv []float64, n, m, col int) {}},
			{"NaN B value", func(av, bv []float64, n, m, col int) { bv[(n-1)*m+col] = math.NaN() }},
			{"+Inf and -Inf", func(av, bv []float64, n, m, col int) { bv[col], bv[(n-1)*m+col] = inf, -inf }},
			{"-0.0 column", func(av, bv []float64, n, m, col int) {
				for p := 0; p < n; p++ {
					bv[p*m+col] = negZero
				}
			}},
		}
		for r := range GroupRows {
			specials = append(specials, special{fmt.Sprintf("Inf·0 in row %d", r), func(av, bv []float64, n, m, col int) { av[r*n], bv[col] = inf, 0 }})
		}
		const groups, stride, gap = 3, 2, 3
		unwritten := math.Float64frombits(0x7ff0dead) // a NaN no kernel writes
		for _, n := range []int{1, 2, 3, 33} {
			for m := 1; m <= 70; m++ {
				av, bv := make([]float64, groups*GroupRows*n), make([]float64, groups*n*m)
				for i := range av {
					av[i] = 0.5 + rng.Float64() // positive: a -0.0 B value makes a -0.0 product
				}
				for i := range bv {
					bv[i] = rng.NormFloat64()
				}
				run := make([]span, groups)
				aOffs := make([]int64, groups*GroupRows+1)
				wOffs := make([]int64, groups*GroupRows*stride+1)
				for i := range aOffs {
					aOffs[i] = int64(i * n)
				}
				for i := range wOffs {
					wOffs[i] = int64(i / stride * (m + gap))
				}
				for g := range run {
					run[g] = span{lo: g * GroupRows, hi: (g + 1) * GroupRows, at: int64(g * n * m), n: int64(n), m: int64(m)}
				}
				var cols []int
				for _, r := range [][2]int{{0, m &^ 15}, {m &^ 15, m &^ 7}, {m &^ 7, m &^ 3}, {m &^ 3, m}} {
					if r[0] < r[1] {
						cols = append(cols, r[0], r[1]-1)
					}
				}
				for _, col := range cols {
					for _, sp := range specials {
						a, b := slices.Clone(av), slices.Clone(bv)
						mid := run[1]
						sp.plant(a[aOffs[mid.lo]:], b[mid.at:], n, m, col)
						data := make([]float64, groups*GroupRows*(m+gap))
						for i := range data {
							data[i] = unwritten
						}
						what := fmt.Sprintf("m=%d, n=%d, %s in column %d", m, n, sp.name, col)
						stop := sumRun(a, b, data, aOffs, wOffs, stride, run)
						_, midNaN := scalarColumns(a[aOffs[mid.lo]:][:GroupRows*n], b[mid.at:][:n*m], m)
						if want := map[bool]int{true: 1, false: groups}[midNaN]; stop != want {
							t.Fatalf("%s: the run stops at group %d, want %d", what, stop, want)
						}
						for g, gs := range run {
							want, _ := scalarColumns(a[aOffs[gs.lo]:][:GroupRows*n], b[gs.at:][:n*m], m)
							for i, v := range data[g*GroupRows*(m+gap):][:GroupRows*(m+gap)] {
								r, q := i/(m+gap), i%(m+gap)
								switch {
								case q >= m || g > stop:
									if math.Float64bits(v) != math.Float64bits(unwritten) {
										t.Fatalf("%s: group %d row %d slot %d (past its window or its run) was written", what, g, r, q)
									}
								case g == stop:
								case math.Float64bits(v) != math.Float64bits(want[r*m+q]) && (v == v || want[r*m+q] == want[r*m+q]):
									t.Fatalf("%s: group %d row %d column %d is %v (%#x), want %v (%#x)", what, g, r, q, v, math.Float64bits(v), want[r*m+q], math.Float64bits(want[r*m+q]))
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestNumericRowsScheduleOverrun replays a bound schedule against value
// arrays one element too short — the window's, B's and A's — each of
// which the run body would have read or written past: the call must fail
// or panic before the body runs, and leave the value arrays' last
// elements alone.
func TestNumericRowsScheduleOverrun(t *testing.T) {
	m := matgen.BlockDiag(8, 8, 37)
	sym, err := SymbolicCompute(m, m, model())
	if err != nil {
		t.Fatal(err)
	}
	structure := Window{Offs: sym.RowOffsets, Stride: 1, Cols: sym.ColIDs, Width: m.Cols}
	sched := NewSchedule(m, m, &structure, 0, m.Rows)
	shorter := func(x *csr.Matrix) *csr.Matrix { y := *x; y.Data = x.Data[:len(x.Data)-1]; return &y }
	forEachBody(t, func(t *testing.T) {
		for _, tc := range []struct {
			name string
			a, b *csr.Matrix
			data int
		}{
			{"w.Data", m, m, len(sym.ColIDs) - 1},
			{"b.Data", m, shorter(m), len(sym.ColIDs)},
			{"a.Data", shorter(m), m, len(sym.ColIDs)},
		} {
			w := structure
			w.Data = make([]float64, tc.data, tc.data+1)
			sentinel := math.Float64frombits(0x7ff0dead)
			guard := w.Data[:tc.data+1]
			guard[tc.data] = sentinel
			s := accum.GetScratch(m.Cols)
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				return NumericRows(tc.a, tc.b, &w, s, sched, 0, m.Rows)
			}()
			accum.PutScratch(s)
			if err == nil {
				t.Fatalf("too short %s: NumericRows succeeded", tc.name)
			}
			if math.Float64bits(guard[tc.data]) != math.Float64bits(sentinel) {
				t.Fatalf("too short %s: the element past w.Data was written", tc.name)
			}
		}
	})
}

// TestNumericRowsBoundAllocatesNothing pins that a bound replay — the
// run body over every group — allocates nothing.
func TestNumericRowsBoundAllocatesNothing(t *testing.T) {
	m := matgen.BlockDiag(64, 8, 38)
	sym, err := SymbolicCompute(m, m, model())
	if err != nil {
		t.Fatal(err)
	}
	w := Window{Offs: sym.RowOffsets, Stride: 1, Cols: sym.ColIDs, Data: make([]float64, len(sym.ColIDs)), Width: m.Cols}
	sched := NewSchedule(m, m, &w, 0, m.Rows)
	s := accum.GetScratch(m.Cols)
	defer accum.PutScratch(s)
	if n := testing.AllocsPerRun(20, func() {
		if err := NumericRows(m, m, &w, s, sched, 0, m.Rows); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a bound replay allocates %v times per call, want 0", n)
	}
}

// TestSpanLayout pins the offsets of span's fields that sumRun's assembly
// reads (lo 0, at 16, n 24, m 32) and its size (48).
func TestSpanLayout(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("only the amd64 run body reads spans by offset")
	}
	typ := reflect.TypeFor[span]()
	var got [5]uintptr
	for i, name := range []string{"lo", "at", "n", "m"} {
		f, _ := typ.FieldByName(name)
		got[i] = f.Offset
	}
	if got[4] = typ.Size(); got != [5]uintptr{0, 16, 24, 32, 48} {
		t.Fatalf("span's lo, at, n, m offsets and size are %v, want [0 16 24 32 48]", got)
	}
}

// scalarColumns is sumRun's arithmetic one value at a time: row r's
// column q is Σ_p av[r·n+p] · bv[p·m+q], from -0.0 in p order, every
// product rounded.
func scalarColumns(av, bv []float64, m int) (vals []float64, nan bool) {
	n := len(av) / GroupRows
	vals = make([]float64, GroupRows*m)
	for r := range GroupRows {
		for q := range m {
			s := math.Copysign(0, -1)
			for p := range n {
				s += float64(av[r*n+p] * bv[p*m+q])
			}
			vals[r*m+q] = s
			nan = nan || s != s
		}
	}
	return vals, nan
}

// FuzzNumericRows is the grouped body's differential target. A and B are
// each a block pattern (full blocks, or a random subset of each block's
// columns shared by its rows) or a band, so groups of A rows meet B rows
// that are a block, that hold a subset of one, or that are not one (A
// rows naming a subset, band rows of B); values are normal
// draws with NaN, ±Inf, -0.0 and 0 mixed in at a fuzzed rate; the product
// is cut into a chunk grid of up to 3×3 and each chunk's rows into two
// ranges, run on a schedule per range and on one for the chunk.
// NumericRows must match the stamped body bit for bit, NaN payloads
// included, with every run body the host runs: a group holding a NaN
// is the stamped body's to compute.
func FuzzNumericRows(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(5), uint8(7), uint8(0), uint8(0), uint16(0), int64(1))   // full blocks of 8
	f.Add(uint8(1), uint8(0), uint8(3), uint8(11), uint8(40), uint8(4), uint16(5), int64(2)) // shared subsets, specials, 2×2 grid
	f.Add(uint8(0), uint8(2), uint8(9), uint8(5), uint8(8), uint8(8), uint16(13), int64(3))  // blocks × band
	f.Add(uint8(2), uint8(2), uint8(4), uint8(20), uint8(0), uint8(2), uint16(7), int64(4))  // band × band: no groups
	f.Add(uint8(0), uint8(0), uint8(1), uint8(63), uint8(0), uint8(0), uint16(1), int64(5))  // blocks of 64
	f.Add(uint8(0), uint8(0), uint8(5), uint8(14), uint8(3), uint8(3), uint16(31), int64(6)) // runs of groups, a few NaNs among them, 1×2 grid
	f.Fuzz(func(t *testing.T, kindA, kindB, blocks, size, specials, grid uint8, cut uint16, seed int64) {
		bs := 1 + int(size%70)
		n := bs * (1 + int(blocks%6))
		rng := rand.New(rand.NewSource(seed))
		specialValues := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
		value := func() float64 {
			if rng.Intn(256) < int(specials) {
				return specialValues[rng.Intn(len(specialValues))]
			}
			return rng.NormFloat64()
		}
		pattern := func(kind uint8) *csr.Matrix {
			var es []csr.Entry
			half := bs / 3
			subset := make([]bool, n) // per block: the columns its rows share
			for r := 0; r < n; r++ {
				base := r / bs * bs
				if r == base {
					for c := range subset {
						subset[c] = rng.Intn(3) > 0
					}
				}
				for c := 0; c < n; c++ {
					var keep bool
					switch kind % 3 {
					case 0:
						keep = c/bs == r/bs
					case 1:
						keep = c/bs == r/bs && subset[c]
					default:
						keep = c >= r-half && c <= r+half
					}
					if keep {
						es = append(es, csr.Entry{Row: int32(r), Col: int32(c), Val: value()})
					}
				}
			}
			m, err := csr.FromEntries(n, n, es)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		a, b := pattern(kindA), pattern(kindB)
		chunks, nnz := gridChunks(t, a, b, min(1+int(grid%3), n), min(1+int(grid/3%3), n))
		want := make([]float64, nnz)
		stampedGrid(t, chunks, want, n)
		s := accum.GetScratch(n)
		defer accum.PutScratch(s)
		for _, body := range runBodies {
			restore, err := UseBody(body.name)
			if err != nil {
				continue
			}
			defer restore()
			for _, whole := range []bool{false, true} {
				got := make([]float64, nnz)
				groupedGrid(t, chunks, got, s, int(cut)%(n+1), whole)
				requireSameBits(t, "grouped ("+body.name+") vs stamped", got, want)
			}
		}
	})
}

// TestNumericPooledScratchFirstTouch pins assign-on-first-touch across
// pooled scratch reuse: a lone -0.0 product must come out as -0.0 even
// when the scratch slot still holds a previous chunk's positive value
// (and a previous, wider chunk's stamps).
func TestNumericPooledScratchFirstTouch(t *testing.T) {
	big := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 81)
	if _, err := Compute(big, big, model()); err != nil {
		t.Fatal(err)
	}
	a, _ := csr.FromEntries(2, 2, []csr.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 3}})
	b, _ := csr.FromEntries(2, 2, []csr.Entry{{Row: 0, Col: 1, Val: math.Copysign(0, -1)}, {Row: 1, Col: 1, Val: 2}})
	for run := 0; run < 3; run++ {
		res := requireMatchesOracle(t, "negzero", a, b)
		if v := res.C.Data[0]; v != 0 || !math.Signbit(v) {
			t.Fatalf("run %d: lone -0.0 product came out as %v (signbit %v)", run, v, math.Signbit(v))
		}
		if res.C.Data[1] != 6 {
			t.Fatalf("run %d: second row %v, want 6", run, res.C.Data[1])
		}
	}
}

// TestAnalyzeEqualsChunkGrid ties the whole-matrix row analysis to the
// per-chunk symbolic results of an out-of-core grid: over a row-panel x
// column-panel partition, each row's chunk output sizes (and flops) sum
// to the analysis' row, and the flop split follows from it by the one
// rule.
func TestAnalyzeEqualsChunkGrid(t *testing.T) {
	a := matgen.RMAT(9, 12, 0.57, 0.19, 0.19, 82)
	ra := Analyze(a, a, 1)
	rps, err := partition.RowPanels(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	cps, err := partition.ColPanels(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	rowNnz := make([]int64, a.Rows)
	rowFlops := make([]int64, a.Rows)
	for _, rp := range rps {
		for _, cp := range cps {
			sym, err := SymbolicCompute(rp.M, cp.M, model())
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rp.M.Rows; r++ {
				rowNnz[rp.Start+r] += sym.RowOffsets[r+1] - sym.RowOffsets[r]
				rowFlops[rp.Start+r] += sym.RowFlops[r]
			}
		}
	}
	for r := range rowNnz {
		if got := ra.RowOffsets[r+1] - ra.RowOffsets[r]; got != rowNnz[r] || ra.RowFlops[r] != rowFlops[r] {
			t.Fatalf("row %d: analysis (nnz %d, flops %d) != chunk sums (%d, %d)", r, got, ra.RowFlops[r], rowNnz[r], rowFlops[r])
		}
	}
	want, _ := oracleCompute(a, a, model())
	if ra.OutNnz() != want.RowOffsets[a.Rows] || ra.HashFlops != want.HashFlops || ra.DenseFlops != want.DenseFlops {
		t.Fatalf("analysis (nnz %d, hash %d, dense %d) != oracle (%d, %d, %d)",
			ra.OutNnz(), ra.HashFlops, ra.DenseFlops, want.RowOffsets[a.Rows], want.HashFlops, want.DenseFlops)
	}
	if h, d := SplitFlops(ra.RowFlops, want.RowOffsets); h != ra.HashFlops || d != ra.DenseFlops {
		t.Fatalf("SplitFlops over the product's offsets (%d, %d) != analysis (%d, %d)", h, d, ra.HashFlops, ra.DenseFlops)
	}
	if ra.Bytes() != int64(2*a.Rows+1)*8+4*int64(len(ra.ColIDs)) {
		t.Fatalf("Bytes = %d", ra.Bytes())
	}
}

// TestAnalyzeWorkersMatchSerialWalk: the one structure walk, its rows
// cut into flop-balanced ranges over 1, 2, 3 and 8 workers (B
// compressed beside the flop scan on more than one), is bit for bit a
// serial emit of every row on one kit, with the same HashFlops and
// DenseFlops — on the bitmap tier with and without a compressed B, past
// the tier (a padded B), for a zero-row A, for empty and degree-1 rows,
// and with more workers than rows; past the tier also with B's columns
// spread 64 words apart, so that short rows take the hash. Analyze's gate
// on the total flops compresses B exactly when the pass's gate on the row
// flops does.
func TestAnalyzeWorkersMatchSerialWalk(t *testing.T) {
	rmat := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 91)
	band := matgen.Band(700, 6, 92)
	thin, er := matgen.ER(300, 300, 0.002, 93), matgen.ER(300, 300, 0.02, 94)
	pad := func(m *csr.Matrix) *csr.Matrix { p := *m; p.Cols = bitmapTierMax + 1; return &p }
	cases := []struct {
		name             string
		a, b             *csr.Matrix
		compressed, hash bool
	}{
		{"bitmap", thin, er, false, false},
		{"bitmap-compressed", band, band, true, false},
		{"wide", thin, pad(er), false, false},
		{"wide-compressed", rmat, pad(rmat), true, false},
		{"wide-hash", er, spreadCols(er, 64*64), true, true},
		{"zero-rows", csr.New(0, 300), er, false, false},
		{"few-rows", matgen.ER(3, 512, 0.3, 95), rmat, false, false},
	}
	var empty, degree1 bool
	for _, tc := range cases {
		rf := csr.RowFlops(tc.a, tc.b, 0)
		pass := NewSymbolicPass(tc.a, tc.b, rf)
		if compressed := pass.segs != nil; compressed != tc.compressed {
			t.Fatalf("%s: B compressed = %v, want %v", tc.name, compressed, tc.compressed)
		}
		if gate := compressPays(tc.b, csr.Flops(tc.a, tc.b)); gate != tc.compressed {
			t.Fatalf("%s: Analyze's gate compresses B = %v, want %v", tc.name, gate, tc.compressed)
		}
		if hash, _ := accumsServing(t, tc.a, tc.b); hash != tc.hash {
			t.Fatalf("%s: the hash serves rows = %v, want %v", tc.name, hash, tc.hash)
		}
		ratio, width := 1.0, int64(tc.b.Cols)
		if pass.segs != nil {
			ratio = pass.segs.Ratio()
		}
		for i, f := range rf {
			if k := PickKind(f, ExpectedDistinct(width, f/2), width, ratio); pass.Kind(i) != k {
				t.Fatalf("%s: row %d labelled %v, want %v", tc.name, i, pass.Kind(i), k)
			}
		}
		var kit Kit
		offs, cols := make([]int64, tc.a.Rows+1), []int32{}
		for i, f := range rf {
			if f != 0 {
				cols = pass.AppendCols(&kit, i, cols)
			}
			offs[i+1] = int64(len(cols))
			n := tc.a.RowNnz(i)
			empty, degree1 = empty || n == 0, degree1 || n == 1
		}
		kit.Release()
		hash, dense := SplitFlops(rf, offs)
		for _, workers := range []int{1, 2, 3, 8} {
			ra := Analyze(tc.a, tc.b, workers)
			if !slices.Equal(ra.RowOffsets, offs) || !slices.Equal(ra.ColIDs, cols) || !slices.Equal(ra.RowFlops, rf) {
				t.Fatalf("%s: %d workers: the walk's structure (%d ids) is not the serial emit's (%d ids)",
					tc.name, workers, len(ra.ColIDs), len(cols))
			}
			if ra.HashFlops != hash || ra.DenseFlops != dense {
				t.Fatalf("%s: %d workers: hash %d and dense %d flops, the serial emit's %d and %d",
					tc.name, workers, ra.HashFlops, ra.DenseFlops, hash, dense)
			}
		}
	}
	if !empty || !degree1 {
		t.Fatalf("the cases hold empty rows %v and degree-1 rows %v; want both", empty, degree1)
	}
}

func TestExpectedDistinct(t *testing.T) {
	cases := []struct {
		width, products, wantMin, wantMax int64
	}{
		{0, 5, 0, 0},
		{10, 0, 0, 0},
		{1, 100, 1, 1},
		{100, 1, 1, 1},
		{1000, 10, 9, 10},   // few balls: nearly all distinct
		{10, 10000, 10, 10}, // saturated: the full width
		{100, 100, 60, 100}, // 1-1/e of the width, roughly
	}
	for _, c := range cases {
		got := ExpectedDistinct(c.width, c.products)
		if got < c.wantMin || got > c.wantMax {
			t.Fatalf("ExpectedDistinct(%d, %d) = %d, want [%d, %d]",
				c.width, c.products, got, c.wantMin, c.wantMax)
		}
	}
}

func TestPickClass(t *testing.T) {
	const width = 1024
	if got := PickClass(100, ListClassMax, width); got != ListClass {
		t.Fatalf("tiny row classed %v", got)
	}
	// Sparse row in a very wide panel: the bitmap flush scan would not
	// amortize, so the hash class serves it.
	if got := PickClass(500, 100, 1<<20); got != HashClass {
		t.Fatalf("sparse wide-panel row classed %v", got)
	}
	// Flop-heavy: each output slot revisited many times.
	if got := PickClass(100*8, 100, 1<<20); got != DenseClass {
		t.Fatalf("flop-heavy row classed %v", got)
	}
	// Dense enough for the bitmap scan to amortize (estNnz = width/256)
	// without tripping the flop-heaviness rule.
	if got := PickClass(64, 32, 8192); got != DenseClass {
		t.Fatalf("bitmap-amortized row classed %v", got)
	}
	// Wide output: covers an eighth of the panel.
	if got := PickClass(200, width/8, width); got != DenseClass {
		t.Fatalf("wide row classed %v", got)
	}
}

// TestNumericRowsCheckSet: a row of its own is held to its window's size
// alone unless the window sets CheckSet, which holds it to the exact
// column set. An ER product's structure with one id of one row replaced
// by a column the row's products do not touch (the size kept) passes
// unnoticed without the check and is a *StructureError of equal counts
// at that row with it.
func TestNumericRowsCheckSet(t *testing.T) {
	a := matgen.ER(40, 40, 0.1, 93)
	sym, err := SymbolicCompute(a, a, model())
	if err != nil {
		t.Fatal(err)
	}
	cols := slices.Clone(sym.ColIDs)
	row, at := -1, int64(0)
	for i := 0; i < a.Rows && row < 0; i++ {
		ids := cols[sym.RowOffsets[i]:sym.RowOffsets[i+1]]
		for j := 1; j < len(ids); j++ {
			if ids[j] > ids[j-1]+1 { // a column between two of the row's
				row, at = i, sym.RowOffsets[i]+int64(j)
				cols[at] = ids[j-1] + 1
				break
			}
		}
	}
	if row < 0 {
		t.Fatal("no row with a gap between two of its columns")
	}
	c := &csr.Matrix{Rows: sym.Rows, Cols: sym.Cols, RowOffsets: sym.RowOffsets, ColIDs: cols,
		Data: make([]float64, len(cols))}
	s := accum.GetScratch(c.Cols)
	defer accum.PutScratch(s)
	w := WholeWindow(c)
	if err := NumericRows(a, a, &w, s, nil, 0, a.Rows); err != nil {
		t.Fatalf("without CheckSet: %v; a row of its own is held to its size alone", err)
	}
	w.CheckSet = true
	err = NumericRows(a, a, &w, s, nil, 0, a.Rows)
	var se *StructureError
	if !errors.As(err, &se) || se.Row != row || se.Touched != se.Want {
		t.Fatalf("with CheckSet: err = %v, want a *StructureError of equal counts at row %d", err, row)
	}
}

// BenchmarkAnalyze times the whole-matrix walk on one worker over
// cpuspgemm's wide rungs (its ladder_test.go builds the same four, from
// the same seeds): B wider than the bitmap tier, short rows that miss
// every window (wide_er), rows of one product per summary word
// (wide_long), and rows inside a window (wide_band, wide_rmat).
func BenchmarkAnalyze(b *testing.B) {
	er := func(perRow float64) (*csr.Matrix, *csr.Matrix) {
		return matgen.ER(1<<11, 1<<14, perRow/(1<<14), 909), matgen.ER(1<<14, 1<<22, perRow/(1<<22), 910)
	}
	pad := func(m *csr.Matrix) *csr.Matrix { p := *m; p.Cols = 1 << 21; return &p }
	erA, erB := er(6)
	longA, longB := er(32)
	band := matgen.Band(17<<12, 8, 905)
	bandTop, _ := band.ExtractRows(0, 1<<12)
	rmat := matgen.RMAT(11, 8, 0.57, 0.19, 0.19, 901)
	for _, r := range []struct {
		name string
		a, b *csr.Matrix
	}{
		{"wide_er", erA, erB},
		{"wide_long", longA, longB},
		{"wide_band", bandTop, pad(band)},
		{"wide_rmat", rmat, pad(rmat)},
	} {
		b.Run(r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Analyze(r.a, r.b, 1)
			}
		})
	}
}
