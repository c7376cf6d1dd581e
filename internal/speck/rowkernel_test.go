package speck

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
		RowFlops: csr.RowFlops(a, b), UpperBounds: csr.RowUpperBounds(a, b)}
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

// kindsUsed reports which kernels the symbolic pass of A·B bins rows
// with flops to.
func kindsUsed(a, b *csr.Matrix) (used [NumKinds]bool) {
	rf := csr.RowFlops(a, b)
	p := NewSymbolicPass(a, b, rf)
	for i, f := range rf {
		if f != 0 {
			used[p.Kind(i)] = true
		}
	}
	return used
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

	// A panel wider than 2^16 columns has no direct bitmap: dense-class
	// rows (here ~600 products each) must take the CSeg kernel.
	wideA := matgen.ER(40, 60, 0.5, 77)
	wideB := matgen.ER(60, 1<<16+500, 20.0/(1<<16), 78)
	check("wide-cseg", wideA, wideB)
	if u := kindsUsed(wideA, wideB); !u[KindCSeg] || u[KindDense] {
		t.Fatalf("wide panel: kinds %v, want cseg and no bitmap", u)
	}

	// Sparse rows of an unclustered product in a wide panel stay on the
	// presized hash.
	check("wide-hash", matgen.ER(200, 400, 0.03, 79), matgen.ER(400, 1<<14, 5.0/(1<<14), 80))

	for k, u := range used {
		if !u {
			t.Errorf("no test input reaches the %s kernel", Kind(k))
		}
	}
}

// requirePassMatchesOracle drives the symbolic pass row by row on one
// kit — counting even rows, emitting odd ones, so both flushes hand the
// accumulator to the other — against the single-Hash oracle's
// structure, and checks the kit's bitmap is empty after every flush.
func requirePassMatchesOracle(t *testing.T, name string, a, b *csr.Matrix) *SymbolicPass {
	t.Helper()
	want, _ := oracleCompute(a, b, model())
	pass := NewSymbolicPass(a, b, want.RowFlops)
	var kit Kit
	defer kit.Release()
	for i := 0; i < a.Rows; i++ {
		wantCols := want.ColIDs[want.RowOffsets[i]:want.RowOffsets[i+1]]
		if i%2 == 0 {
			if got := pass.Count(&kit, i); got != len(wantCols) {
				t.Fatalf("%s: row %d count %d, oracle %d", name, i, got, len(wantCols))
			}
		} else if got := pass.AppendCols(&kit, i, nil); !slices.Equal(got, wantCols) {
			t.Fatalf("%s: row %d emits %d columns, oracle %d", name, i, len(got), len(wantCols))
		}
		if kit.two != nil {
			if left := kit.two.FlushSymbolic(); left != 0 {
				t.Fatalf("%s: row %d left %d columns in the bitmap", name, i, left)
			}
		}
	}
	return pass
}

// TestBitmapTierWidths runs the kernel over the panel widths where an
// occupancy word, a summary word and the tier itself end, on operands
// with empty rows and a hub row that touches every occupancy word, with
// B consumed compressed and uncompressed. One past the cap the rows
// must leave the bitmap for the CSeg/hash route.
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
			used := kindsUsed(a, b)
			if width > bitmapTierMax && (used[KindDense] || !(used[KindCSeg] || used[KindHash] || used[KindList])) {
				t.Fatalf("%s: kinds %v past the tier, want the cseg/hash/list route", name, used)
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

// TestNumericRowsStructureError pins the kernel's one invariant: a row
// whose products touch a different number of distinct columns than its
// structure holds is a typed error from both drivers, never a panic or
// a silently short row.
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
	ra := Analyze(a, a)
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
	if ra.Bytes() != int64(2*a.Rows+1)*8 {
		t.Fatalf("Bytes = %d", ra.Bytes())
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
