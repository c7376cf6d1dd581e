package partition

import (
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

func TestBounds(t *testing.T) {
	b := Bounds(10, 3)
	want := []int{0, 3, 6, 10}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("Bounds(10,3) = %v", b)
		}
	}
	if b := Bounds(5, 5); b[1] != 1 || b[5] != 5 {
		t.Fatalf("Bounds(5,5) = %v", b)
	}
	if b := Bounds(0, 1); b[0] != 0 || b[1] != 0 {
		t.Fatalf("Bounds(0,1) = %v", b)
	}
}

func TestRowPanelsReassemble(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 37, 20, 0.2)
	for _, num := range []int{1, 2, 5, 37} {
		panels, err := RowPanels(a, num)
		if err != nil {
			t.Fatalf("RowPanels(%d): %v", num, err)
		}
		if len(panels) != num {
			t.Fatalf("got %d panels, want %d", len(panels), num)
		}
		row := 0
		for _, p := range panels {
			if p.Start != row {
				t.Fatalf("panel start %d, want %d", p.Start, row)
			}
			if err := p.M.Validate(); err != nil {
				t.Fatalf("panel invalid: %v", err)
			}
			for r := 0; r < p.M.Rows; r++ {
				pc, pv := p.M.Row(r)
				ac, av := a.Row(p.Start + r)
				if len(pc) != len(ac) {
					t.Fatalf("panel row %d nnz mismatch", r)
				}
				for i := range pc {
					if pc[i] != ac[i] || pv[i] != av[i] {
						t.Fatalf("panel row %d element %d mismatch", r, i)
					}
				}
			}
			row = p.End
		}
		if row != a.Rows {
			t.Fatalf("panels cover %d rows, want %d", row, a.Rows)
		}
	}
}

// TestRowPanelsShareA: a row panel is a view — its column ids and values
// are A's own arrays, capped at the panel's end so an append cannot
// reach the next panel — and only its row offsets are its own.
func TestRowPanelsShareA(t *testing.T) {
	a := matgen.RMAT(8, 6, 0.57, 0.19, 0.19, 4)
	panels, err := RowPanels(a, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range panels {
		lo, hi := a.RowOffsets[p.Start], a.RowOffsets[p.End]
		if lo == hi {
			t.Fatalf("panel %d is empty; the input should give every panel entries", i)
		}
		if &p.M.ColIDs[0] != &a.ColIDs[lo] || &p.M.Data[0] != &a.Data[lo] {
			t.Fatalf("panel %d copies A's arrays", i)
		}
		if cap(p.M.ColIDs) != int(hi-lo) || cap(p.M.Data) != int(hi-lo) {
			t.Fatalf("panel %d: capacities %d, %d reach past its %d entries", i, cap(p.M.ColIDs), cap(p.M.Data), hi-lo)
		}
		if &p.M.RowOffsets[0] == &a.RowOffsets[p.Start] {
			t.Fatalf("panel %d shares A's row offsets", i)
		}
	}
}

func TestRowPanelsErrors(t *testing.T) {
	a := csr.New(5, 5)
	if _, err := RowPanels(a, 0); err == nil {
		t.Fatal("expected error for 0 panels")
	}
	if _, err := RowPanels(a, 6); err == nil {
		t.Fatal("expected error for more panels than rows")
	}
}

// colPanelsSimplistic is the oracle of the column partitioners: the
// unoptimized algorithm the paper describes first, in which each panel
// scans every row in full — O(panels · nnz).
func colPanelsSimplistic(b *csr.Matrix, num int) ([]ColPanel, error) {
	if err := checkColArgs(b, num); err != nil {
		return nil, err
	}
	bounds := Bounds(b.Cols, num)
	out := make([]ColPanel, num)
	for p := 0; p < num; p++ {
		startCol, endCol := int32(bounds[p]), int32(bounds[p+1])
		// Stage 1: count non-zeros per row within the column range.
		pm := &csr.Matrix{Rows: b.Rows, Cols: int(endCol - startCol), RowOffsets: make([]int64, b.Rows+1)}
		for r := 0; r < b.Rows; r++ {
			var n int64
			for q := b.RowOffsets[r]; q < b.RowOffsets[r+1]; q++ {
				if c := b.ColIDs[q]; c >= startCol && c < endCol {
					n++
				}
			}
			pm.RowOffsets[r+1] = pm.RowOffsets[r] + n
		}
		// Stage 2: allocate, then fill.
		nnz := pm.RowOffsets[b.Rows]
		pm.ColIDs = make([]int32, nnz)
		pm.Data = make([]float64, nnz)
		w := int64(0)
		for r := 0; r < b.Rows; r++ {
			for q := b.RowOffsets[r]; q < b.RowOffsets[r+1]; q++ {
				if c := b.ColIDs[q]; c >= startCol && c < endCol {
					pm.ColIDs[w] = c - startCol
					pm.Data[w] = b.Data[q]
					w++
				}
			}
		}
		out[p] = ColPanel{Start: int(startCol), End: int(endCol), M: pm}
	}
	return out, nil
}

// structureOf returns m's pattern with zero values.
func structureOf(m *csr.Matrix) *csr.Matrix {
	return &csr.Matrix{Rows: m.Rows, Cols: m.Cols, RowOffsets: m.RowOffsets, ColIDs: m.ColIDs,
		Data: make([]float64, len(m.ColIDs))}
}

// reassembleCols rebuilds B from its column panels for verification.
func reassembleCols(t *testing.T, rows, cols int, panels []ColPanel) *csr.Matrix {
	t.Helper()
	var es []csr.Entry
	for _, p := range panels {
		if p.M.Cols != p.End-p.Start {
			t.Fatalf("panel [%d,%d) has width %d", p.Start, p.End, p.M.Cols)
		}
		m := p.M
		if m.Data == nil {
			m = structureOf(m)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("panel [%d,%d) invalid: %v", p.Start, p.End, err)
		}
		for r := 0; r < m.Rows; r++ {
			pc, pv := m.Row(r)
			for i := range pc {
				es = append(es, csr.Entry{Row: int32(r), Col: pc[i] + int32(p.Start), Val: pv[i]})
			}
		}
	}
	m, err := csr.FromEntries(rows, cols, es)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// colPartitioner is one column partitioner under test; structural ones
// carry no values.
type colPartitioner struct {
	name       string
	fn         func(*csr.Matrix, int) ([]ColPanel, error)
	structural bool
}

func partitioners() []colPartitioner {
	return []colPartitioner{
		{"simplistic", colPanelsSimplistic, false},
		{"coloffset", ColPanels, false},
		{"parallel-1", func(b *csr.Matrix, n int) ([]ColPanel, error) { return ColPanelsParallel(b, n, 1) }, true},
		{"parallel-4", func(b *csr.Matrix, n int) ([]ColPanel, error) { return ColPanelsParallel(b, n, 4) }, true},
	}
}

// TestColPanelsReassemble: every partitioner's panels put back together
// are B — the values too, except for the structural partitioner, whose
// panels are compared by pattern and must carry no values.
func TestColPanelsReassemble(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, pt := range partitioners() {
		for trial := 0; trial < 5; trial++ {
			b := randomMatrix(rng, 20+rng.Intn(30), 15+rng.Intn(30), 0.15)
			want := b
			if pt.structural {
				want = structureOf(b)
			}
			for _, num := range []int{1, 2, 3, 7} {
				panels, err := pt.fn(b, num)
				if err != nil {
					t.Fatalf("%s(%d): %v", pt.name, num, err)
				}
				for _, p := range panels {
					if pt.structural && p.M.Data != nil {
						t.Fatalf("%s(%d): panel [%d,%d) carries values", pt.name, num, p.Start, p.End)
					}
				}
				got := reassembleCols(t, b.Rows, b.Cols, panels)
				if !csr.Equal(want, got, 0) {
					t.Fatalf("%s(%d): reassembly mismatch: %s", pt.name, num, csr.Diff(want, got, 0))
				}
			}
		}
	}
}

func TestColPartitionersAgree(t *testing.T) {
	b := matgen.RMAT(9, 6, 0.57, 0.19, 0.19, 3)
	for _, num := range []int{1, 3, 8} {
		oracle, err := colPanelsSimplistic(b, num)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range partitioners()[1:] {
			got, err := pt.fn(b, num)
			if err != nil {
				t.Fatalf("%s: %v", pt.name, err)
			}
			for i := range oracle {
				g, want := got[i].M, oracle[i].M
				if pt.structural {
					g, want = structureOf(g), structureOf(want)
				}
				if got[i].Start != oracle[i].Start || got[i].End != oracle[i].End {
					t.Fatalf("%s: panel %d range [%d,%d) want [%d,%d)", pt.name, i, got[i].Start, got[i].End, oracle[i].Start, oracle[i].End)
				}
				if !csr.Equal(g, want, 0) {
					t.Fatalf("%s: panel %d contents differ: %s", pt.name, i, csr.Diff(g, want, 0))
				}
			}
		}
	}
}

func TestColPanelsNnzConservation(t *testing.T) {
	b := matgen.Band(500, 3, 7)
	for _, pt := range partitioners() {
		panels, err := pt.fn(b, 5)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, p := range panels {
			total += p.M.Nnz()
		}
		if total != b.Nnz() {
			t.Fatalf("%s: panels hold %d nnz, matrix has %d", pt.name, total, b.Nnz())
		}
	}
}

func TestColPanelsEmptyMatrix(t *testing.T) {
	b := csr.New(10, 10)
	for _, pt := range partitioners() {
		panels, err := pt.fn(b, 3)
		if err != nil {
			t.Fatalf("%s: %v", pt.name, err)
		}
		for _, p := range panels {
			if p.M.Nnz() != 0 {
				t.Fatalf("%s: empty matrix produced nnz", pt.name)
			}
		}
	}
}

func TestColPanelsErrors(t *testing.T) {
	b := csr.New(4, 4)
	for _, pt := range partitioners() {
		if _, err := pt.fn(b, 0); err == nil {
			t.Fatalf("%s: expected error for 0 panels", pt.name)
		}
		if _, err := pt.fn(b, 5); err == nil {
			t.Fatalf("%s: expected error for more panels than columns", pt.name)
		}
	}
}

func BenchmarkColPanelsSimplistic(b *testing.B) {
	m := matgen.RMAT(12, 8, 0.57, 0.19, 0.19, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := colPanelsSimplistic(m, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColPanelsColOffset(b *testing.B) {
	m := matgen.RMAT(12, 8, 0.57, 0.19, 0.19, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ColPanels(m, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColPanelsParallel(b *testing.B) {
	m := matgen.RMAT(12, 8, 0.57, 0.19, 0.19, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ColPanelsParallel(m, 8, 4); err != nil {
			b.Fatal(err)
		}
	}
}
