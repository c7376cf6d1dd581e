package speck

import (
	"math/rand"
	"testing"

	"repro/internal/csr"
	"repro/internal/gpusim"
	"repro/internal/matgen"
	"repro/internal/partition"
)

func model() CostModel {
	return ModelFromDevice(gpusim.V100Config())
}

// seqRef is a naive sequential Gustavson reference (map accumulator).
// cpuspgemm.Sequential is the repository-wide ground truth, but this
// package sits below cpuspgemm in the import graph, so the tests carry
// their own copy.
func seqRef(a, b *csr.Matrix) (*csr.Matrix, error) {
	entries := make([]csr.Entry, 0)
	row := map[int32]float64{}
	for i := 0; i < a.Rows; i++ {
		ac, av := a.Row(i)
		for p := range ac {
			bc, bv := b.Row(int(ac[p]))
			for q := range bc {
				row[bc[q]] += av[p] * bv[q]
			}
		}
		for c, v := range row {
			entries = append(entries, csr.Entry{Row: int32(i), Col: c, Val: v})
			delete(row, c)
		}
	}
	return csr.FromEntries(a.Rows, b.Cols, entries)
}

func TestComputeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		a := matgen.ER(30+rng.Intn(40), 40, 0.12, rng.Int63())
		b := matgen.ER(40, 30+rng.Intn(40), 0.12, rng.Int63())
		want, err := seqRef(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Compute(a, b, model())
		if err != nil {
			t.Fatal(err)
		}
		if err := got.C.Validate(); err != nil {
			t.Fatalf("chunk invalid: %v", err)
		}
		if !csr.Equal(got.C, want, 1e-12) {
			t.Fatalf("trial %d: %s", trial, csr.Diff(got.C, want, 1e-12))
		}
	}
}

func TestComputeOnPanels(t *testing.T) {
	// Multiply a row panel of A with a column panel of A and check
	// against the corresponding block of the sequential product.
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 5)
	full, err := seqRef(a, a)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := partition.RowPanels(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := partition.ColPanels(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, rp := range rows {
		for _, cp := range cols {
			res, err := Compute(rp.M, cp.M, model())
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < res.C.Rows; r++ {
				cc, cv := res.C.Row(r)
				fc, fv := full.Row(rp.Start + r)
				// Extract the full row's entries within the panel range.
				var wantCols []int32
				var wantVals []float64
				for i := range fc {
					if int(fc[i]) >= cp.Start && int(fc[i]) < cp.End {
						wantCols = append(wantCols, fc[i]-int32(cp.Start))
						wantVals = append(wantVals, fv[i])
					}
				}
				if len(cc) != len(wantCols) {
					t.Fatalf("chunk[%d][%d] row %d nnz %d, want %d", rp.Start, cp.Start, r, len(cc), len(wantCols))
				}
				for i := range cc {
					if cc[i] != wantCols[i] || cv[i] != wantVals[i] {
						t.Fatalf("chunk[%d][%d] row %d element %d mismatch", rp.Start, cp.Start, r, i)
					}
				}
			}
		}
	}
}

func TestGroupsPartitionNonEmptyRows(t *testing.T) {
	a := matgen.RMAT(8, 8, 0.57, 0.19, 0.19, 6)
	res, err := Compute(a, a, model())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	var groupFlops int64
	for _, g := range res.Groups {
		if len(g.Rows) == 0 {
			t.Fatal("empty group")
		}
		for _, r := range g.Rows {
			if seen[r] {
				t.Fatalf("row %d in two groups", r)
			}
			seen[r] = true
			if res.UpperBounds[r] == 0 {
				t.Fatalf("row %d with zero upper bound grouped", r)
			}
		}
		groupFlops += g.Flops
	}
	for r := 0; r < a.Rows; r++ {
		if res.UpperBounds[r] > 0 && !seen[int32(r)] {
			t.Fatalf("row %d with work not grouped", r)
		}
	}
	if groupFlops != res.Flops {
		t.Fatalf("group flops %d != total %d", groupFlops, res.Flops)
	}
	if res.HashFlops+res.DenseFlops != res.Flops {
		t.Fatalf("hash %d + dense %d != total %d", res.HashFlops, res.DenseFlops, res.Flops)
	}
}

func TestDenseRowsUseDenseGroups(t *testing.T) {
	// A block-diagonal matrix of dense blocks: every output row's
	// worst case is the full block width, far above width/4 of the
	// narrow panel... use one panel = whole matrix; width = n, block
	// rows have ub = bs*bs/bs = bs... Construct instead a small dense
	// matrix where ub == width.
	a := matgen.BlockDiag(1, 12, 3) // fully dense 12x12
	res, err := Compute(a, a, model())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("no groups")
	}
	for _, g := range res.Groups {
		if g.Kind != DenseGroup {
			t.Fatalf("dense matrix produced %v group", g.Kind)
		}
	}
	if res.HashFlops != 0 {
		t.Fatalf("dense matrix has hash flops %d", res.HashFlops)
	}
}

func TestSparseRowsUseHashGroups(t *testing.T) {
	// Very sparse wide matrix: upper bounds tiny relative to width.
	a := matgen.ER(200, 200, 0.01, 7)
	res, err := Compute(a, a, model())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Groups {
		if g.Kind != HashGroup {
			t.Fatalf("sparse matrix produced %v group (class %d)", g.Kind, g.SizeClass)
		}
	}
}

func TestCostsPositiveAndOrdered(t *testing.T) {
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 8)
	res, err := Compute(a, a, model())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumericSec <= 0 || res.SymbolicSec <= 0 || res.AnalysisSec <= 0 {
		t.Fatalf("non-positive costs: %+v", res)
	}
	if res.AnalysisSec >= res.SymbolicSec || res.SymbolicSec >= res.NumericSec {
		t.Fatalf("phase cost ordering violated: analysis %v symbolic %v numeric %v",
			res.AnalysisSec, res.SymbolicSec, res.NumericSec)
	}
	if res.OutputBytes != res.C.Bytes() {
		t.Fatalf("OutputBytes %d != C.Bytes %d", res.OutputBytes, res.C.Bytes())
	}
	if res.WorkspaceBytes <= 0 {
		t.Fatal("no workspace modeled")
	}
}

func TestFlopsMatchCSRFlops(t *testing.T) {
	a := matgen.Band(300, 3, 9)
	res, err := Compute(a, a, model())
	if err != nil {
		t.Fatal(err)
	}
	if want := csr.Flops(a, a); res.Flops != want {
		t.Fatalf("Flops = %d, want %d", res.Flops, want)
	}
}

func TestEmptyChunk(t *testing.T) {
	a := csr.New(10, 10)
	res, err := Compute(a, a, model())
	if err != nil {
		t.Fatal(err)
	}
	if res.C.Nnz() != 0 || res.Flops != 0 || len(res.Groups) != 0 {
		t.Fatalf("empty chunk produced work: %+v", res)
	}
}

func TestDimensionMismatch(t *testing.T) {
	if _, err := Compute(csr.New(3, 4), csr.New(5, 3), model()); err == nil {
		t.Fatal("expected dimension mismatch")
	}
}

func TestTopK(t *testing.T) {
	xs := []int64{5, 1, 9, 3, 7}
	top := topK(xs, 2)
	if len(top) != 2 {
		t.Fatalf("topK len = %d", len(top))
	}
	sum := top[0] + top[1]
	if sum != 16 {
		t.Fatalf("topK = %v, want {9,7}", top)
	}
	if got := topK(xs, 10); len(got) != 5 {
		t.Fatalf("topK over-length = %v", got)
	}
}

func TestGroupKindString(t *testing.T) {
	if HashGroup.String() != "hash" || DenseGroup.String() != "dense" {
		t.Fatal("GroupKind.String wrong")
	}
}

func TestAnalyzeConsistentWithCompute(t *testing.T) {
	for _, gen := range []*csr.Matrix{
		matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 60),
		matgen.Band(500, 5, 61),
	} {
		ra := Analyze(gen, gen)
		hashF, denseF, outNnz := ra.HashFlops, ra.DenseFlops, ra.OutNnz()
		res, err := Compute(gen, gen, model())
		if err != nil {
			t.Fatal(err)
		}
		if hashF != res.HashFlops || denseF != res.DenseFlops {
			t.Fatalf("classification (%d,%d) != compute (%d,%d)",
				hashF, denseF, res.HashFlops, res.DenseFlops)
		}
		if outNnz != res.C.Nnz() {
			t.Fatalf("symbolic nnz %d != product nnz %d", outNnz, res.C.Nnz())
		}
	}
}
