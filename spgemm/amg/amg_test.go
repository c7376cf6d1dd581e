package amg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/csr"
	"repro/internal/matgen"
	"repro/spgemm"
)

// laplacian2D builds the SPD 5-point Laplacian test problem.
func laplacian2D(gx, gy int) *csr.Matrix {
	return matgen.Stencil2D(gx, gy)
}

func TestAggregateCoversAllNodes(t *testing.T) {
	a := laplacian2D(20, 20)
	agg, num := Aggregate(a, 0.08)
	if num <= 0 || num >= a.Rows {
		t.Fatalf("aggregates = %d of %d nodes", num, a.Rows)
	}
	seen := make([]bool, num)
	for i, g := range agg {
		if g < 0 || int(g) >= num {
			t.Fatalf("node %d has aggregate %d outside [0,%d)", i, g, num)
		}
		seen[g] = true
	}
	for g, ok := range seen {
		if !ok {
			t.Fatalf("aggregate %d empty", g)
		}
	}
	// 5-point stencil aggregation should coarsen by roughly 3-6x.
	ratio := float64(a.Rows) / float64(num)
	if ratio < 2 || ratio > 8 {
		t.Fatalf("coarsening ratio %.1f implausible", ratio)
	}
}

func TestProlongatorColumnsPartition(t *testing.T) {
	a := laplacian2D(12, 12)
	agg, num := Aggregate(a, 0.08)
	// Tentative (unsmoothed) prolongator: exactly one unit entry per row.
	p, err := Prolongator(a, agg, num, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Rows != a.Rows || p.Cols != num {
		t.Fatalf("P dims %dx%d", p.Rows, p.Cols)
	}
	for r := 0; r < p.Rows; r++ {
		cols, vals := p.Row(r)
		if len(cols) != 1 || vals[0] != 1 {
			t.Fatalf("tentative P row %d = %v %v", r, cols, vals)
		}
	}
}

func TestProlongatorSmoothed(t *testing.T) {
	a := laplacian2D(12, 12)
	agg, num := Aggregate(a, 0.08)
	p, err := Prolongator(a, agg, num, 2.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Smoothing widens the stencil: strictly more non-zeros than rows.
	if p.Nnz() <= int64(p.Rows) {
		t.Fatalf("smoothed P has only %d nnz for %d rows", p.Nnz(), p.Rows)
	}
	// Constant-preserving: P·1_c = 1_f (rows sum to 1) wherever A has
	// zero row sums, i.e. at interior grid points (boundary rows of the
	// truncated stencil have non-zero row sums, so the smoothed rows
	// there deviate by design).
	sums := p.RowSums()
	for y := 1; y < 11; y++ {
		for x := 1; x < 11; x++ {
			i := y*12 + x
			if math.Abs(sums[i]-1) > 1e-9 {
				t.Fatalf("interior row %d of smoothed P sums to %v", i, sums[i])
			}
		}
	}
}

func TestBuildHierarchyShape(t *testing.T) {
	a := laplacian2D(40, 40)
	h, err := Build(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Levels) < 2 {
		t.Fatalf("hierarchy has %d levels", len(h.Levels))
	}
	for i := 0; i < len(h.Levels)-1; i++ {
		if h.Levels[i+1].A.Rows >= h.Levels[i].A.Rows {
			t.Fatalf("level %d did not coarsen: %d -> %d", i, h.Levels[i].A.Rows, h.Levels[i+1].A.Rows)
		}
		if h.Levels[i].P == nil || h.Levels[i].R == nil {
			t.Fatalf("level %d missing transfer operators", i)
		}
	}
	last := h.Levels[len(h.Levels)-1]
	if last.P != nil || last.R != nil {
		t.Fatal("coarsest level has transfer operators")
	}
	oc := h.OperatorComplexity()
	if oc < 1 || oc > 3 {
		t.Fatalf("operator complexity %.2f outside [1,3]", oc)
	}
}

func TestGalerkinOperatorSymmetryAndNullSpace(t *testing.T) {
	a := laplacian2D(24, 24)
	h, err := Build(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ac := h.Levels[1].A
	// Symmetry: A_c == A_cᵀ (Galerkin of symmetric A).
	if !csr.Equal(ac, ac.Transpose(), 1e-9) {
		t.Fatal("coarse operator not symmetric")
	}
}

func TestSolvePoisson(t *testing.T) {
	a := laplacian2D(32, 32)
	// Pin the operator (pure Neumann Laplacian is singular): add 1 to
	// the first diagonal entry so the system is SPD.
	aa := a.Clone()
	aa.Data[0] += 1
	h, err := Build(aa, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Manufactured solution.
	rng := rand.New(rand.NewSource(9))
	want := make([]float64, aa.Rows)
	for i := range want {
		want[i] = rng.Float64()
	}
	b := make([]float64, aa.Rows)
	if err := aa.MulVec(want, b); err != nil {
		t.Fatal(err)
	}
	x, rel, cycles, err := h.Solve(b, 1e-8, 60)
	if err != nil {
		t.Fatal(err)
	}
	if rel > 1e-8 {
		t.Fatalf("did not converge: rel residual %.2e after %d cycles", rel, cycles)
	}
	var maxErr float64
	for i := range x {
		if e := math.Abs(x[i] - want[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 1e-5 {
		t.Fatalf("solution error %.2e", maxErr)
	}
	t.Logf("converged in %d V-cycles, %d levels, operator complexity %.2f",
		cycles, len(h.Levels), h.OperatorComplexity())
}

func TestSolveWithOutOfCoreMultiplier(t *testing.T) {
	// The hierarchy's Galerkin products run on the simulated GPU, the
	// way a real CPU-GPU node would build a large hierarchy.
	a := laplacian2D(30, 30)
	aa := a.Clone()
	aa.Data[0] += 1
	cfg := spgemm.V100WithMemory(8 << 20)
	gpu, _ := spgemm.ByName("gpu")
	mult := func(x, y *csr.Matrix) (*csr.Matrix, error) {
		c, _, err := gpu.Run(x, y, &spgemm.RunOptions{Device: &cfg, Core: spgemm.OutOfCoreOptions{RowPanels: 2, ColPanels: 2}})
		return c, err
	}
	h, err := Build(aa, Options{Multiply: mult})
	if err != nil {
		t.Fatal(err)
	}
	href, err := Build(aa, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Levels) != len(href.Levels) {
		t.Fatalf("level counts differ: %d vs %d", len(h.Levels), len(href.Levels))
	}
	for i := range h.Levels {
		if !csr.Equal(h.Levels[i].A, href.Levels[i].A, 1e-9) {
			t.Fatalf("level %d operators differ between engines", i)
		}
	}
}

func TestSolveEdgeCases(t *testing.T) {
	a := laplacian2D(8, 8)
	aa := a.Clone()
	aa.Data[0] += 1
	h, err := Build(aa, Options{CoarsestSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Zero rhs: zero solution, zero cycles.
	x, rel, cycles, err := h.Solve(make([]float64, aa.Rows), 1e-10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 0 || rel != 0 {
		t.Fatalf("zero rhs: cycles=%d rel=%v", cycles, rel)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero rhs produced nonzero solution")
		}
	}
	// Wrong rhs length.
	if _, _, _, err := h.Solve(make([]float64, 3), 1e-10, 5); err == nil {
		t.Fatal("expected rhs length error")
	}
	// Non-square matrix.
	if _, err := Build(csr.New(3, 4), Options{}); err == nil {
		t.Fatal("expected non-square error")
	}
	// A column id (7) out of range, on a matrix coarse enough to
	// aggregate.
	corrupt := &csr.Matrix{Rows: 3, Cols: 3, RowOffsets: []int64{0, 1, 2, 3}, ColIDs: []int32{0, 1, 7}, Data: []float64{1, 1, 1}}
	if _, err := Build(corrupt, Options{CoarsestSize: 1}); err == nil {
		t.Fatal("expected invalid-matrix error")
	}
}

func TestBuildTinyMatrixSingleLevel(t *testing.T) {
	a := laplacian2D(4, 4) // 16 unknowns < default CoarsestSize
	h, err := Build(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Levels) != 1 {
		t.Fatalf("tiny matrix produced %d levels", len(h.Levels))
	}
}
