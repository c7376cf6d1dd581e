package spgemm

import (
	"math/rand"
	"testing"
)

// planMargin mirrors Plan's internal memory accounting so the boundary
// tests hit the exact threshold.
func planMargin(a, b *Matrix) (inputs, margin int64) {
	inputs = a.Bytes() + b.Bytes()
	margin = inputs/4 + int64(a.Rows)*24 + (1 << 16)
	return inputs, margin
}

func TestGridForBudgetExceedsMatrix(t *testing.T) {
	// A chunk budget larger than rows x cols must terminate and cap at
	// the full grid, never exceed either dimension.
	cases := []struct{ chunks, rows, cols int }{
		{100, 4, 4},
		{1 << 30, 3, 5},
		{7, 1, 3},
		{7, 3, 1},
		{1, 1, 1},
	}
	for _, c := range cases {
		r, col := gridFor(c.chunks, c.rows, c.cols)
		if r < 1 || col < 1 || r > c.rows || col > c.cols {
			t.Fatalf("gridFor(%d, %d, %d) = %dx%d out of bounds", c.chunks, c.rows, c.cols, r, col)
		}
		if c.chunks >= c.rows*c.cols && r*col != c.rows*c.cols {
			t.Fatalf("gridFor(%d, %d, %d) = %dx%d, want the full %dx%d grid",
				c.chunks, c.rows, c.cols, r, col, c.rows, c.cols)
		}
	}
	// Satisfiable budgets must be met.
	if r, c := gridFor(6, 8, 8); r*c < 6 {
		t.Fatalf("gridFor(6, 8, 8) = %dx%d < 6 chunks", r, c)
	}
}

func TestPlanDegenerateShapes(t *testing.T) {
	// 1 x N times N x 1 and the transposed pair: the planner must
	// produce a legal grid for single-row and single-column operands.
	n := 512
	var rowEntries, colEntries []Entry
	for j := 0; j < n; j++ {
		rowEntries = append(rowEntries, Entry{Row: 0, Col: int32(j), Val: 1})
		colEntries = append(colEntries, Entry{Row: int32(j), Col: 0, Val: 1})
	}
	rowVec, err := FromEntries(1, n, rowEntries)
	if err != nil {
		t.Fatal(err)
	}
	colVec, err := FromEntries(n, 1, colEntries)
	if err != nil {
		t.Fatal(err)
	}
	cfg := V100WithMemory(1 << 20)
	for _, pair := range []struct {
		name string
		a, b *Matrix
	}{
		{"1xN * Nx1", rowVec, colVec},
		{"Nx1 * 1xN", colVec, rowVec},
	} {
		opts, err := Plan(pair.a, pair.b, cfg)
		if err != nil {
			t.Fatalf("%s: %v", pair.name, err)
		}
		if opts.RowPanels < 1 || opts.RowPanels > pair.a.Rows ||
			opts.ColPanels < 1 || opts.ColPanels > pair.b.Cols {
			t.Fatalf("%s: illegal grid %dx%d for %dx%d output",
				pair.name, opts.RowPanels, opts.ColPanels, pair.a.Rows, pair.b.Cols)
		}
		c, _, err := registry["gpu"].Run(pair.a, pair.b, &RunOptions{Device: &cfg, Core: opts})
		if err != nil {
			t.Fatalf("%s: %v", pair.name, err)
		}
		ref, err := Multiply(pair.a, pair.b)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(c, ref, 1e-9) {
			t.Fatalf("%s: planned out-of-core product wrong", pair.name)
		}
	}
}

func TestPlanMemoryAtMarginBoundary(t *testing.T) {
	a := Band(256, 4, 3)
	inputs, margin := planMargin(a, a)

	// Exactly inputs + margin leaves zero bytes for chunk outputs: Plan
	// must refuse rather than divide by (or near) zero.
	if _, err := Plan(a, a, V100WithMemory(inputs+margin)); err == nil {
		t.Fatal("Plan accepted a device with zero available output memory")
	}
	// One byte below the boundary must also fail.
	if _, err := Plan(a, a, V100WithMemory(inputs+margin-1)); err == nil {
		t.Fatal("Plan accepted a device below the margin boundary")
	}
	// One byte above: the tightest legal device. The grid is maximally
	// fine but must stay within the output dimensions and still run.
	opts, err := Plan(a, a, V100WithMemory(inputs+margin+1))
	if err != nil {
		t.Fatal(err)
	}
	if opts.RowPanels < 1 || opts.RowPanels > a.Rows || opts.ColPanels < 1 || opts.ColPanels > a.Cols {
		t.Fatalf("illegal grid %dx%d at the margin boundary", opts.RowPanels, opts.ColPanels)
	}
	if opts.RowPanels*opts.ColPanels != a.Rows*a.Cols {
		t.Fatalf("one spare byte should plan the finest grid, got %dx%d", opts.RowPanels, opts.ColPanels)
	}
}

// TestPlanBoundToItsOperands hands the plan of A·A to a run of B·B,
// where B has A's shape and row lengths but other columns, both as
// Plan's options and as EstimateCost's write-back. The planner's row
// analysis (C's structure) is bound to the operands it was computed
// from, so every device engine analyses B·B again and returns its
// product. With random columns a stale structure made the run fail;
// with banded ones, whose products all have 16 entries per row, it
// returned a wrong product without an error.
func TestPlanBoundToItsOperands(t *testing.T) {
	const n, perRow = 512, 4
	build := func(col func(i, k int) int) *Matrix {
		var entries []Entry
		for i := 0; i < n; i++ {
			for k := 0; k < perRow; k++ {
				entries = append(entries, Entry{Row: int32(i), Col: int32(col(i, k)), Val: float64(1 + k)})
			}
		}
		m, err := FromEntries(n, n, entries)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	random := func(seed int64) *Matrix {
		rng := rand.New(rand.NewSource(seed))
		var perm []int
		return build(func(i, k int) int {
			if k == 0 {
				perm = rng.Perm(n)
			}
			return perm[k]
		})
	}
	banded := func(offset int) *Matrix { return build(func(i, k int) int { return (perRow*i + k + offset) % n }) }
	cfg := V100WithMemory(1 << 20)
	for _, pair := range []struct {
		name string
		a, b *Matrix
	}{{"random", random(1), random(2)}, {"banded", banded(0), banded(7)}} {
		a, b := pair.a, pair.b
		want, err := Multiply(b, b)
		if err != nil {
			t.Fatal(err)
		}
		planned, err := Plan(a, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"gpu", "gpu-sync", "hybrid", "multigpu"} {
			estimated := &RunOptions{Device: &cfg}
			if _, err := EstimateCost(name, a, a, estimated); err != nil {
				t.Fatalf("%s %s: %v", pair.name, name, err)
			}
			for how, o := range map[string]*RunOptions{"Plan": {Device: &cfg, Core: planned}, "EstimateCost": estimated} {
				c, _, err := registry[name].Run(b, b, o)
				if err != nil {
					t.Fatalf("%s %s with %s's grid for A·A: %v", pair.name, name, how, err)
				}
				if !Equal(c, want, 0) {
					t.Fatalf("%s %s with %s's grid for A·A: product differs from B·B", pair.name, name, how)
				}
			}
		}
	}
}
