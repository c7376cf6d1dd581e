package repro

import (
	"path/filepath"
	"testing"

	"repro/spgemm"
)

// TestEndToEndFileWorkflow exercises the full user workflow: generate
// a matrix, write it to disk, read it back, multiply it out-of-core,
// write the product, read the product, and verify everything against
// the CPU engine — the library-level equivalent of
//
//	matgen -gen=rmat -o=a.mtx
//	spgemm-run -a=a.mtx -engine=gpu -o=c.mtx
func TestEndToEndFileWorkflow(t *testing.T) {
	dir := t.TempDir()
	aPath := filepath.Join(dir, "a.mtx.gz")
	cPath := filepath.Join(dir, "c.mtx.gz")

	a := spgemm.RMAT(10, 8, 0.57, 0.19, 0.19, 81)
	if err := spgemm.WriteMatrixMarket(aPath, a); err != nil {
		t.Fatal(err)
	}
	loaded, err := spgemm.ReadMatrixMarket(aPath)
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.Equal(a, loaded, 0) {
		t.Fatal("matrix changed on disk round trip")
	}

	cfg := spgemm.V100WithMemory(8 << 20)
	opts, err := spgemm.Plan(loaded, loaded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gpu, _ := spgemm.ByName("gpu")
	c, report, err := gpu.Run(loaded, loaded, &spgemm.RunOptions{Device: &cfg, Core: opts})
	if err != nil {
		t.Fatal(err)
	}
	stats := report.(spgemm.Stats)
	if stats.Chunks < 2 {
		t.Fatalf("planned run was not out-of-core: %d chunks", stats.Chunks)
	}
	if err := spgemm.WriteMatrixMarket(cPath, c); err != nil {
		t.Fatal(err)
	}
	cBack, err := spgemm.ReadMatrixMarket(cPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := spgemm.Multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.Equal(cBack, ref, 1e-9) {
		t.Fatal("product from file differs from CPU reference")
	}
}

// TestEnginesAgreeOutOfCore runs realistic operands through the device
// engines on a device too small to hold them and compares every product
// with the cpu engine's, bit for bit: A² of a symmetrised scale-free
// graph, and a Galerkin-shaped triple product Pᵀ(AP) on a 2-D Poisson
// stencil, P a smoothed 4-to-1 aggregation prolongator.
func TestEnginesAgreeOutOfCore(t *testing.T) {
	g := spgemm.RMAT(9, 6, 0.57, 0.19, 0.19, 82)
	var es []spgemm.Entry
	for r := 0; r < g.Rows; r++ {
		cols, _ := g.Row(r)
		for _, c := range cols {
			if int32(r) != c {
				es = append(es, spgemm.Entry{Row: int32(r), Col: c, Val: 1}, spgemm.Entry{Row: c, Col: int32(r), Val: 1})
			}
		}
	}
	sym, err := spgemm.FromEntries(g.Rows, g.Cols, es)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sym.Data {
		sym.Data[i] = 1
	}

	lap := spgemm.Stencil2D(40, 40)
	agg := make([]spgemm.Entry, lap.Rows)
	for i := range agg {
		agg[i] = spgemm.Entry{Row: int32(i), Col: int32(i / 4), Val: 1}
	}
	p0, err := spgemm.FromEntries(lap.Rows, (lap.Rows+3)/4, agg)
	if err != nil {
		t.Fatal(err)
	}
	mustMultiply := func(a, b *spgemm.Matrix) *spgemm.Matrix {
		t.Helper()
		c, err := spgemm.Multiply(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	p := mustMultiply(lap, p0)
	ap := mustMultiply(lap, p)

	products := []struct {
		name string
		a, b *spgemm.Matrix
	}{
		{"A^2", sym, sym},
		{"AP", lap, p},
		{"Pt(AP)", p.Transpose(), ap},
	}
	for _, pr := range products {
		ref := mustMultiply(pr.a, pr.b)
		cfg := spgemm.V100WithMemory(ref.Bytes()/2 + 2*(pr.a.Bytes()+pr.b.Bytes()))
		opts, err := spgemm.Plan(pr.a, pr.b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"gpu", "hybrid", "multigpu"} {
			eng, _ := spgemm.ByName(name)
			c, report, err := eng.Run(pr.a, pr.b, &spgemm.RunOptions{Device: &cfg, Core: opts, NumGPUs: 2})
			if err != nil {
				t.Fatalf("%s on %s: %v", pr.name, name, err)
			}
			if !spgemm.Equal(c, ref, 0) {
				t.Fatalf("%s on %s differs from the cpu engine's product", pr.name, name)
			}
			if name != "gpu" {
				continue
			}
			chunks := report.(spgemm.Stats).Chunks
			if chunks < 2 {
				t.Fatalf("%s on gpu was not out-of-core: %d chunks", pr.name, chunks)
			}
			t.Logf("%s on gpu: %d chunks", pr.name, chunks)
		}
	}
}

// TestLargeScaleSmoke pushes one large product (tens of millions of
// flops, millions of output non-zeros) through every engine and checks
// they agree — the closest a unit test comes to the paper's scale.
// Skipped in -short mode.
func TestLargeScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale smoke test in -short mode")
	}
	a := spgemm.RMAT(13, 12, 0.57, 0.19, 0.19, 777) // 8192 vertices, ~90k edges
	flops := spgemm.Flops(a, a)
	if flops < 20_000_000 {
		t.Fatalf("test matrix too small: %d flops", flops)
	}

	ref, err := spgemm.Multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("large product: %d flops, %d output nnz", flops, ref.Nnz())

	cfg := spgemm.V100WithMemory(ref.Bytes()/2 + 2*a.Bytes())
	opts, err := spgemm.Plan(a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, o spgemm.RunOptions) (*spgemm.Matrix, spgemm.Report) {
		t.Helper()
		eng, _ := spgemm.ByName(name)
		o.Device = &cfg
		c, report, err := eng.Run(a, a, &o)
		if err != nil {
			t.Fatal(err)
		}
		return c, report
	}
	ooc, report := run("gpu", spgemm.RunOptions{Core: opts})
	st := report.(spgemm.Stats)
	if !spgemm.Equal(ooc, ref, 1e-9) {
		t.Fatal("out-of-core product differs at scale")
	}
	if st.Chunks < 2 {
		t.Fatalf("not out-of-core: %d chunks", st.Chunks)
	}

	hy, _ := run("hybrid", spgemm.RunOptions{Core: opts})
	if !spgemm.Equal(hy, ref, 1e-9) {
		t.Fatal("hybrid product differs at scale")
	}

	mg, _ := run("multigpu", spgemm.RunOptions{Core: opts, NumGPUs: 4})
	if !spgemm.Equal(mg, ref, 1e-9) {
		t.Fatal("multi-GPU product differs at scale")
	}

	sm, _ := run("summa", spgemm.RunOptions{SUMMA: spgemm.SUMMAConfig{Q: 3, Pipelined: true}})
	if !spgemm.Equal(sm, ref, 1e-9) {
		t.Fatal("SUMMA product differs at scale")
	}
}
