package repro

import (
	"path/filepath"
	"testing"

	"repro/spgemm"
	"repro/spgemm/amg"
	"repro/spgemm/graph"
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
	c, stats, err := spgemm.MultiplyOutOfCore(loaded, loaded, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
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

// TestEndToEndApplications drives both application substrates through
// the out-of-core engine on one shared device configuration.
func TestEndToEndApplications(t *testing.T) {
	cfg := spgemm.V100WithMemory(8 << 20)
	mult := func(a, b *spgemm.Matrix) (*spgemm.Matrix, error) {
		opts, err := spgemm.Plan(a, b, cfg)
		if err != nil {
			return nil, err
		}
		c, _, err := spgemm.MultiplyOutOfCore(a, b, cfg, opts)
		return c, err
	}

	// AMG: solve a Poisson problem with Galerkin products on the
	// simulated GPU.
	lap := spgemm.Stencil2D(40, 40)
	pinned := lap.Clone()
	pinned.Data[0] += 1
	h, err := amg.Build(pinned, amg.Options{Multiply: mult})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, pinned.Rows)
	for i := range b {
		b[i] = 1
	}
	_, rel, cycles, err := h.Solve(b, 1e-8, 60)
	if err != nil {
		t.Fatal(err)
	}
	if rel > 1e-8 {
		t.Fatalf("AMG did not converge: %.2e after %d cycles", rel, cycles)
	}

	// Graph: triangles of a scale-free graph via A² on the same device.
	g := spgemm.RMAT(9, 6, 0.57, 0.19, 0.19, 82)
	// Symmetrize so triangle counting semantics hold.
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
	viaGPU, err := graph.Triangles(sym, mult)
	if err != nil {
		t.Fatal(err)
	}
	viaCPU, err := graph.Triangles(sym, nil)
	if err != nil {
		t.Fatal(err)
	}
	if viaGPU != viaCPU {
		t.Fatalf("triangle counts differ: %d vs %d", viaGPU, viaCPU)
	}
	if viaGPU == 0 {
		t.Fatal("scale-free graph has no triangles (implausible)")
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
	ooc, st, err := spgemm.MultiplyOutOfCore(a, a, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.Equal(ooc, ref, 1e-9) {
		t.Fatal("out-of-core product differs at scale")
	}
	if st.Chunks < 2 {
		t.Fatalf("not out-of-core: %d chunks", st.Chunks)
	}

	hy, _, err := spgemm.MultiplyHybrid(a, a, cfg, spgemm.HybridOptions{Core: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.Equal(hy, ref, 1e-9) {
		t.Fatal("hybrid product differs at scale")
	}

	mg, _, err := spgemm.MultiplyMultiGPU(a, a, cfg, spgemm.MultiGPUOptions{Core: opts, NumGPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.Equal(mg, ref, 1e-9) {
		t.Fatal("multi-GPU product differs at scale")
	}

	sm, _, err := spgemm.MultiplySUMMA(a, a, spgemm.SUMMAConfig{Q: 3, Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.Equal(sm, ref, 1e-9) {
		t.Fatal("SUMMA product differs at scale")
	}
}
