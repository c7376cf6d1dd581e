package spgemm

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	a, err := FromEntries(3, 3, []Entry{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 2, Val: 2},
		{Row: 1, Col: 1, Val: 3}, {Row: 2, Col: 0, Val: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != 3 || c.Cols != 3 {
		t.Fatalf("product dims %dx%d", c.Rows, c.Cols)
	}
	// (A²)[0][0] = 1*1 + 2*4 = 9.
	cols, vals := c.Row(0)
	if cols[0] != 0 || vals[0] != 9 {
		t.Fatalf("A²[0] = %v %v", cols, vals)
	}
}

func TestEnginesAgree(t *testing.T) {
	a := RMAT(9, 8, 0.57, 0.19, 0.19, 31)
	cpu, _, err := registry["cpu"].Run(a, a, &RunOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := V100WithMemory(64 << 20)
	ooc, rep, err := registry["gpu"].Run(a, a, &RunOptions{Device: &cfg, Core: OutOfCoreOptions{RowPanels: 3, ColPanels: 3}})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.(Stats)
	if !Equal(cpu, ooc, 1e-9) {
		t.Fatal("CPU and out-of-core products differ")
	}
	if st.GFLOPS <= 0 || st.Flops != Flops(a, a) {
		t.Fatalf("bad stats %+v", st)
	}
	hy, rep, err := registry["hybrid"].Run(a, a, &RunOptions{Device: &cfg, Core: OutOfCoreOptions{RowPanels: 3, ColPanels: 3}})
	if err != nil {
		t.Fatal(err)
	}
	hst := rep.(HybridStats)
	if !Equal(cpu, hy, 1e-9) {
		t.Fatal("CPU and hybrid products differ")
	}
	if hst.GPUChunks[0]+hst.CPUChunks != 9 {
		t.Fatalf("hybrid chunk split %d+%d", hst.GPUChunks[0], hst.CPUChunks)
	}
}

func TestPlan(t *testing.T) {
	a := RMAT(10, 8, 0.57, 0.19, 0.19, 32)
	cfg := V100WithMemory(8 << 20)
	opts, err := Plan(a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if opts.RowPanels*opts.ColPanels < 2 {
		t.Fatalf("plan %dx%d not out-of-core for a tiny device", opts.RowPanels, opts.ColPanels)
	}
	// The planned options must actually run.
	c, _, err := registry["gpu"].Run(a, a, &RunOptions{Device: &cfg, Core: opts})
	if err != nil {
		t.Fatalf("planned run failed: %v", err)
	}
	want, _ := Multiply(a, a)
	if !Equal(c, want, 1e-9) {
		t.Fatal("planned run wrong product")
	}
}

func TestPlanErrors(t *testing.T) {
	a := RMAT(8, 8, 0.57, 0.19, 0.19, 33)
	if _, err := Plan(a, NewMatrix(99, 5), V100()); err == nil {
		t.Fatal("expected dimension mismatch")
	}
	if _, err := Plan(a, a, V100WithMemory(1024)); err == nil {
		t.Fatal("expected too-small-device error")
	}
}

func TestGridFor(t *testing.T) {
	r, c := gridFor(6, 100, 100)
	if r*c < 6 {
		t.Fatalf("gridFor(6) = %dx%d", r, c)
	}
	r, c = gridFor(50, 4, 4)
	if r > 4 || c > 4 {
		t.Fatalf("gridFor exceeded dims: %dx%d", r, c)
	}
	r, c = gridFor(1, 10, 10)
	if r != 1 || c != 1 {
		t.Fatalf("gridFor(1) = %dx%d", r, c)
	}
}

func TestMatrixMarketThroughFacade(t *testing.T) {
	a := Band(50, 2, 34)
	path := filepath.Join(t.TempDir(), "a.mtx")
	if err := WriteMatrixMarket(path, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixMarket(path)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, got, 0) {
		t.Fatal("matrix market round trip mismatch")
	}
}

func TestGenerators(t *testing.T) {
	if m := Stencil2D(4, 4); m.Rows != 16 {
		t.Fatal("Stencil2D wrong")
	}
	if m := ER(10, 10, 0.5, 1); m.Nnz() == 0 {
		t.Fatal("ER empty")
	}
	if m := BlockDiag(2, 3, 1); m.Nnz() != 18 {
		t.Fatal("BlockDiag wrong")
	}
}

func TestMultiplySUMMA(t *testing.T) {
	a := RMAT(9, 8, 0.57, 0.19, 0.19, 35)
	want, err := Multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := registry["summa"].Run(a, a, &RunOptions{SUMMA: SUMMAConfig{Q: 2}})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.(SUMMAStats)
	if !Equal(got, want, 1e-9) {
		t.Fatal("SUMMA product differs from CPU reference")
	}
	if st.Nodes != 4 || st.GFLOPS <= 0 {
		t.Fatalf("bad stats %+v", st)
	}
}

func TestMultiplyMultiGPUFacade(t *testing.T) {
	a := Band(500, 3, 36)
	want, err := Multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	cfg := V100WithMemory(16 << 20)
	got, rep, err := registry["multigpu"].Run(a, a, &RunOptions{
		Device:  &cfg,
		Core:    OutOfCoreOptions{RowPanels: 2, ColPanels: 2},
		NumGPUs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.(HybridStats)
	if !Equal(got, want, 1e-9) {
		t.Fatal("multi-GPU product differs from CPU reference")
	}
	if len(st.GPUChunks) != 2 {
		t.Fatalf("bad stats %+v", st)
	}
}

func TestMultiplyAuto(t *testing.T) {
	// A skewed graph on a device so small that the initial plan's
	// densest chunk may not fit; the auto engine must refine and succeed.
	a := RMAT(10, 10, 0.6, 0.17, 0.17, 37)
	cfg := V100WithMemory(3 << 20)
	c, rep, err := registry["auto"].Run(a, a, &RunOptions{Device: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.(Stats)
	want, _ := Multiply(a, a)
	if !Equal(c, want, 1e-9) {
		t.Fatal("auto product wrong")
	}
	if st.Chunks < 4 {
		t.Fatalf("auto run used only %d chunks on a tiny device", st.Chunks)
	}
	// Hopeless device: must return an error, not loop forever.
	tiny := V100WithMemory(1 << 10)
	if _, _, err := registry["auto"].Run(a, a, &RunOptions{Device: &tiny}); err == nil {
		t.Fatal("expected error for hopeless device")
	}
}

// TestAutoReturnsDeadlineAtOnce: auto refines its grid only when a chunk
// does not fit the device (ErrOOM). A run its deadline aborts is the
// answer after one attempt — one partition of the operands — not four
// attempts reported as "no chunk grid fits".
func TestAutoReturnsDeadlineAtOnce(t *testing.T) {
	a := RMAT(10, 10, 0.6, 0.17, 0.17, 37)
	cfg := V100WithMemory(3 << 20)
	eng, _ := ByName("auto")
	col := NewCollector()
	_, _, err := eng.Run(a, a, &RunOptions{Device: &cfg, Metrics: col, DeadlineSec: 1e-9})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	attempts := 0
	for _, s := range col.SpansIn(metrics.Wall) {
		if s.Lane == "host" && s.Label == "partition" {
			attempts++
		}
	}
	if attempts != 1 {
		t.Fatalf("auto partitioned the operands %d times, want 1", attempts)
	}
}

func TestCorruptInputRejected(t *testing.T) {
	a := Band(50, 2, 40)
	corrupt := a.Clone()
	corrupt.ColIDs[0] = 9999 // out of range
	if _, err := Multiply(corrupt, a); err == nil {
		t.Fatal("corrupt left operand accepted")
	}
	if _, err := Multiply(a, corrupt); err == nil {
		t.Fatal("corrupt right operand accepted")
	}
	cfg := V100WithMemory(8 << 20)
	grid := OutOfCoreOptions{RowPanels: 2, ColPanels: 2}
	if _, _, err := registry["gpu"].Run(corrupt, a, &RunOptions{Device: &cfg, Core: grid}); err == nil {
		t.Fatal("corrupt operand accepted by out-of-core engine")
	}
	if _, _, err := registry["hybrid"].Run(corrupt, a, &RunOptions{Device: &cfg, Core: grid}); err == nil {
		t.Fatal("corrupt operand accepted by hybrid engine")
	}
	if _, _, err := registry["auto"].Run(corrupt, a, &RunOptions{Device: &cfg}); err == nil {
		t.Fatal("corrupt operand accepted by auto engine")
	}
}
