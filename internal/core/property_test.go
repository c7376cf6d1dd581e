package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/matgen"
)

// TestQuickPipelineMatchesReference is the pipeline's property test:
// for arbitrary random matrices, grids, split fractions and modes, the
// out-of-core product equals the sequential reference exactly.
func TestQuickPipelineMatchesReference(t *testing.T) {
	f := func(seed int64, gridSel uint8, frac uint8, async, reorder bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32 + rng.Intn(96)
		a := matgen.ER(n, n, 0.05+rng.Float64()*0.1, rng.Int63())
		grids := [][2]int{{1, 1}, {1, 3}, {3, 1}, {2, 2}, {3, 4}, {4, 3}}
		g := grids[int(gridSel)%len(grids)]
		opts := core.Options{
			RowPanels:     g[0],
			ColPanels:     g[1],
			Async:         async,
			Reorder:       reorder,
			SplitFraction: 0.05 + float64(frac%90)/100,
		}
		got, _, err := run(a, a, testCfg(64<<20), opts)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want, err := cpuspgemm.Sequential(a, a)
		if err != nil {
			return false
		}
		return csr.Equal(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicSimulation checks that repeated runs produce
// identical simulated timings — the property the whole experiment
// harness rests on.
func TestDeterministicSimulation(t *testing.T) {
	a := matgen.RMAT(10, 9, 0.57, 0.19, 0.19, 71)
	opts := core.Options{RowPanels: 3, ColPanels: 3, Async: true, Reorder: true}
	_, first, err := run(a, a, testCfg(128<<20), opts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		_, st, err := run(a, a, testCfg(128<<20), opts)
		if err != nil {
			t.Fatal(err)
		}
		if st != first {
			t.Fatalf("trial %d: stats differ:\n%+v\n%+v", trial, st, first)
		}
	}
}

// TestRectangularProducts exercises A·B with distinct shapes (the
// framework is not limited to squaring).
func TestRectangularProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	a := matgen.ER(150, 80, 0.1, rng.Int63())
	b := matgen.ER(80, 220, 0.08, rng.Int63())
	want, err := cpuspgemm.Sequential(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, async := range []bool{false, true} {
		got, st, err := run(a, b, testCfg(32<<20), core.Options{RowPanels: 3, ColPanels: 4, Async: async})
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		if !csr.Equal(got, want, 1e-9) {
			t.Fatalf("async=%v: %s", async, csr.Diff(got, want, 1e-9))
		}
		if got.Rows != 150 || got.Cols != 220 {
			t.Fatalf("async=%v: dims %dx%d", async, got.Rows, got.Cols)
		}
		if st.Flops != csr.Flops(a, b) {
			t.Fatalf("async=%v: flops %d", async, st.Flops)
		}
	}
}

// TestZeroFlopChunksSkipped confirms empty chunks cost no device time.
func TestZeroFlopChunksSkipped(t *testing.T) {
	// Block-diagonal: off-diagonal chunks of a matching grid are empty.
	a := matgen.BlockDiag(4, 30, 73)
	_, tl := timeline(t, a, a, testCfg(32<<20), core.Options{RowPanels: 4, ColPanels: 4, Async: true})
	// Only 4 diagonal chunks carry work: exactly 4 outputs transfer
	// (two portions each).
	outs := 0
	for _, s := range tl {
		if s.Lane == "d2h" && len(s.Label) >= 6 && s.Label[:6] == "output" {
			outs++
		}
	}
	if outs != 8 {
		t.Fatalf("saw %d output-portion transfers, want 8 (4 chunks x 2 portions)", outs)
	}
}
