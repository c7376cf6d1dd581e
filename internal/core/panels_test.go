package core

import (
	"testing"

	"repro/internal/gpusim"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/sim"
)

// TestWireBytesFromStructure: a panel's simulated transfer size, read
// from its structure, is the Bytes() of a panel that carries values — a
// structure-only column panel's that of partition.ColPanels' panel of
// the same input, a row panel's its own — so no simulated figure moves
// with the values the host copies leave out.
func TestWireBytesFromStructure(t *testing.T) {
	b := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 31)
	for _, num := range []int{1, 3, 7} {
		structural, err := partition.ColPanelsParallel(b, num, partitionThreads)
		if err != nil {
			t.Fatal(err)
		}
		valued, err := partition.ColPanels(b, num)
		if err != nil {
			t.Fatal(err)
		}
		for p := range valued {
			if got, want := wireBytes(structural[p].M), valued[p].M.Bytes(); got != want {
				t.Fatalf("%d panels: column panel %d moves %d bytes, ColPanels' panel is %d", num, p, got, want)
			}
		}
		rows, err := partition.RowPanels(b, num)
		if err != nil {
			t.Fatal(err)
		}
		for r, rp := range rows {
			if got, want := wireBytes(rp.M), rp.M.Bytes(); got != want {
				t.Fatalf("%d panels: row panel %d moves %d bytes, its Bytes() is %d", num, r, got, want)
			}
		}
	}
}

// TestPlanCacheStoresStructureOnly: a device plan's panels keep no array
// of the operands they were planned from — a row panel keeps only its
// offsets, which the partitioner made — and no values, and a warm
// engine's row panels are views of the warm A. (The plan keeps the
// operands' structure apart, for its check on a hit.)
func TestPlanCacheStoresStructureOnly(t *testing.T) {
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 32)
	pc := NewPlanCache(0)
	opts := Options{RowPanels: 3, ColPanels: 2, PlanCache: pc}
	for run := range 2 {
		in := a.Clone()
		e, err := NewEngine(gpusim.NewDevice(sim.NewEnv(), gpusim.ScaledV100Config(64<<20)), in, in, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, rp := range e.plan.rps {
			if rp.M.ColIDs != nil || rp.M.Data != nil {
				t.Fatalf("run %d: the plan's row panel %d keeps ids or values", run, i)
			}
			if lo := in.RowOffsets[rp.Start]; lo < in.RowOffsets[rp.End] &&
				(&e.RowPanels[i].M.ColIDs[0] != &in.ColIDs[lo] || &e.RowPanels[i].M.Data[0] != &in.Data[lo]) {
				t.Fatalf("run %d: row panel %d is not a view of A", run, i)
			}
		}
		for k, cp := range e.plan.cps {
			if cp.M.Data != nil {
				t.Fatalf("run %d: the plan's column panel %d keeps values", run, k)
			}
		}
		e.Teardown()
	}
	if hits, misses, _ := pc.Counters(); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}
