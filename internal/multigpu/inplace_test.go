package multigpu

import (
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/faults"
	"repro/internal/matgen"
)

// TestFailoverOverwritesWindows: both devices die mid-run; their
// unfinished chunks move to the survivor and then to the CPU worker,
// each recomputed into the windows the first attempt may already have
// written, and the product is bit-identical to a fault-free run's.
func TestFailoverOverwritesWindows(t *testing.T) {
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 65)
	opts := Options{Core: core.Options{RowPanels: 4, ColPanels: 3}, NumGPUs: 2, UseCPU: true}
	want, _, err := Run(a, a, cfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Core.Faults = faults.Config{Seed: 5, LossAfterOps: 30}
	got, st, err := Run(a, a, cfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.LostGPUs < 1 || st.Failovers < 1 {
		t.Fatalf("lost %d devices, %d failovers; the case must exercise failover", st.LostGPUs, st.Failovers)
	}
	if !csr.Equal(got, want, 0) {
		t.Fatalf("product after %d failovers (%d to the CPU): %s", st.Failovers, st.FallbackChunks, csr.Diff(got, want, 0))
	}
}
