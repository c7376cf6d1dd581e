package multigpu

import (
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/faults"
	"repro/internal/matgen"
)

// TestFailoverOverwritesWindows: chunks move off failing devices — to
// the survivor and then to the CPU worker when both devices die mid-run,
// from one device to the other when their transient faults exhaust a
// chunk's (zero) retries — each tried again by the worker it moved to,
// while the host lanes compute the product once, by whole rows
// (core.TestComputedOnceAcrossRecovery counts the rows), and the product
// is bit-identical to a fault-free run's.
func TestFailoverOverwritesWindows(t *testing.T) {
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 65)
	opts := Options{Core: core.Options{RowPanels: 4, ColPanels: 3, Async: true}, NumGPUs: 2, UseCPU: true}
	want, _, err := Run(a, a, cfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		faults  faults.Config
		retries int
	}{
		{"loss", faults.Config{Seed: 5, LossAfterOps: 30}, 0},
		{"transient", faults.Config{Seed: 2, TransferRate: 0.05, KernelRate: 0.05}, -1},
	} {
		opts.Core.Faults, opts.Core.ChunkRetries = tc.faults, tc.retries
		got, st, err := Run(a, a, cfg(), opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// A failover the CPU worker did not absorb went to the other GPU.
		if lost := tc.faults.LossAfterOps > 0; lost && (st.LostGPUs < 1 || st.Failovers < 1) || !lost && st.Failovers <= st.FallbackChunks {
			t.Fatalf("%s: lost %d devices, %d failovers (%d to the CPU); the case must exercise its failover",
				tc.name, st.LostGPUs, st.Failovers, st.FallbackChunks)
		}
		if !csr.Equal(got, want, 0) {
			t.Fatalf("%s: product after %d failovers (%d to the CPU): %s", tc.name, st.Failovers, st.FallbackChunks, csr.Diff(got, want, 0))
		}
	}
}
