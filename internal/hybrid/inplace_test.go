package hybrid_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/hybrid"
	"repro/internal/matgen"
	"repro/internal/multigpu"
)

// TestFallbackOverwritesWindows: with no retries, a fault on any device
// operation abandons a GPU chunk after the device path has already
// tried it; the CPU worker tries it again, beside chunks the device did
// finish, and the product — computed once, by whole rows, on the host
// lanes whatever the schedule did (core.TestComputedOnceAcrossRecovery
// counts the rows) — is bit-identical to a fault-free run's.
func TestFallbackOverwritesWindows(t *testing.T) {
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 52)
	opts := node(4, 3, true)
	want, _, err := multigpu.Run(a, a, cfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Core.ChunkRetries = -1
	opts.Core.Faults = faults.Config{Seed: 3, TransferRate: 0.05, KernelRate: 0.05}
	got, st, err := multigpu.Run(a, a, cfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if fb := st.Counters()["recovery_fallbacks"]; fb < 1 || fb >= int64(st.GPUChunks[0]) {
		t.Fatalf("%d of %d GPU chunks fell back; the case needs both device-completed and recovered chunks", fb, st.GPUChunks[0])
	}
	if !csr.Equal(got, want, 0) {
		t.Fatalf("product after %d fallbacks: %s", st.FallbackChunks, csr.Diff(got, want, 0))
	}
}

// TestAllocationCeiling pins what "C is sized before the pipeline
// starts" buys in bytes, on the benchmark's out-of-core operation
// (RMAT(10, 24)² on a 4 MiB device, hence a 4 × 3 grid): a cold run —
// row analysis, partition, structure, twelve chunks — allocates at most
// 1.5 × the product it returns plus 1 MiB (it was ≈ 3.2 × when every
// chunk was a private product copied into C), and a plan-cache hit at
// most the product's value array plus 1 MiB.
func TestAllocationCeiling(t *testing.T) {
	a := matgen.RMAT(10, 24, 0.57, 0.19, 0.19, 5)
	dev := gpusim.ScaledV100Config(4 << 20)
	opts := node(4, 3, true)
	opts.Host = hybrid.DefaultHostModel()
	opts.Host.Threads = 1
	run := func() (c *csr.Matrix, allocated int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, _, err := multigpu.Run(a, a, dev, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return c, int64(after.TotalAlloc - before.TotalAlloc)
	}
	run() // warms the accumulator and scratch pools
	c, cold := run()
	if ceiling := c.Bytes()*3/2 + 1<<20; cold > ceiling {
		t.Fatalf("cold run allocated %d bytes for a %d-byte product, ceiling %d", cold, c.Bytes(), ceiling)
	}
	opts.Core.PlanCache = core.NewPlanCache(0)
	run()
	c, warm := run()
	if ceiling := int64(len(c.Data))*8 + 1<<20; warm > ceiling {
		t.Fatalf("warm run allocated %d bytes for %d bytes of values, ceiling %d", warm, len(c.Data)*8, ceiling)
	}
	t.Logf("product %d bytes: cold run allocated %d, warm run %d", c.Bytes(), cold, warm)
}
