package multigpu

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/hybrid"
	"repro/internal/matgen"
)

// BenchmarkHybridOOC is the benchmark's lib_hybrid_ooc operation in
// process, below the registry: the paper's hybrid node (one GPU beside
// the CPU worker) on RMAT(10, 24)² with a 4 MiB device, hence a 4 × 3
// grid, the CPU worker on one thread. The product is computed once, by
// whole rows, on the run's two host lanes beside the simulation, so
// `go test -bench HybridOOC -cpu 1,2` shows what the lanes overlap on
// two cores and what they cost on one. No planner hands the engine its
// analysis here, so the lanes start at the first chunk, not before
// partitioning as under the registry's hybrid engine.
func BenchmarkHybridOOC(b *testing.B) {
	a := matgen.RMAT(10, 24, 0.57, 0.19, 0.19, 5)
	dev := gpusim.ScaledV100Config(4 << 20)
	opts := Options{
		Core:    core.Options{RowPanels: 4, ColPanels: 3, Async: true, Reorder: true},
		NumGPUs: 1, UseCPU: true, Host: hybrid.DefaultHostModel(),
	}
	opts.Host.Threads = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(a, a, dev, opts); err != nil {
			b.Fatal(err)
		}
	}
}
