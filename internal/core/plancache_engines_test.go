package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/gpusim"
	"repro/internal/matgen"
	"repro/internal/multigpu"
	"repro/internal/speck"
)

// cachedEngine runs one of the out-of-core engines with the given core
// options and reports the figures the plan-cache tests compare.
type cachedEngine struct {
	name string
	run  func(a *csr.Matrix, cfg gpusim.DeviceConfig, opts core.Options) (c *csr.Matrix, h2d, d2h int64, sec float64, err error)
}

var cachedEngines = []cachedEngine{
	{"sync", func(a *csr.Matrix, cfg gpusim.DeviceConfig, opts core.Options) (*csr.Matrix, int64, int64, float64, error) {
		c, st, err := run(a, a, cfg, opts)
		return c, st.BytesH2D, st.BytesD2H, st.TotalSec, err
	}},
	{"async", func(a *csr.Matrix, cfg gpusim.DeviceConfig, opts core.Options) (*csr.Matrix, int64, int64, float64, error) {
		opts.Async = true
		c, st, err := run(a, a, cfg, opts)
		return c, st.BytesH2D, st.BytesD2H, st.TotalSec, err
	}},
	{"hybrid", func(a *csr.Matrix, cfg gpusim.DeviceConfig, opts core.Options) (*csr.Matrix, int64, int64, float64, error) {
		opts.Async, opts.Reorder = true, true
		c, st, err := multigpu.Run(a, a, cfg, multigpu.Options{Core: opts, NumGPUs: 1, UseCPU: true})
		return c, st.BytesH2D, st.BytesD2H, st.TotalSec, err
	}},
	{"multigpu", func(a *csr.Matrix, cfg gpusim.DeviceConfig, opts core.Options) (*csr.Matrix, int64, int64, float64, error) {
		opts.Async, opts.Reorder = true, true
		c, st, err := multigpu.Run(a, a, cfg, multigpu.Options{Core: opts, NumGPUs: 2, UseCPU: true})
		return c, st.BytesH2D, st.BytesD2H, st.TotalSec, err
	}},
}

// TestPlanCacheWarmByteIdentical is the device-engine half of the
// fast path's contract: a warm run (cached plan, fresh values) returns
// a product bit-for-bit identical to an uncached cold run of the same
// inputs — in both pipeline modes and with a CPU worker beside one or
// two devices — and builds no symbolic pass to get there. The plan is
// made from a copy of A that is overwritten before the warm runs, so
// the cache must hold no array of the operands it planned from.
func TestPlanCacheWarmByteIdentical(t *testing.T) {
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 21)
	cfg := gpusim.ScaledV100Config(64 << 20)
	for _, eng := range cachedEngines {
		t.Run(eng.name, func(t *testing.T) {
			pc := core.NewPlanCache(0)
			grid := core.Options{RowPanels: 2, ColPanels: 3}
			cached := grid
			cached.PlanCache = pc
			planned := a.Clone()
			if _, _, _, _, err := eng.run(planned, cfg, cached); err != nil {
				t.Fatal(err)
			}
			clear(planned.ColIDs)
			clear(planned.Data)
			for it := int64(0); it < 3; it++ {
				fresh := freshValues(a, 300+it)
				cold, _, _, _, err := eng.run(fresh, cfg, grid)
				if err != nil {
					t.Fatal(err)
				}
				before := speck.SymbolicPasses()
				warm, _, _, _, err := eng.run(fresh, cfg, cached)
				if err != nil {
					t.Fatal(err)
				}
				if n := speck.SymbolicPasses() - before; n != 0 {
					t.Fatalf("warm run built %d symbolic passes, want none", n)
				}
				if err := diffBits(warm, cold, true); err != nil {
					t.Fatalf("warm vs uncached cold: %v", err)
				}
			}
			hits, misses, _ := pc.Counters()
			if misses != 1 || hits != 3 {
				t.Fatalf("hits=%d misses=%d, want 3/1", hits, misses)
			}
		})
	}
}

// TestPlanCacheWarmSkipsWork pins what a warm run avoids: every
// symbolic pass on the host (a cold run builds one — the row analysis'
// walk, which counts and emits C's structure at once — whatever the
// grid), the symbolic-phase info transfers (BytesD2H shrinks), the panel
// H2D transfers (residency), and with them simulated time.
func TestPlanCacheWarmSkipsWork(t *testing.T) {
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 22)
	cfg := gpusim.ScaledV100Config(256 << 20)
	for _, eng := range cachedEngines {
		t.Run(eng.name, func(t *testing.T) {
			opts := core.Options{RowPanels: 2, ColPanels: 2, PlanCache: core.NewPlanCache(0)}
			before := speck.SymbolicPasses()
			_, _, coldD2H, coldSec, err := eng.run(a, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := speck.SymbolicPasses() - before; n != 1 {
				t.Fatalf("cold run built %d symbolic passes, want 1 (count and emit in one walk)", n)
			}
			before = speck.SymbolicPasses()
			_, warmH2D, warmD2H, warmSec, err := eng.run(freshValues(a, 23), cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := speck.SymbolicPasses() - before; n != 0 {
				t.Fatalf("warm run built %d symbolic passes, want none", n)
			}
			if warmH2D != 0 {
				t.Fatalf("warm run transferred %d H2D bytes; panels should be resident", warmH2D)
			}
			if warmD2H >= coldD2H {
				t.Fatalf("warm D2H %d not below cold %d (info transfers not skipped)", warmD2H, coldD2H)
			}
			if warmSec >= coldSec {
				t.Fatalf("warm makespan %.6fs not below cold %.6fs", warmSec, coldSec)
			}
		})
	}
}
