package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/hybrid"
	"repro/internal/matgen"
	"repro/internal/multigpu"
	"repro/internal/sim"
)

// inPlaceEngines are the four ways chunks reach C: one device, serially
// or pipelined; a device beside the CPU worker; two devices beside a
// four-thread CPU worker.
var inPlaceEngines = []struct {
	name string
	run  func(c propCase, cfg gpusim.DeviceConfig, reorder bool) (*csr.Matrix, error)
}{
	{"sync", func(c propCase, cfg gpusim.DeviceConfig, reorder bool) (*csr.Matrix, error) {
		m, _, err := run(c.A, c.B, cfg, core.Options{RowPanels: c.RowPanels, ColPanels: c.ColPanels, Reorder: reorder})
		return m, err
	}},
	{"async", func(c propCase, cfg gpusim.DeviceConfig, reorder bool) (*csr.Matrix, error) {
		m, _, err := run(c.A, c.B, cfg, core.Options{RowPanels: c.RowPanels, ColPanels: c.ColPanels, Reorder: reorder, Async: true})
		return m, err
	}},
	{"hybrid", func(c propCase, cfg gpusim.DeviceConfig, reorder bool) (*csr.Matrix, error) {
		m, _, err := multigpu.Run(c.A, c.B, cfg, multigpu.Options{
			Core:    core.Options{RowPanels: c.RowPanels, ColPanels: c.ColPanels, Reorder: reorder, Async: true},
			NumGPUs: 1, UseCPU: true,
		})
		return m, err
	}},
	{"multigpu", func(c propCase, cfg gpusim.DeviceConfig, reorder bool) (*csr.Matrix, error) {
		host := hybrid.DefaultHostModel()
		host.Threads = 4
		m, _, err := multigpu.Run(c.A, c.B, cfg, multigpu.Options{
			Core:    core.Options{RowPanels: c.RowPanels, ColPanels: c.ColPanels, Reorder: reorder, Async: true},
			NumGPUs: 2, UseCPU: true, Host: host,
		})
		return m, err
	}},
}

// TestInPlaceProductProperty: for random operands (empty rows, empty
// chunks, more panels than non-zeros, NaN/±Inf/-0.0 values) on random
// grids, the product every engine computes in place — one structure,
// chunks written into their windows by whichever worker got them — is
// bit-identical to the sequential reference and to the per-chunk
// composition it replaced.
func TestInPlaceProductProperty(t *testing.T) {
	cfg := gpusim.ScaledV100Config(64 << 20)
	for _, eng := range inPlaceEngines {
		t.Run(eng.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(22))
			for trial := 0; trial < 60; trial++ {
				c := randomCase(rng)
				if trial == 0 { // the degenerate grid: no rows, yet three column panels
					c = propCase{A: csr.New(0, 5), B: csr.New(5, 7), RowPanels: 1, ColPanels: 3}
				}
				got, err := eng.run(c, cfg, trial%2 == 0)
				if err != nil {
					t.Fatalf("trial %d (%v): %v", trial, c, err)
				}
				if err := check(c, cfg, got); err != nil {
					t.Fatalf("trial %d (%v): %v", trial, c, err)
				}
			}
		})
	}
}

// TestFailedRunReturnsNoMatrix: C exists from before the first chunk,
// so a run that cannot finish must not hand it out half-filled. With no
// retries and faults on nearly every operation some chunk is abandoned:
// Run returns a nil matrix with the typed error, and on the engine the
// done-set refuses assembly naming the lowest chunk that is missing —
// one of those recorded as failed.
func TestFailedRunReturnsNoMatrix(t *testing.T) {
	a := matgen.RMAT(8, 8, 0.57, 0.19, 0.19, 41)
	cfg := gpusim.ScaledV100Config(64 << 20)
	opts := core.Options{
		RowPanels: 4, ColPanels: 3, Async: true, ChunkRetries: -1,
		Faults: faults.Config{Seed: 7, TransferRate: 0.9, KernelRate: 0.9},
	}
	c, _, err := run(a, a, cfg, opts)
	if c != nil || !errors.Is(err, faults.ErrChunkAbandoned) {
		t.Fatalf("Run returned matrix %v, err %v; want no matrix and ErrChunkAbandoned", c != nil, err)
	}
	opts.DeadlineSec = 1e-9
	if c, _, err = run(a, a, cfg, opts); c != nil || !errors.Is(err, faults.ErrDeadline) {
		t.Fatalf("deadline run returned matrix %v, err %v; want no matrix and ErrDeadline", c != nil, err)
	}
	opts.DeadlineSec = 0

	env := sim.NewEnv()
	eng, err := core.NewEngine(gpusim.NewDevice(env, cfg), a, a, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Teardown()
	ids, _ := hybrid.SplitCount(eng.ChunkFlops(), eng.NumChunks(), false)
	env.Spawn("gpu", func(p *sim.Proc) { eng.ProcessChunks(p, ids) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	first := eng.NumChunks()
	for id := range eng.Failed() {
		first = min(first, id)
	}
	c, err = eng.Assemble()
	if want := fmt.Sprintf("chunk %d of %d missing", first, eng.NumChunks()); c != nil || err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Assemble returned matrix %v, err %v; want no matrix and %q (failed set %v)", c != nil, err, want, eng.Failed())
	}
}
