package main

import (
	"repro/internal/core"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/hybrid"
	"repro/internal/partition"
	"repro/internal/speck"
	"repro/spgemm"
)

// hybridGrid is the chunk grid of one hybrid run of A·A and Algorithm
// 4's split of it, built from the same public functions the engine
// uses: the most expensive chunks (DefaultRatio of the flops) go to the
// simulated GPU, whose arithmetic is speck's; the rest run on the CPU
// worker, which is cpuspgemm.
type hybridGrid struct {
	rows           []partition.RowPanel
	cols           []partition.ColPanel
	gpuIDs, cpuIDs []int
	gpuProducts    int64 // products held by the GPU's chunks
}

// chunk returns the operands of chunk id.
func (g *hybridGrid) chunk(id int) (a, b *csr.Matrix) {
	return g.rows[id/len(g.cols)].M, g.cols[id%len(g.cols)].M
}

// newHybridGrid plans, partitions and splits; c may be nil (no spans).
func newHybridGrid(c *opCtx, a *spgemm.Matrix) (*hybridGrid, error) {
	end := c.span("spgemm.Plan")
	grid, err := spgemm.Plan(a, a, spgemm.V100WithMemory(hybridDeviceBytes))
	end()
	if err != nil {
		return nil, err
	}
	g := &hybridGrid{}
	if g.rows, err = partition.RowPanels(a, grid.RowPanels); err != nil {
		return nil, err
	}
	end = c.span("partition.ColPanels")
	g.cols, err = partition.ColPanels(a, grid.ColPanels)
	end()
	if err != nil {
		return nil, err
	}
	flops := make([]int64, len(g.rows)*len(g.cols))
	for id := range flops {
		flops[id] = csr.Flops(g.chunk(id))
	}
	g.gpuIDs, g.cpuIDs = hybrid.Split(flops, hybrid.DefaultRatio, true)
	for _, id := range g.gpuIDs {
		g.gpuProducts += flops[id] / 2
	}
	return g, nil
}

// hybridParts performs, through the layers' own public functions, the
// host-side work one hybrid run of A·A does around its event
// simulation: plan the chunk grid for the device, split A into row
// panels and B into column panels, compute the GPU's chunks with speck
// and the CPU's with cpuspgemm, and assemble the product. What remains
// of the engine's wall time once these are subtracted
// (core.sim_self_ms) is the event simulation plus the engine's own row
// analyses.
func hybridParts(c *opCtx, a *spgemm.Matrix) error {
	g, err := newHybridGrid(c, a)
	if err != nil {
		return err
	}
	cm := speck.ModelFromDevice(spgemm.V100WithMemory(hybridDeviceBytes))
	chunks := make([]*csr.Matrix, len(g.rows)*len(g.cols))
	end := c.span("speck.Compute")
	for _, id := range g.gpuIDs {
		ca, cb := g.chunk(id)
		res, err := speck.Compute(ca, cb, cm)
		if err != nil {
			end()
			return err
		}
		chunks[id] = res.C
	}
	end()
	end = c.span("cpuspgemm.Multiply:chunks")
	for _, id := range g.cpuIDs {
		ca, cb := g.chunk(id)
		if chunks[id], err = cpuspgemm.Multiply(ca, cb, cpuspgemm.Options{Threads: 1}); err != nil {
			end()
			return err
		}
	}
	end()

	end = c.span("core.AssembleChunks")
	_, err = core.AssembleChunks(a.Rows, a.Cols, len(g.rows), len(g.cols),
		func(r, k int) *csr.Matrix { return chunks[r*len(g.cols)+k] },
		func(r int) int { return g.rows[r].Start },
		func(k int) int { return g.cols[k].Start })
	end()
	return err
}
