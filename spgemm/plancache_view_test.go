package spgemm

import (
	"repro/internal/core"
	"repro/internal/cpuspgemm"
)

// The plan cache's state lives in core.PlanCache; the tests of this
// package read and drive it through these.

func (p *PlanCache) core() *core.PlanCache { return (*core.PlanCache)(p) }

// peekCPU, acquireCPU and storeCPU drive the CPU plan of a·b, for the
// operands' records in o (if any).

func (p *PlanCache) peekCPU(a, b *Matrix, o RunOptions) *core.CPUPlan {
	return p.core().PeekCPU(o.PlanKey(a, b), a, b, o.AID, o.BID)
}

func (p *PlanCache) acquireCPU(a, b *Matrix, o RunOptions) (*core.CPUPlan, []float64) {
	ent, _, spare, _ := p.core().AcquireCPU(o.PlanKey(a, b), a, b, o.AID, o.BID)
	return ent, spare
}

func (p *PlanCache) storeCPU(a, b *Matrix, o RunOptions, sym *cpuspgemm.SymbolicResult) int64 {
	return p.core().StoreCPU(o.PlanKey(a, b), sym, a, b, o.AID, o.BID)
}

// structBytes is what a plan is charged for keeping m's structure.
func structBytes(m *Matrix) int64 { return int64(len(m.RowOffsets))*8 + int64(len(m.ColIDs))*4 }
