package spgemm

import (
	"repro/internal/core"
	"repro/internal/cpuspgemm"
)

// The plan cache's state lives in core.PlanCache; the tests of this
// package read and drive it through these.

func (p *PlanCache) core() *core.PlanCache { return (*core.PlanCache)(p) }

func (p *PlanCache) peekCPU(key PlanKey) *core.CPUPlan { return p.core().PeekCPU(key) }

func (p *PlanCache) acquireCPU(key PlanKey) (*core.CPUPlan, []float64) {
	return p.core().AcquireCPU(key)
}

func (p *PlanCache) storeCPU(key PlanKey, sym *cpuspgemm.SymbolicResult) int64 {
	return p.core().StoreCPU(key, sym)
}
