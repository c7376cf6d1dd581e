package spgemm

import (
	"testing"

	"repro/internal/cpuspgemm"
)

// TestPlanCacheCPUUpgrade pins the provenance rules of storeCPU: an
// exact plan upgrades an estimated entry in place, an estimated plan
// never displaces an exact one, and first-store-wins otherwise.
func TestPlanCacheCPUUpgrade(t *testing.T) {
	a := ER(200, 200, 0.03, 51)
	pc := NewPlanCache(0)
	key := cpuPlanKey{fpA: Fingerprint(a), fpB: Fingerprint(a), rows: a.Rows, aCols: a.Cols, cols: a.Cols}

	_, symEst, _, err := cpuspgemm.MultiplyEstimated(a, a, cpuspgemm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, symExact, err := cpuspgemm.MultiplyPlanned(a, a, cpuspgemm.Options{})
	if err != nil {
		t.Fatal(err)
	}

	if pc.storeCPU(key, symEst) {
		t.Fatal("first store reported an upgrade")
	}
	if pc.Upgrades() != 0 {
		t.Fatal("upgrades counted before any upgrade")
	}
	// Estimated never displaces estimated: first store wins.
	if pc.storeCPU(key, symEst) {
		t.Fatal("estimated displaced estimated")
	}
	// Exact upgrades the estimated entry in place.
	if !pc.storeCPU(key, symExact) {
		t.Fatal("exact did not upgrade the estimated entry")
	}
	if pc.Upgrades() != 1 {
		t.Fatalf("Upgrades = %d, want 1", pc.Upgrades())
	}
	if got := pc.acquireCPU(key); got != symExact {
		t.Fatal("cache did not serve the upgraded exact plan")
	}
	// Estimated never displaces exact.
	if pc.storeCPU(key, symEst) {
		t.Fatal("estimated displaced exact")
	}
	if got := pc.acquireCPU(key); got != symExact || got.Estimated {
		t.Fatal("exact entry lost after estimated re-store")
	}
}

// TestPlanCacheGridUpgrade pins the grid-memo provenance: an estimated
// memo serves estimated requests, an exact request re-plans and
// upgrades it, and the exact memo then serves everyone.
func TestPlanCacheGridUpgrade(t *testing.T) {
	a := RMAT(9, 8, 0.57, 0.19, 0.19, 52)
	cfg := V100WithMemory(1 << 20)
	pc := NewPlanCache(0)

	est1, err := pc.plan(a, a, cfg, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	est2, err := pc.plan(a, a, cfg, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est1 != est2 {
		t.Fatal("estimated memo did not serve a repeated estimated request")
	}
	exact, err := pc.plan(a, a, cfg, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Upgrades() != 1 {
		t.Fatalf("Upgrades = %d after exact re-plan, want 1", pc.Upgrades())
	}
	wantExact, err := Plan(a, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Analysis == nil || wantExact.Analysis == nil {
		t.Fatal("an exact planning pass did not hand its row analysis on")
	}
	// The memo keeps the grid only; the analysis travels with the call
	// that computed it.
	exact.Analysis, wantExact.Analysis = nil, nil
	if exact != wantExact {
		t.Fatalf("upgraded memo %+v != exact plan %+v", exact, wantExact)
	}
	// The exact memo now serves estimated requests too, with no further
	// upgrade churn.
	served, err := pc.plan(a, a, cfg, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if served != wantExact || pc.Upgrades() != 1 {
		t.Fatal("exact memo not reused for an estimated request")
	}
}

// TestPlanCacheEstimatedWarmBitIdentical runs the cpu engine cold in
// estimation mode, then warm in exact mode on refreshed values: the
// warm run replays the cached (estimated-provenance, exact-structure)
// plan and must match an uncached exact run byte for byte.
func TestPlanCacheEstimatedWarmBitIdentical(t *testing.T) {
	a := ER(250, 250, 0.03, 53)
	pc := NewPlanCache(0)
	eng, err := ByName("cpu")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Run(a, a, &RunOptions{PlanCache: pc, Symbolic: SymbolicEstimate}); err != nil {
		t.Fatal(err)
	}
	fresh := refreshValues(a, 54)
	cold, _, err := eng.Run(fresh, fresh, &RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := eng.Run(fresh, fresh, &RunOptions{PlanCache: pc})
	if err != nil {
		t.Fatal(err)
	}
	mustBitIdentical(t, cold, warm)
	hits, _, _ := pc.Counters()
	if hits == 0 {
		t.Fatal("estimated cold run did not populate the plan cache")
	}
}
