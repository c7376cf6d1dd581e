package spgemm

import (
	"math"
	"testing"

	"repro/internal/cpuspgemm"
)

// garble overwrites every value with what a product must never show: NaN
// with payloads, ±Inf, -0.0 and huge magnitudes.
func garble(data []float64) {
	for i := range data {
		switch i % 6 {
		case 0:
			data[i] = math.Float64frombits(0x7ff8000000000000 | uint64(i+1))
		case 1:
			data[i] = math.Inf(1)
		case 2:
			data[i] = math.Inf(-1)
		case 3:
			data[i] = math.Copysign(0, -1)
		case 4:
			data[i] = math.MaxFloat64
		default:
			data[i] = -1e300
		}
	}
}

// spares reports the spare value arrays the cache's CPU plan for (a, b)
// holds.
func spares(pc *PlanCache, a, b *Matrix, o RunOptions) int {
	ent := pc.peekCPU(a, b, o)
	if ent == nil {
		return -1
	}
	_, _, n := pc.core().Held(ent)
	return n
}

// TestReleasedSpareNeverReachesProduct: a warm product whose values are
// garbled and handed back to its plan is the array the next replay
// writes into, and that replay is bit for bit a fresh-array replay and
// the cold product — on block groups, on the stamped body, and on a
// group whose NaN hands it back to the stamped body — over rounds that
// run the plan's bound schedule.
func TestReleasedSpareNeverReachesProduct(t *testing.T) {
	nanBlocks := BlockDiag(64, 6, 5).Clone()
	nanBlocks.Data[70] = math.Float64frombits(0x7ff8000000000abc)
	eng, _ := ByName("cpu")
	for name, a := range map[string]*Matrix{
		"blocks":     BlockDiag(64, 6, 3),
		"rmat":       RMAT(9, 8, 0.57, 0.19, 0.19, 4),
		"nan-blocks": nanBlocks,
	} {
		aid := mustIdentify(t, a)
		pc := NewPlanCache(0)
		opts := &RunOptions{PlanCache: pc, AID: aid, BID: aid}
		cold, _, err := eng.Run(a, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _, err := eng.Run(a, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		mustBitIdentical(t, cold, fresh)
		prev := fresh
		for round := 0; round < 4; round++ {
			garble(prev.Data)
			pc.Release(a, a, prev, *opts)
			if got := spares(pc, a, a, *opts); got != 1 {
				t.Fatalf("%s round %d: the plan holds %d spares after a release, want 1", name, round, got)
			}
			next, _, err := eng.Run(a, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			if &next.Data[0] != &prev.Data[0] {
				t.Fatalf("%s round %d: the replay did not write into the released array", name, round)
			}
			mustBitIdentical(t, cold, next)
			prev = next
		}
	}
}

// TestReleaseTakesOnlyThePlansProduct: Release keeps a value array only
// from a product of the cache's CPU plan for the operands it names,
// once, charged to the cache's bytes until a replay takes it; two warm
// runs that release nothing never share a value array.
func TestReleaseTakesOnlyThePlansProduct(t *testing.T) {
	a, b := BlockDiag(32, 8, 3), RMAT(8, 8, 0.57, 0.19, 0.19, 2)
	aid, bid := mustIdentify(t, a), mustIdentify(t, b)
	pc := NewPlanCache(0)
	cpu, _ := ByName("cpu")
	oa := &RunOptions{PlanCache: pc, AID: aid, BID: aid}
	ob := &RunOptions{PlanCache: pc, AID: bid, BID: bid}
	if _, _, err := cpu.Run(a, a, oa); err != nil {
		t.Fatal(err)
	}
	w1, _, err := cpu.Run(a, a, oa)
	if err != nil {
		t.Fatal(err)
	}
	w2, _, err := cpu.Run(a, a, oa)
	if err != nil {
		t.Fatal(err)
	}
	if &w1.Data[0] == &w2.Data[0] {
		t.Fatal("two warm runs without a release share a value array")
	}
	other, _, err := cpu.Run(b, b, ob)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, _ := ByName("hybrid")
	ho := runOptsFor("hybrid")
	ho.PlanCache, ho.AID, ho.BID = pc, aid, aid
	device, _, err := hybrid.Run(a, a, ho)
	if err != nil {
		t.Fatal(err)
	}
	short := *w1
	short.Data = w1.Data[:len(w1.Data)-1]
	before := pc.core().Bytes()
	for what, release := range map[string]func(){
		"another plan's product":         func() { pc.Release(a, a, other, *oa) },
		"a wrong-length value array":     func() { pc.Release(a, a, &short, *oa) },
		"a device engine's product":      func() { pc.Release(a, a, device, *oa) },
		"a copy of the product":          func() { pc.Release(a, a, w1.Clone(), *oa) },
		"operands without their records": func() { pc.Release(a, a, w1, RunOptions{PlanCache: pc}) },
		"a product under another pair":   func() { pc.Release(b, b, w1, *ob) },
	} {
		release()
		if spares(pc, a, a, *oa) != 0 || spares(pc, b, b, *ob) != 0 || pc.core().Bytes() != before {
			t.Fatalf("Release kept %s", what)
		}
	}
	(*PlanCache)(nil).Release(a, a, w1, *oa)

	pc.Release(a, a, w1, *oa)
	pc.Release(a, a, w1, *oa)
	if got, n := spares(pc, a, a, *oa), int64(len(w1.Data))*8; got != 1 || pc.core().Bytes() != before+n {
		t.Fatalf("two releases of one product left %d spares and %d more bytes, want 1 and %d", got, pc.core().Bytes()-before, n)
	}
	w3, _, err := cpu.Run(a, a, oa)
	if err != nil {
		t.Fatal(err)
	}
	w4, _, err := cpu.Run(a, a, oa)
	if err != nil {
		t.Fatal(err)
	}
	if &w3.Data[0] != &w1.Data[0] || &w4.Data[0] == &w3.Data[0] || pc.core().Bytes() != before {
		t.Fatal("a spare was not taken by exactly one replay, or its bytes stayed charged")
	}
	if pc.Release(a, a, w3, *oa); pc.core().Bytes() != before+int64(len(w3.Data))*8 {
		t.Fatalf("a spare handed back again is charged %d bytes, want %d", pc.core().Bytes()-before, len(w3.Data)*8)
	}
}

// TestEvictionReleasesAPlansBytes: plans leave the cache by its budget
// alone, and a plan that leaves takes every byte charged to it along —
// its operand structure, checked record pairs, bound schedules and spare
// value arrays — so a cache that has evicted all but its youngest plan
// is charged exactly what that plan holds.
func TestEvictionReleasesAPlansBytes(t *testing.T) {
	cpu, _ := ByName("cpu")
	first := BlockDiag(32, 8, 3)
	fid := mustIdentify(t, first)
	o := &RunOptions{AID: fid, BID: fid}
	_, sym, err := cpuspgemm.MultiplyPlanned(first, first, cpuspgemm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Room for the first plan with its schedule, a second pair and a
	// spare, not for a second plan beside it.
	pc := NewPlanCache(2 * (sym.Bytes() + structBytes(first) + int64(len(sym.ColIDs))*8))
	o.PlanCache = pc
	for range 3 {
		if _, _, err := cpu.Run(first, first, o); err != nil {
			t.Fatal(err)
		}
	}
	other := first.Clone() // the pattern in arrays of its own: a pair that costs its structure
	oid := mustIdentify(t, other)
	w, _, err := cpu.Run(other, other, &RunOptions{PlanCache: pc, AID: oid, BID: oid})
	if err != nil {
		t.Fatal(err)
	}
	pc.Release(other, other, w, RunOptions{PlanCache: pc, AID: oid, BID: oid})
	ent := pc.peekCPU(first, first, *o)
	held, scheds, spares := pc.core().Held(ent)
	if scheds != 2 || spares != 1 || held != pc.core().Bytes() {
		t.Fatalf("the first plan holds %d bytes, %d schedules and %d spares, the cache %d bytes; want 2, 1 and all of it",
			held, scheds, spares, pc.core().Bytes())
	}
	for seed := int64(1); pc.Len() > 1 || pc.peekCPU(first, first, *o) != nil; seed++ {
		m := ER(300, 300, 0.02, seed)
		if _, _, err := cpu.Run(m, m, &RunOptions{PlanCache: pc}); err != nil {
			t.Fatal(err)
		}
		if seed == 50 {
			t.Fatal("fifty new patterns did not evict the first plan")
		}
	}
	m := ER(300, 300, 0.02, 99)
	if _, _, err := cpu.Run(m, m, &RunOptions{PlanCache: pc}); err != nil {
		t.Fatal(err)
	}
	last := pc.peekCPU(m, m, RunOptions{})
	if held, _, _ := pc.core().Held(last); pc.Len() != 1 || pc.core().Bytes() != held {
		t.Fatalf("%d plans charged %d bytes after the evictions, want the youngest alone and its %d", pc.Len(), pc.core().Bytes(), held)
	}
}
