package spgemm

import (
	"math"
	"testing"
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
	ent := pc.peekCPU(o.PlanKey(a, b))
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
	pc.Release(a, a, w3, *oa)
	pc.Invalidate(Fingerprint(a))
	pc.Invalidate(Fingerprint(b))
	if pc.core().Bytes() != 0 {
		t.Fatalf("%d bytes charged after every plan left the cache", pc.core().Bytes())
	}
}
