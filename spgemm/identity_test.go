package spgemm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/metrics"
)

// hostileOperand is a random rows×cols matrix with what the kernels'
// edge paths live on: whole rows emptied, and NaN, ±Inf and -0.0 among
// the values.
func hostileOperand(rng *rand.Rand, rows, cols int, density float64) *Matrix {
	var es []Entry
	for r := 0; r < rows; r++ {
		if rng.Intn(5) == 0 {
			continue // an empty row
		}
		for c := 0; c < cols; c++ {
			if rng.Float64() >= density {
				continue
			}
			v := rng.NormFloat64()
			switch rng.Intn(12) {
			case 0:
				v = math.NaN()
			case 1:
				v = math.Inf(1)
			case 2:
				v = math.Inf(-1)
			case 3:
				v = math.Copysign(0, -1)
			}
			es = append(es, Entry{Row: int32(r), Col: int32(c), Val: v})
		}
	}
	m, err := FromEntries(rows, cols, es)
	if err != nil {
		panic(err)
	}
	return m
}

func mustIdentify(t *testing.T, m *Matrix) *Identity {
	t.Helper()
	id, err := csr.Identify(m)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func passes(col *Collector) int64 { return col.Counter(metrics.CounterIdentityPasses) }

// TestIdentityRecordsChangeNoProduct is the property the records rest
// on: for random operands — empty rows, NaN, ±Inf, -0.0 — a run given
// the operands' records returns bit for bit the product of a run given
// none, cold and warm, on the cpu engine and on the hybrid one with a
// plan cache, and moves the plan cache's hit and miss counters exactly
// alike. The only thing that differs is the identity work done: none
// with records on the cpu engine.
func TestIdentityRecordsChangeNoProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		rows, inner, cols := 20+rng.Intn(60), 20+rng.Intn(60), 20+rng.Intn(60)
		a := hostileOperand(rng, rows, inner, 0.12)
		b := hostileOperand(rng, inner, cols, 0.12)
		aid, bid := mustIdentify(t, a), mustIdentify(t, b)
		for _, name := range []string{"cpu", "hybrid"} {
			eng, _ := ByName(name)
			plain, with := runOptsFor(name), runOptsFor(name)
			plain.PlanCache, with.PlanCache = NewPlanCache(0), NewPlanCache(0)
			with.AID, with.BID = aid, bid
			for _, phase := range []string{"cold", "warm"} {
				plain.Metrics, with.Metrics = NewCollector(), NewCollector()
				want, _, err := eng.Run(a, b, plain)
				if err != nil {
					t.Fatalf("trial %d %s %s: %v", trial, name, phase, err)
				}
				got, rep, err := eng.Run(a, b, with)
				if err != nil {
					t.Fatalf("trial %d %s %s with records: %v", trial, name, phase, err)
				}
				mustBitIdentical(t, want, got)
				if f := Flops(a, b); rep.FlopCount() != f {
					t.Fatalf("trial %d %s %s: report counts %d flops, the pair has %d", trial, name, phase, rep.FlopCount(), f)
				}
				if name == "cpu" && passes(with.Metrics) != 0 {
					t.Fatalf("trial %d cpu %s: %d identity passes with both records, want 0", trial, phase, passes(with.Metrics))
				}
				if passes(plain.Metrics) <= passes(with.Metrics) {
					t.Fatalf("trial %d %s %s: %d identity passes without records, %d with", trial, name, phase,
						passes(plain.Metrics), passes(with.Metrics))
				}
			}
			ph, pm, _ := plain.PlanCache.Counters()
			wh, wm, _ := with.PlanCache.Counters()
			if ph != wh || pm != wm || wh == 0 {
				t.Fatalf("trial %d %s: plan cache hits/misses %d/%d without records, %d/%d with", trial, name, ph, pm, wh, wm)
			}
		}
	}
}

// TestDeviceEnginesValidateOnce: a registry engine validates its
// operands once, at Engine.Run — not again in a Multiply* wrapper, nor
// once per refinement attempt of auto — so a run with neither records
// nor a plan cache does one identity pass per operand, and one for A².
func TestDeviceEnginesValidateOnce(t *testing.T) {
	a := RMAT(8, 8, 0.57, 0.19, 0.19, 62)
	b := a.Clone()
	for _, name := range []string{"gpu", "gpu-sync", "hybrid", "multigpu", "auto"} {
		eng, _ := ByName(name)
		opts := runOptsFor(name)
		opts.Core = OutOfCoreOptions{RowPanels: 2, ColPanels: 2}
		opts.Metrics = NewCollector()
		if _, _, err := eng.Run(a, a, opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := passes(opts.Metrics); n != 1 {
			t.Fatalf("%s: Run(a, a): %d identity passes, want 1 (B is A)", name, n)
		}
		opts.Metrics = NewCollector()
		if _, _, err := eng.Run(a, b, opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := passes(opts.Metrics); n != 2 {
			t.Fatalf("%s: Run(a, b): %d identity passes, want 2 (one per operand)", name, n)
		}
	}
}

// TestForeignIdentityRecordIsIgnored: a record minted for a different
// matrix of the same shape and nnz, and one minted for a matrix since
// copied and changed, are not of the operand, so the operand is
// validated and hashed as if it had come with none: the product is
// right, an invalid operand is still refused, and the run does exactly
// the identity passes of a run without records.
func TestForeignIdentityRecordIsIgnored(t *testing.T) {
	a := ER(120, 120, 0.04, 61)
	eng, _ := ByName("cpu")
	want, _, err := eng.Run(a, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	bare := &RunOptions{PlanCache: NewPlanCache(0), Metrics: NewCollector()}
	if _, _, err := eng.Run(a, a, bare); err != nil {
		t.Fatal(err)
	}

	// Same shape, same nnz, another pattern: one entry moved.
	other := a.Clone()
	last := other.Rows - 1
	for other.RowNnz(last) == 0 {
		last--
	}
	p := other.RowOffsets[last+1] - 1
	if other.ColIDs[p] == int32(other.Cols-1) {
		t.Fatal("the test matrix's last entry sits in the last column; pick another seed")
	}
	other.ColIDs[p]++
	foreign := mustIdentify(t, other)
	if a.Nnz() != other.Nnz() || Fingerprint(a) == Fingerprint(other) {
		t.Fatal("the foreign matrix must share shape and nnz with a, not its pattern")
	}

	// A record minted for a, then a changed copy of a handed in under it.
	stale := mustIdentify(t, a)
	mutated := a.Clone()
	mutated.ColIDs[p]++
	wantMutated, _, err := eng.Run(mutated, mutated, nil)
	if err != nil {
		t.Fatal(err)
	}

	for name, tc := range map[string]struct {
		m    *Matrix
		id   *Identity
		want *Matrix
	}{
		"a record of another matrix":    {a, foreign, want},
		"a record of the unchanged one": {mutated, stale, wantMutated},
	} {
		opts := &RunOptions{PlanCache: NewPlanCache(0), Metrics: NewCollector(), AID: tc.id, BID: tc.id}
		got, _, err := eng.Run(tc.m, tc.m, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mustBitIdentical(t, tc.want, got)
		if passes(opts.Metrics) != passes(bare.Metrics) {
			t.Fatalf("%s: %d identity passes, a run without records does %d", name, passes(opts.Metrics), passes(bare.Metrics))
		}
	}

	corrupt := a.Clone()
	corrupt.ColIDs[0], corrupt.ColIDs[1] = corrupt.ColIDs[1], corrupt.ColIDs[0]
	if corrupt.RowNnz(0) < 2 {
		t.Fatal("row 0 of the test matrix needs two entries")
	}
	if _, _, err := eng.Run(corrupt, a, &RunOptions{AID: stale, BID: stale}); err == nil {
		t.Fatal("an invalid operand passed under another matrix's record")
	}
}

// TestProductIdentity: a product of a cached CPU plan gets the plan's
// record — minted once, by one validation and one hash, and of every
// later product of the plan in O(1) — and nothing else does.
func TestProductIdentity(t *testing.T) {
	a := BlockDiag(40, 6, 3)
	aid := mustIdentify(t, a)
	pc := NewPlanCache(0)
	eng, _ := ByName("cpu")
	opts := &RunOptions{PlanCache: pc, AID: aid, BID: aid, Metrics: NewCollector()}
	cold, _, err := eng.Run(a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	cid := pc.ProductIdentity(a, a, cold, *opts)
	if !cid.Of(cold) || cid.Fingerprint() != Fingerprint(cold) {
		t.Fatalf("cold product: record %v is not of it or does not carry its fingerprint", cid)
	}
	if got := passes(opts.Metrics); got != 2 {
		t.Fatalf("minting the product's record took %d identity passes, want 2 (validate, hash)", got)
	}
	warm, _, err := eng.Run(refreshValues(a, 9), refreshValues(a, 9), opts)
	if err != nil {
		t.Fatal(err)
	}
	if wid := pc.ProductIdentity(a, a, warm, *opts); wid != cid || !wid.Of(warm) {
		t.Fatal("a warm product of the same plan did not get the plan's one record")
	}
	if got := passes(opts.Metrics); got != 2 {
		t.Fatalf("%d identity passes after a warm run and a second request, want still 2", got)
	}
	// The record is the plan's: a product it describes is a valid operand.
	if _, _, err := eng.Run(warm, a, &RunOptions{PlanCache: pc, AID: cid, BID: aid}); err != nil {
		t.Fatal(err)
	}

	if id := pc.ProductIdentity(a, a, cold.Clone(), *opts); id != nil {
		t.Error("a copy of the product, not sharing the plan's arrays, got its record")
	}
	if id := pc.ProductIdentity(a, a, cold, RunOptions{PlanCache: pc}); id != nil {
		t.Error("operands without records got a product record")
	}
	if id := NewPlanCache(0).ProductIdentity(a, a, cold, *opts); id != nil {
		t.Error("a cache without the plan returned a record")
	}
	if id := (*PlanCache)(nil).ProductIdentity(a, a, cold, *opts); id != nil {
		t.Error("a nil cache returned a record")
	}
}

// TestEstimateCostScansFlopsOnce: planning a device engine's grid walks
// the pair, and that walk's row flops are the estimate's flop count, so
// a cold estimate of A² takes A's validation's identity pass (B is A) and
// no flop scan of its own.
func TestEstimateCostScansFlopsOnce(t *testing.T) {
	a := RMAT(9, 8, 0.57, 0.19, 0.19, 47)
	opts := &RunOptions{Metrics: NewCollector()}
	cost, err := EstimateCost("hybrid", a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Flops != Flops(a, a) || cost.Chunks == 0 {
		t.Fatalf("estimate %+v, want %d flops over a planned grid", cost, Flops(a, a))
	}
	if n := passes(opts.Metrics); n != 1 {
		t.Fatalf("a cold hybrid estimate took %d identity passes, want 1 (the validation of A = B)", n)
	}
}

// TestEstimateCostReadsThePlansMemo: with the operands' records and a
// cached plan the estimate is O(1) — no validation, no flop scan, and
// no plan-cache counter moves — and equal to the scanned one.
func TestEstimateCostReadsThePlansMemo(t *testing.T) {
	a := ER(200, 200, 0.03, 71)
	aid := mustIdentify(t, a)
	pc := NewPlanCache(0)
	eng, _ := ByName("cpu")
	if _, _, err := eng.Run(a, a, &RunOptions{PlanCache: pc}); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := pc.Counters()

	scanned := &RunOptions{PlanCache: pc, Metrics: NewCollector()}
	want, err := EstimateCost("cpu", a, a, scanned)
	if err != nil {
		t.Fatal(err)
	}
	if got := passes(scanned.Metrics); got != 2 {
		t.Fatalf("an estimate without records took %d identity passes, want 2 (the validation of A = B, one flop scan)", got)
	}
	memo := &RunOptions{PlanCache: pc, Metrics: NewCollector(), AID: aid, BID: aid}
	got, err := EstimateCost("cpu", a, a, memo)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got.Flops != Flops(a, a) {
		t.Fatalf("estimate from the memo %+v, scanned %+v", got, want)
	}
	if n := passes(memo.Metrics); n != 0 {
		t.Fatalf("an estimate with records and a cached plan took %d identity passes, want 0", n)
	}
	if h, m, _ := pc.Counters(); h != hits || m != misses {
		t.Fatalf("estimating moved the plan cache's counters: %d/%d -> %d/%d", hits, misses, h, m)
	}
	// No plan yet: the records still spare the validations, not the scan.
	miss := &RunOptions{PlanCache: NewPlanCache(0), Metrics: NewCollector(), AID: aid, BID: aid}
	if got, err := EstimateCost("cpu", a, a, miss); err != nil || got != want || passes(miss.Metrics) != 1 {
		t.Fatalf("estimate on a plan miss: %+v, %v, %d passes; want %+v and the one flop scan", got, err, passes(miss.Metrics), want)
	}
}

// TestPlanCacheCPULRUOrder pins the eviction order of CPU plans: least
// recently used first, a hit moving its plan to the young end.
func TestPlanCacheCPULRUOrder(t *testing.T) {
	pats := []*Matrix{BlockDiag(30, 4, 1), BlockDiag(31, 4, 1), BlockDiag(32, 4, 1), BlockDiag(33, 4, 1)}
	var plans []*cpuspgemm.SymbolicResult
	var size int64
	for _, m := range pats {
		_, sym, err := cpuspgemm.MultiplyPlanned(m, m, cpuspgemm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, sym)
		size = max(size, sym.Bytes()+csr.IdentityBytes+structBytes(m))
	}
	pc := NewPlanCache(3 * size) // holds three plans, not four
	store := func(i int) { pc.storeCPU(pats[i], pats[i], RunOptions{}, plans[i]) }
	for i := 0; i < 3; i++ {
		store(i)
	}
	if ent, _ := pc.acquireCPU(pats[0], pats[0], RunOptions{}); ent == nil { // 0 is now the youngest: order 1, 2, 0
		t.Fatal("plan 0 missing before any eviction")
	}
	store(3) // evicts 1
	for i, want := range []bool{true, false, true, true} {
		if got := pc.peekCPU(pats[i], pats[i], RunOptions{}) != nil; got != want {
			t.Fatalf("after the first eviction plan %d resident = %v, want %v", i, got, want)
		}
	}
	store(1) // evicts 2: order 0, 3, 1
	for i, want := range []bool{true, true, false, true} {
		if got := pc.peekCPU(pats[i], pats[i], RunOptions{}) != nil; got != want {
			t.Fatalf("after the second eviction plan %d resident = %v, want %v", i, got, want)
		}
	}
	if _, _, ev := pc.Counters(); ev != 2 {
		t.Fatalf("%d evictions counted, want 2", ev)
	}
}

// TestEstimateCostChecksThePlan: admission takes the pair's flop count
// from a cached CPU plan only when the plan was built from the operands'
// structure. An A colliding with the planned one (one key) is scanned:
// its flop count is its own, not the plan's.
func TestEstimateCostChecksThePlan(t *testing.T) {
	ids, collider := collidingIDs(t)
	b := &Matrix{Rows: wideCols, Cols: 3, RowOffsets: make([]int64, wideCols+1)}
	for r := range wideCols {
		for c := range 1 + r%3 { // rows of one, two and three entries
			b.ColIDs, b.Data = append(b.ColIDs, int32(c)), append(b.Data, float64(r+c))
		}
		b.RowOffsets[r+1] = int64(len(b.ColIDs))
	}
	a, other := wideRows(ids, 1), wideRows(collider, 1)
	if Flops(a, b) == Flops(other, b) {
		t.Fatal("the colliding products have one flop count; the test shows nothing")
	}
	aid, bid, oid := mustIdentify(t, a), mustIdentify(t, b), mustIdentify(t, other)
	pc := NewPlanCache(0)
	eng, _ := ByName("cpu")
	if _, _, err := eng.Run(a, b, &RunOptions{PlanCache: pc, AID: aid, BID: bid}); err != nil {
		t.Fatal(err)
	}
	for what, o := range map[string]*RunOptions{
		"the planned pair":   {PlanCache: pc, AID: aid, BID: bid, Metrics: NewCollector()},
		"the colliding pair": {PlanCache: pc, AID: oid, BID: bid, Metrics: NewCollector()},
	} {
		x := a
		if o.AID == oid {
			x = other
		}
		cost, err := EstimateCost("cpu", x, b, o)
		if err != nil {
			t.Fatal(err)
		}
		if cost.Flops != Flops(x, b) {
			t.Fatalf("%s: admitted at %d flops, want its own %d", what, cost.Flops, Flops(x, b))
		}
	}
}
