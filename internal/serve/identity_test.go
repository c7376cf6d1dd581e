package serve

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/csr"
	"repro/internal/metrics"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// hostileSquare is a random n×n operand with empty rows and NaN, ±Inf
// and -0.0 among its values.
func hostileSquare(rng *rand.Rand, n int, density float64) *spgemm.Matrix {
	var es []spgemm.Entry
	for r := 0; r < n; r++ {
		if rng.Intn(5) == 0 {
			continue
		}
		for c := 0; c < n; c++ {
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
			es = append(es, spgemm.Entry{Row: int32(r), Col: int32(c), Val: v})
		}
	}
	m, err := spgemm.FromEntries(n, n, es)
	if err != nil {
		panic(err)
	}
	return m
}

func bitIdentical(a, b *spgemm.Matrix) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols &&
		slices.Equal(a.RowOffsets, b.RowOffsets) && slices.Equal(a.ColIDs, b.ColIDs) && csr.SameBits(a.Data, b.Data)
}

func identityPasses(s *Server) int64 { return s.Snapshot()[metrics.CounterIdentityPasses] }

// TestBatchChainMatchesSingleMultiplies: a 4-node chain A², A³, A⁴, A⁵
// through the batch planner — every node's output carrying its record
// to the next — produces bit for bit what four single store_c
// multiplies chained by handle produce and what the library computes
// with no record anywhere, on operands with empty rows, NaN, ±Inf and
// -0.0; and both servers' plan caches count the same hits and misses.
func TestBatchChainMatchesSingleMultiplies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3; trial++ {
		a := hostileSquare(rng, 30+rng.Intn(30), 0.1)
		batch, single := New(Config{MaxConcurrent: 2}), New(Config{MaxConcurrent: 2})
		hb, err := batch.StoreMatrix(a)
		if err != nil {
			t.Fatal(err)
		}
		hs, err := single.StoreMatrix(a)
		if err != nil {
			t.Fatal(err)
		}
		req := batchChain(hb, 4)
		for i := range req.Nodes {
			req.Nodes[i].Store = true
		}
		resp, err := batch.SubmitBatch(req)
		if err != nil || resp.Completed != 4 {
			t.Fatalf("trial %d: batch: %v, %+v", trial, err, resp)
		}
		ref, prev := a, hs
		for k := 0; k < 4; k++ {
			if ref, _, err = cpuEngine.Run(ref, a, &spgemm.RunOptions{Threads: 1}); err != nil {
				t.Fatal(err)
			}
			mul, err := single.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: prev, BHandle: hs, StoreC: true})
			if err != nil {
				t.Fatalf("trial %d: single multiply %d: %v", trial, k, err)
			}
			prev = mul.CHandle
			if resp.Nodes[k].Handle != mul.CHandle {
				t.Fatalf("trial %d: node %d stored as %s, the single multiply as %s", trial, k, resp.Nodes[k].Handle, mul.CHandle)
			}
			fromBatch, ok1 := batch.Matrix(resp.Nodes[k].Handle)
			fromSingle, ok2 := single.Matrix(mul.CHandle)
			if !ok1 || !ok2 || !bitIdentical(fromBatch, ref) || !bitIdentical(fromSingle, ref) {
				t.Fatalf("trial %d: product %d differs between batch, single multiplies and the library", trial, k)
			}
		}
		bh, bm, _ := batch.PlanCache().Counters()
		sh, sm, _ := single.PlanCache().Counters()
		if bh != sh || bm != sm {
			t.Fatalf("trial %d: plan cache hits/misses %d/%d through the batch, %d/%d through single multiplies", trial, bh, bm, sh, sm)
		}
		batch.Drain(0)
		single.Drain(0)
	}
}

// TestWarmHandleTrafficDoesNoIdentityWork is the O(1) witness, as a
// count that repeats exactly: once a pattern's plan is warm, a multiply
// by handle validates, hashes and flop-scans nothing, nor does any node
// of a batch chain over it; storing a warm product costs the one values
// hash. Operands that arrive as specs have no record and pay for it.
func TestWarmHandleTrafficDoesNoIdentityWork(t *testing.T) {
	s := New(Config{MaxConcurrent: 2})
	defer s.Drain(0)
	h, err := s.StoreMatrix(spgemm.BlockDiag(64, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	mul := apiv1.MultiplyRequest{Engine: "cpu", AHandle: h}
	chain := batchChain(h, 4)
	stored := batchChain(h, 4)
	stored.Nodes[3].Store = true
	// Cold: the plan, the product's record, the stored products.
	if _, err := s.Multiply(mul); err != nil {
		t.Fatal(err)
	}
	if resp, err := s.SubmitBatch(stored); err != nil || resp.Completed != 4 {
		t.Fatalf("cold batch: %v, %+v", err, resp)
	}

	for round := 0; round < 3; round++ {
		for name, tc := range map[string]struct {
			run  func() error
			want int64
		}{
			"a warm handle multiply":                    {func() error { _, err := s.Multiply(mul); return err }, 0},
			"a warm batch chain":                        {func() error { _, err := s.SubmitBatch(chain); return err }, 0},
			"a warm chain that stores its last product": {func() error { _, err := s.SubmitBatch(stored); return err }, 1},
			"a warm multiply with store_c": {func() error {
				m := mul
				m.StoreC = true
				_, err := s.Multiply(m)
				return err
			}, 1},
		} {
			before := identityPasses(s)
			if err := tc.run(); err != nil {
				t.Fatalf("round %d, %s: %v", round, name, err)
			}
			if got := identityPasses(s) - before; got != tc.want {
				t.Fatalf("round %d, %s: %d identity passes, want %d", round, name, got, tc.want)
			}
		}
	}
	res, err := s.Submit(Job{Engine: "cpu", AHandle: h, BHandle: h})
	if err != nil || res.Snapshot[metrics.CounterIdentityPasses] != 0 {
		t.Fatalf("a warm handle job's own snapshot counts %d identity passes (%v), want 0", res.Snapshot[metrics.CounterIdentityPasses], err)
	}

	before := identityPasses(s)
	inline := apiv1.MultiplyRequest{Engine: "cpu", A: apiv1.MatrixSpec{Kind: "blocks", N: 512, Block: 8, Seed: 3}}
	if _, err := s.Multiply(inline); err != nil {
		t.Fatal(err)
	}
	if got := identityPasses(s) - before; got <= 0 {
		t.Fatalf("a spec-built operand cost %d identity passes; it has no record and must be validated and hashed", got)
	}
}

// TestWarmHandleMultiplyAllocationCeiling: a warm multiply by handle
// allocates a fixed amount, whatever the product's size — no flop
// scan's scratch and, the product's values going back to the plan once
// the response is built, no value array. The collector is held off from
// the warm-up on, so that no collection empties the pools the count
// assumes warm.
func TestWarmHandleMultiplyAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := New(Config{MaxConcurrent: 1, Base: spgemm.RunOptions{Threads: 1}})
	defer s.Drain(0)
	h, err := s.StoreMatrix(spgemm.BlockDiag(512, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	req := apiv1.MultiplyRequest{Engine: "cpu", AHandle: h}
	var nnzC int64
	for i := 0; i < 3; i++ { // cold, then pool warm-up
		resp, err := s.Multiply(req)
		if err != nil {
			t.Fatal(err)
		}
		nnzC = resp.NnzC
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := s.Multiply(req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := int64(after.TotalAlloc-before.TotalAlloc) / runs
	const ceiling = 16 << 10
	t.Logf("warm handle multiply: %d bytes per call, nnz(C) %d, ceiling %d", perOp, nnzC, ceiling)
	if perOp > ceiling {
		t.Fatalf("a warm handle multiply allocates %d bytes, ceiling 16 KiB", perOp)
	}
}

// TestWarmBatchChainAllocationCeiling is its twin for a batch: in steady
// state a warm 4-node chain allocates less than one product's value
// array, every node writing into an array an earlier node handed back.
// The collector is held off as there.
func TestWarmBatchChainAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := New(Config{MaxConcurrent: 1, Base: spgemm.RunOptions{Threads: 1}})
	defer s.Drain(0)
	h, err := s.StoreMatrix(spgemm.BlockDiag(512, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	req := batchChain(h, 4)
	var nnzC int64
	for i := 0; i < 3; i++ { // cold, then spares and pools warm up
		resp, err := s.SubmitBatch(req)
		if err != nil || resp.Completed != 4 {
			t.Fatalf("%v, %+v", err, resp)
		}
		nnzC = resp.Nodes[3].NnzC
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := s.SubmitBatch(req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perBatch := int64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("warm 4-node chain: %d bytes per batch, nnz(C) %d per node", perBatch, nnzC)
	if perBatch >= 8*nnzC {
		t.Fatalf("a warm 4-node chain allocates %d bytes, ceiling 8·nnz(C) = %d", perBatch, 8*nnzC)
	}
}

// TestStoredChainComparesStructureOnce: a stored chain product carries
// its plan's record, not the record of the pattern it lands in (minted
// for the upload A), so its first put compares the structure arrays;
// from then on the pattern knows the record. After the first chain the
// pattern's structure is swapped for one differing in a column id, so
// any compare would refuse: the second chain storing under the same
// handle shows it made none, and an upload of A in arrays of its own,
// compared as every upload is, is refused as a structure collision.
func TestStoredChainComparesStructureOnce(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, Base: spgemm.RunOptions{Threads: 1}})
	defer s.Drain(0)
	a := spgemm.BlockDiag(64, 8, 3)
	h, err := s.StoreMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	req := batchChain(h, 4)
	req.Nodes[3].Store = true
	chain := func() string {
		t.Helper()
		resp, err := s.SubmitBatch(req)
		if err != nil || resp.Completed != 4 || resp.Nodes[3].Handle == "" {
			t.Fatalf("%v, %+v", err, resp)
		}
		return resp.Nodes[3].Handle
	}
	stored := chain()

	_, id, _ := s.store.get(h)
	s.store.mu.Lock()
	pat := s.store.patterns[id.Fingerprint()]
	doctored := *pat.structure
	doctored.ColIDs = slices.Clone(doctored.ColIDs)
	doctored.ColIDs[0]++
	pat.structure = &doctored
	s.store.mu.Unlock()

	if again := chain(); again != stored {
		t.Fatalf("the second chain stored %s, want %s", again, stored)
	}
	_, err = s.StoreMatrix(a.Clone())
	var ce *CollisionError
	if !errors.As(err, &ce) || !ce.Structure {
		t.Fatalf("an upload differing from the resident structure: err = %v, want a structure CollisionError", err)
	}
}

// --- constructed collisions -------------------------------------------

// The store's fingerprints fold one 64-bit word at a time:
// h' = (h ^ f(v))·P with f two odd multiplies around an xor-shift. f is
// a bijection, so for any two-word suffix a second one with the same
// hash is solved for directly — no search, no hook in product code. The
// constants are copied from internal/csr; every constructed collision
// is checked against the real spgemm.Fingerprint / FingerprintValues.
const (
	fpOffset = 14695981039346656037
	fpPrime  = 1099511628211
	fpC1     = 0xff51afd7ed558ccd
	fpC2     = 0xc4ceb9fe1a85ec53
)

func fpF(v uint64) uint64 {
	v *= fpC1
	v ^= v >> 33
	return v * fpC2
}

// inverse of an odd number modulo 2^64 (Newton's iteration).
func inv64(a uint64) uint64 {
	x := a
	for i := 0; i < 6; i++ {
		x *= 2 - a*x
	}
	return x
}

func fpFInverse(y uint64) uint64 {
	y *= inv64(fpC2)
	y ^= y >> 33 // an xor-shift by more than half the word undoes itself
	return y * inv64(fpC1)
}

func fpMix(h, v uint64) uint64 { return (h ^ fpF(v)) * fpPrime }

// collidingSuffix returns, for hash state h before the two words
// (w1, w2) and a replacement first word, the second word under which
// the hash after both is unchanged.
func collidingSuffix(h, w1, w2, newW1 uint64) uint64 {
	return fpFInverse(fpF(w2) ^ fpMix(h, w1) ^ fpMix(h, newW1))
}

// TestStoreRefusesValuesCollision: same structure, different values,
// same values fingerprint, hence the same handle. Answering the second
// upload with the resident handle would hand every later product the
// first one's values.
func TestStoreRefusesValuesCollision(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer s.Drain(0)
	first := spgemm.ER(30, 30, 0.1, 4)
	second := first.Clone()
	n := len(first.Data)
	h := uint64(fpOffset)
	for _, v := range first.Data[:n-2] {
		h = fpMix(h, math.Float64bits(v))
	}
	w1, w2 := math.Float64bits(first.Data[n-2]), math.Float64bits(first.Data[n-1])
	second.Data[n-2] = first.Data[n-2] + 1
	second.Data[n-1] = math.Float64frombits(collidingSuffix(h, w1, w2, math.Float64bits(second.Data[n-2])))
	if spgemm.FingerprintValues(first) != spgemm.FingerprintValues(second) || csr.SameBits(first.Data, second.Data) {
		t.Fatal("the constructed values do not collide")
	}

	h1, err := s.StoreMatrix(first)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.StoreMatrix(second)
	var ce *CollisionError
	if !errors.As(err, &ce) || ce.Structure || ce.Handle != h1 {
		t.Fatalf("colliding values: err = %v, want a values CollisionError on %s", err, h1)
	}
	if got, _ := s.Matrix(h1); !csr.SameBits(got.Data, first.Data) {
		t.Fatal("the resident matrix changed")
	}
	if entries, _, _, _, _ := s.store.stats(); entries != 1 {
		t.Fatalf("%d entries resident, want the first upload alone", entries)
	}
	// An equal upload in arrays of its own is still the idempotent hit.
	if again, err := s.StoreMatrix(first.Clone()); err != nil || again != h1 {
		t.Fatalf("re-upload of equal content: %s, %v", again, err)
	}
}

// collidingPatterns returns two different sparsity patterns of one shape
// (4 × cols) and nnz under one structural fingerprint, with one entry
// per row valued 1, 2, 3, 4. On a wide matrix with one entry per row the
// column-id pairs the hash folds straddle row boundaries and are
// constrained only to the column range, so the last pair is solved for.
func collidingPatterns(t testing.TB, cols int32) (resident, collider *spgemm.Matrix) {
	resident = &spgemm.Matrix{
		Rows: 4, Cols: int(cols),
		RowOffsets: []int64{0, 1, 2, 3, 4},
		ColIDs:     []int32{11, 222, 3333, 44444},
		Data:       []float64{1, 2, 3, 4},
	}
	h := fpMix(fpMix(fpOffset, uint64(resident.Rows)), uint64(resident.Cols))
	for _, o := range resident.RowOffsets {
		h = fpMix(h, uint64(o))
	}
	pair := func(lo, hi int32) uint64 { return uint64(uint32(lo)) | uint64(uint32(hi))<<32 }
	w1, w2 := pair(11, 222), pair(3333, 44444)
	collider = resident.Clone()
	for first := int32(12); ; first++ {
		w := collidingSuffix(h, w1, w2, pair(first, 222))
		lo, hi := int32(uint32(w)), int32(uint32(w>>32))
		if lo >= 0 && lo < cols && hi >= 0 && hi < cols {
			collider.ColIDs = []int32{first, 222, lo, hi}
			break
		}
	}
	if err := collider.Validate(); err != nil {
		t.Fatal(err)
	}
	if spgemm.Fingerprint(resident) != spgemm.Fingerprint(collider) || slices.Equal(resident.ColIDs, collider.ColIDs) {
		t.Fatal("the constructed patterns do not collide")
	}
	return resident, collider
}

// TestStoreRefusesStructureCollision: two different sparsity patterns of
// one shape and nnz under one structural fingerprint (collidingPatterns).
// The collider is refused under equal values (same handle) and under
// fresh ones (another handle, same pattern id): it never aliases the
// resident matrix. (Stored once the resident is gone, it meets the
// resident's plans in the plan cache, which refuses to replay them:
// TestCollidingReuploadRunsCold.)
func TestStoreRefusesStructureCollision(t *testing.T) {
	resident, collider := collidingPatterns(t, math.MaxInt32)

	s := New(Config{MaxConcurrent: 1})
	defer s.Drain(0)
	h1, err := s.StoreMatrix(resident)
	if err != nil {
		t.Fatal(err)
	}
	revalued := collider.Clone()
	revalued.Data = []float64{5, 6, 7, 8}
	for name, m := range map[string]*spgemm.Matrix{"equal values": collider, "fresh values": revalued} {
		_, err := s.StoreMatrix(m)
		var ce *CollisionError
		if !errors.As(err, &ce) || !ce.Structure {
			t.Fatalf("colliding pattern, %s: err = %v, want a structure CollisionError", name, err)
		}
	}
	if entries, _, _, _, _ := s.store.stats(); entries != 1 {
		t.Fatalf("%d entries resident, want the first upload alone", entries)
	}
	if got, _ := s.Matrix(h1); !slices.Equal(got.ColIDs, resident.ColIDs) {
		t.Fatal("the resident pattern changed")
	}
	// The honest revalue case: the resident pattern in arrays of its own
	// is compared once, accepted, and from then on shares the resident
	// structure arrays and record.
	fresh := resident.Clone()
	fresh.Data = []float64{9, 9, 9, 9}
	h2, err := s.StoreMatrix(fresh)
	if err != nil || h2 == h1 {
		t.Fatalf("equal pattern, fresh values: %s, %v", h2, err)
	}
	m1, id1, _ := s.store.get(h1)
	m2, id2, _ := s.store.get(h2)
	if id1 != id2 || !id1.Of(m2) || &m1.ColIDs[0] != &m2.ColIDs[0] {
		t.Fatal("two resident matrices of one pattern do not share its structure arrays and record")
	}
}

// TestConcurrentColdAdmitsAgainstDrain: admissions estimate their cost
// outside the server mutex (a cold flop scan each, the grid planner for
// the device engine), so a Drain can begin between a job's routing and
// its enqueue. The re-check under the lock must hold: no job is sent to
// the closed queue (a panic), every admitted job resolves, everything
// else is refused as draining or shed, and the ledger reconciles.
func TestConcurrentColdAdmitsAgainstDrain(t *testing.T) {
	const submitters = 8
	for round := 0; round < 5; round++ {
		s := New(Config{MaxConcurrent: 2, QueueDepth: 4})
		var wg sync.WaitGroup
		var mu sync.Mutex
		admitted, refused := 0, 0
		start := make(chan struct{})
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 6; i++ {
					// A never-seen pattern per job: every estimate scans.
					a := spgemm.ER(150, 150, 0.03, int64(round*1000+g*10+i))
					job := Job{Engine: "cpu", A: a, B: a}
					if i%3 == 2 {
						job.Engine, job.Opts = "hybrid", healthyHybridOpts()
					}
					res, err := s.Submit(job)
					mu.Lock()
					switch {
					case res != nil && err == nil:
						admitted++
					case res == nil && (errors.Is(err, spgemm.ErrOverloaded) || errors.Is(err, spgemm.ErrQueueFull)):
						refused++
					default:
						t.Errorf("submit: res %v, err %v", res, err)
					}
					mu.Unlock()
				}
			}()
		}
		close(start)
		time.Sleep(time.Duration(round) * 300 * time.Microsecond)
		snap := s.Drain(10 * time.Second)
		wg.Wait()
		final := s.Snapshot()
		if admitted+refused != submitters*6 {
			t.Fatalf("round %d: %d admitted + %d refused of %d submits", round, admitted, refused, submitters*6)
		}
		if got := final[metrics.CounterServeAccepted]; got != int64(admitted) || final[metrics.CounterServeCompleted] != got {
			t.Fatalf("round %d: %d jobs came back, the server accepted %d and completed %d",
				round, admitted, got, final[metrics.CounterServeCompleted])
		}
		if snap[metrics.CounterServeAccepted] != final[metrics.CounterServeAccepted] {
			t.Fatalf("round %d: a job was admitted after Drain returned: %d then %d accepted",
				round, snap[metrics.CounterServeAccepted], final[metrics.CounterServeAccepted])
		}
		if jobs, flops := s.Inflight(); jobs != 0 || flops != 0 {
			t.Fatalf("round %d: %d jobs / %d flops still inflight after drain", round, jobs, flops)
		}
	}
}

// BenchmarkWarmHandleMultiply is bench's serve_small_warm operation
// below the socket: Server.Multiply by handle on BlockDiag(512, 8) with
// a warm plan, single-threaded kernel. Profile it to see what a warm
// request does beside cpuspgemm.Numeric.
func BenchmarkWarmHandleMultiply(b *testing.B) {
	s := New(Config{MaxConcurrent: 2, Base: spgemm.RunOptions{Threads: 1}})
	defer s.Drain(0)
	h, err := s.StoreMatrix(spgemm.BlockDiag(512, 8, 3))
	if err != nil {
		b.Fatal(err)
	}
	req := apiv1.MultiplyRequest{Engine: "cpu", AHandle: h}
	if _, err := s.Multiply(req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Multiply(req); err != nil {
			b.Fatal(err)
		}
	}
}
