package core

import (
	"container/list"
	"slices"
	"sync"

	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/speck"
)

// PlanCache is the one store of what a multiply computes from the
// operands' sparsity patterns alone, keyed by their structural
// fingerprints. It holds three kinds of entry:
//
//   - CPU plans (CPUPlan): the product's symbolic structure, which a
//     warm cpu-engine multiply replays, with the pair's flop count, the
//     product's identity record, bound replay schedules and spare value
//     arrays.
//   - Device plans: the chunk grid's structure-only partitions,
//     per-chunk row flops, the product's structure, the per-panel split
//     table its chunks' metadata came from, that metadata and the input-panel
//     residency the last run left. A warm out-of-core run skips
//     partitioning, every symbolic pass on either processor and the
//     per-chunk symbolic device pipeline.
//   - Grid memos: the planner's chunk grid per pair and device memory,
//     with the pair's flop count, each charged gridMemoBytes.
//
// All three share one lock, one byte budget and one LRU order, and one
// eviction rule: the least recently used entry goes first until the
// cache fits, and the entry just stored, hit or grown never goes, so an
// entry larger than the budget still serves its pattern. Eviction is the
// only way out: a plan outlives the operands it was built from, and the
// budget alone bounds the plans of patterns nobody multiplies any more.
// An evicted entry stays valid for a run that holds it; nothing more is
// charged to it. Len and Counters count plans only: a grid memo is
// neither a hit nor a miss, so hits+misses is the number of
// cache-eligible multiplies.
//
// A key is a lookup, not an identity: two patterns of one shape and
// size can share one. So a plan keeps the structure of the operands it
// was built from (built) and a hit is checked against it; a plan of
// another pattern is a miss that runs cold and leaves the plan in place
// (a collision). A grid memo is not checked: an aliased one only
// misprices a job and hands it another pattern's grid.
//
// The cache is safe for concurrent use; the serving layer shares one
// across jobs. A nil *PlanCache disables caching entirely and leaves
// every run byte-identical to a build without it.
type PlanCache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	order list.List // of entries, least recently used first
	cpu   map[PairKey]*CPUPlan
	dev   map[planKey]*planEntry
	grids map[gridKey]*gridMemo

	hits, misses, evictions int64
}

// PairKey identifies a structure pair, which is what every kind of entry
// is cached under: both structural fingerprints plus the shape and
// non-zero counts, so a fingerprint collision can at worst put two
// patterns of one shape and size under one key, which a plan's check on
// a hit tells apart. Comparable.
type PairKey struct {
	fpA, fpB          uint64
	rows, aCols, cols int
	nnzA, nnzB        int64
}

// KeyOf is the key of the pair a·b: O(1) for operands their records
// aID and bID are of, one hash each, counted into m, otherwise.
func KeyOf(a, b *csr.Matrix, aID, bID *csr.Identity, m *metrics.Collector) PairKey {
	return PairKey{
		fpA: csr.StructOf(a, aID, m), fpB: csr.StructOf(b, bID, m),
		rows: a.Rows, aCols: a.Cols, cols: b.Cols,
		nnzA: a.Nnz(), nnzB: b.Nnz(),
	}
}

// slot is an entry's place in the cache: its pair, its element of the
// LRU order (nil once dropped) and the bytes charged to it. Every kind
// of entry embeds one.
type slot struct {
	pair  PairKey
	elem  *list.Element
	bytes int64
}

// built is what a plan was built from: the structure of its operands a
// and b, which every hit is checked against, and the record pairs that
// have passed that check, each of which passes again in O(1). Its arrays
// are never written: they are the operands' own when those came with
// their records (a record's arrays are immutable), copies otherwise. c
// is a CPU plan's product structure, arrays the plan holds already. The
// pairs change under the cache's lock.
type built struct {
	a, b, c *csr.Matrix // structure only
	pairs   []checked   // at most maxPairs, the most recently passed last
}

// checked is a record pair that passed a plan's check and, for a CPU
// plan, the replay schedule bound to it, nil until a replay of the pair
// has run without error.
type checked struct {
	aID, bID *csr.Identity
	sched    *speck.Schedule
	bytes    int64 // what the pair is charged: sched, and its arrays the plan holds nowhere else
}

// maxPairs bounds the record pairs a plan remembers; the least recently
// passed goes first. Two serve a chain of powers: its first node
// multiplies the stored matrix by itself, every later one the plan's own
// product by it. With one, the two pairs displace each other and every
// node compares the operands' structure again.
const maxPairs = 2

func (s *slot) at() *slot { return s }

// entry is a cached entry of any kind: *CPUPlan, *planEntry or *gridMemo.
type entry interface{ at() *slot }

// planKey identifies a device plan: the pair, the chunk grid and the
// device cost model (symbolic durations depend on it).
type planKey struct {
	PairKey
	rowPanels, colPanels int
	cm                   speck.CostModel
}

// planEntry is the values-independent half of a run; every engine has
// one, cached or private to the run. Partitions are stored
// structure-only (Data nil): warm runs re-value row panels by reslicing
// A's value array (rows are contiguous in CSR) and col panels by one
// sequential copy pass driven by the cached panel row offsets — no
// index work.
type planEntry struct {
	slot
	built
	key planKey
	rps []partition.RowPanel
	cps []partition.ColPanel

	// mu guards the fields below, each derived on first need by the
	// engine and then read-only; holding it while deriving makes
	// concurrent cold runs of one pattern share the work.
	mu sync.Mutex
	// rowFlops is every chunk's per-row flop counts, chunkFlops their
	// sums; analysis the whole-matrix row analysis, whose RowOffsets and
	// ColIDs are C's; split C's per-panel split table, which only
	// chunkMeta reads. Products returned by runs on this entry share the
	// structure arrays.
	rowFlops   [][]int64
	chunkFlops []int64
	analysis   *speck.RowAnalysis
	split      []int64
	// syms holds per-chunk scheduling metadata (no column ids), filled as
	// chunks first reach the device; a run on a cached entry finding one
	// skips the chunk's symbolic device phases.
	syms map[int]*speck.Symbolic

	// resident records, per device namespace (Engine.planDev), the
	// input-panel keys left device-resident by the last run; a device
	// loss clears the namespace so no run trusts stale residency. It is
	// guarded by the cache's lock.
	resident map[string]map[string]struct{}
}

// gridKey identifies a grid memo: the pair and the device memory.
type gridKey struct {
	PairKey
	memBytes int64
}

// gridMemo is the planner's chunk grid for a pair and device memory
// (the panel counts only: the device plan keeps the row analysis,
// charged) and the pair's flop count.
type gridMemo struct {
	slot
	key        gridKey
	rows, cols int
	flops      int64
}

// gridMemoBytes is what a grid memo is charged: a bound on the memo,
// its element of the LRU order and its map slot.
const gridMemoBytes = 512

// CPUPlan is one cached CPU plan and what else is structural about its
// pair: the operands' structure it was built from and the record pairs
// checked against it, each with the replay schedule bound to it (built);
// Flops, the sum of the plan's RowFlops taken when it is stored; up to
// maxSpares value arrays of the product's length (KeepSpare), which warm
// replays write into; and — minted on first request — the identity of
// the product, whose structure arrays are the plan's own (every replayed
// product shares them). All of them are charged to the plan. spares are
// changed under the cache's lock, and a published schedule is never
// written.
type CPUPlan struct {
	slot
	built
	Sym    *cpuspgemm.SymbolicResult
	Flops  int64
	spares [][]float64

	mu  sync.Mutex
	cid *csr.Identity
}

const maxSpares = 4 // a plan's spare value arrays: one per concurrent replay

// defaultPlanCacheBytes bounds a cache constructed with size 0.
const defaultPlanCacheBytes = 512 << 20

// NewPlanCache creates a plan cache bounded to maxBytes of cached
// structure, all kinds of entry together (0 means
// defaultPlanCacheBytes).
func NewPlanCache(maxBytes int64) *PlanCache {
	if maxBytes <= 0 {
		maxBytes = defaultPlanCacheBytes
	}
	return &PlanCache{max: maxBytes, cpu: map[PairKey]*CPUPlan{}, dev: map[planKey]*planEntry{}, grids: map[gridKey]*gridMemo{}}
}

// Counters reports the cache's lifetime hits, misses and evictions of
// plans, CPU and device; grid memos count in none of them.
func (pc *PlanCache) Counters() (hits, misses, evictions int64) {
	if pc == nil {
		return 0, 0, 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses, pc.evictions
}

// Len reports the cached plans, CPU and device; grid memos are not
// counted.
func (pc *PlanCache) Len() int {
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.cpu) + len(pc.dev)
}

// Memos reports the cached grid memos.
func (pc *PlanCache) Memos() int {
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.grids)
}

// Bytes reports the bytes charged to the cache's entries of every kind.
func (pc *PlanCache) Bytes() int64 {
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.bytes
}

// HasPlan reports whether the cache holds a plan of the pair — a CPU
// plan, or a device plan under any grid and cost model. The serving
// layer's batch planner probes it so plan groups whose pattern is
// already warm skip leader serialization; the probe moves no counter.
func (pc *PlanCache) HasPlan(key PairKey) bool {
	if pc == nil {
		return false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.cpu[key] != nil {
		return true
	}
	for k := range pc.dev {
		if k.PairKey == key {
			return true
		}
	}
	return false
}

// addLocked files a new entry as the most recently used, charged n
// bytes.
func (pc *PlanCache) addLocked(ent entry, n int64) {
	s := ent.at()
	s.elem = pc.order.PushBack(ent)
	pc.touchLocked(s, n)
}

// touchLocked makes a cached entry the most recently used, charges it n
// more bytes and evicts the least recently used entries until the cache
// fits — never s itself.
func (pc *PlanCache) touchLocked(s *slot, n int64) {
	pc.order.MoveToBack(s.elem)
	s.bytes += n
	pc.bytes += n
	for pc.bytes > pc.max && pc.order.Front() != s.elem {
		if _, memo := pc.dropLocked(pc.order.Front()).(*gridMemo); !memo {
			pc.evictions++
		}
	}
}

// dropLocked removes an entry of any kind and returns it.
func (pc *PlanCache) dropLocked(el *list.Element) entry {
	ent := pc.order.Remove(el).(entry)
	ent.at().elem = nil
	switch e := ent.(type) {
	case *CPUPlan:
		delete(pc.cpu, e.pair)
	case *planEntry:
		delete(pc.dev, e.key)
	case *gridMemo:
		delete(pc.grids, e.key)
	}
	pc.bytes -= ent.at().bytes
	return ent
}

// chargeLocked makes s the most recently used and charges it n more
// bytes, as touchLocked does, if it is still cached; a dropped entry is
// charged nothing.
func (pc *PlanCache) chargeLocked(s *slot, n int64) {
	if s.elem != nil {
		pc.touchLocked(s, n)
	}
}

// keep returns what a plan built from a and b keeps of them, and the
// bytes it is charged: each operand's structure arrays, shared when its
// record (aID, bID) is of it and copied otherwise, and b's not again when
// it shares a's. A pair of records of both is the plan's first checked
// pair.
func keep(a, b *csr.Matrix, aID, bID *csr.Identity) (built, int64) {
	one := func(m *csr.Matrix, id *csr.Identity) *csr.Matrix {
		k := &csr.Matrix{Rows: m.Rows, Cols: m.Cols, RowOffsets: m.RowOffsets, ColIDs: m.ColIDs}
		if !id.Of(m) {
			k.RowOffsets, k.ColIDs = slices.Clone(m.RowOffsets), slices.Clone(m.ColIDs)
		}
		return k
	}
	op, n := built{a: one(a, aID)}, structBytes(a)
	if op.b = op.a; !sameArrays(a, b) {
		op.b, n = one(b, bID), n+structBytes(b)
	}
	if aID.Of(a) && bID.Of(b) {
		op.pairs = []checked{{aID: aID, bID: bID}}
	}
	return op, n
}

// structBytes is what m's structure arrays take.
func structBytes(m *csr.Matrix) int64 { return int64(len(m.RowOffsets))*8 + int64(len(m.ColIDs))*4 }

// sameArrays reports in O(1) whether x and y have one shape and share
// their structure arrays.
func sameArrays(x, y *csr.Matrix) bool {
	return y != nil && csr.ArraysOf(x) == csr.ArraysOf(y) && len(x.RowOffsets) == len(y.RowOffsets)
}

// passLocked checks a hit on the plan at s, built from op, against the
// operands a and b: it passes in O(1) when aID and bID are records of a
// and b that op has passed before, or a and b are op's own arrays, and
// otherwise when one compare finds op's structure, made with the lock
// released. A pair of records that passes is remembered, and returned
// with its bound schedule. Call it with pc.mu held, which it holds again
// on return; s may have been dropped meanwhile, which leaves the plan
// valid for the run.
func (pc *PlanCache) passLocked(s *slot, op *built, a, b *csr.Matrix, aID, bID *csr.Identity) (ok bool, sched *speck.Schedule) {
	records := aID.Of(a) && bID.Of(b)
	if records {
		if i := op.pairIndex(aID, bID); i >= 0 {
			p := op.pairs[i]
			copy(op.pairs[i:], op.pairs[i+1:])
			op.pairs[len(op.pairs)-1] = p
			return true, p.sched
		}
	}
	if !sameArrays(a, op.a) || !sameArrays(b, op.b) {
		pc.mu.Unlock()
		same := csr.SameStructure(op.a, a) && csr.SameStructure(op.b, b)
		pc.mu.Lock()
		if !same {
			return false, nil
		}
	}
	if records && op.pairIndex(aID, bID) < 0 {
		p := checked{aID: aID, bID: bID, bytes: op.extra(a, b)}
		n := p.bytes
		if len(op.pairs) == maxPairs {
			n -= op.pairs[0].bytes
			op.pairs = append(op.pairs[:0], op.pairs[1:]...)
		}
		op.pairs = append(op.pairs, p)
		pc.chargeLocked(s, n)
	}
	return true, nil
}

// pairIndex is the index of the record pair in op.pairs, -1 if absent.
func (op *built) pairIndex(aID, bID *csr.Identity) int {
	return slices.IndexFunc(op.pairs, func(p checked) bool { return p.aID == aID && p.bID == bID })
}

// extra is what a record pair of a and b adds to the plan: the
// structure arrays of each that the plan holds nowhere else, which the
// records keep alive.
func (op *built) extra(a, b *csr.Matrix) int64 {
	var n int64
	for i, m := range []*csr.Matrix{a, b} {
		if (i == 0 || !sameArrays(a, b)) && !sameArrays(m, op.a) && !sameArrays(m, op.b) && !sameArrays(m, op.c) {
			n += structBytes(m)
		}
	}
	return n
}

// PeekCPU looks up the CPU plan of a·b, its operands' records aID and
// bID (either may be nil), without counting a hit or a miss: admission
// estimates and the batch planner probe, they do not replay. It returns
// nil when no plan is cached or the plan was built from another
// structure; the check is a hit's (passLocked).
func (pc *PlanCache) PeekCPU(key PairKey, a, b *csr.Matrix, aID, bID *csr.Identity) *CPUPlan {
	if pc == nil {
		return nil
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	ent := pc.cpu[key]
	if ent == nil {
		return nil
	}
	if ok, _ := pc.passLocked(&ent.slot, &ent.built, a, b, aID, bID); !ok {
		return nil
	}
	return ent
}

// AcquireCPU looks up the CPU plan of a·b for a replay, its operands'
// records aID and bID (either may be nil), and checks it (passLocked).
// A plan that passes counts a hit and comes with the schedule bound to
// the records, if any, and one of the plan's spare value arrays, if it
// has one. No plan counts a miss; a plan of another structure counts a
// miss and is a collision: the caller runs cold and the plan stays.
func (pc *PlanCache) AcquireCPU(key PairKey, a, b *csr.Matrix, aID, bID *csr.Identity) (ent *CPUPlan, sched *speck.Schedule, spare []float64, collided bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if ent = pc.cpu[key]; ent == nil {
		pc.misses++
		return nil, nil, nil, false
	}
	ok, sched := pc.passLocked(&ent.slot, &ent.built, a, b, aID, bID)
	if !ok {
		pc.misses++
		return nil, nil, nil, true
	}
	pc.hits++
	if n := len(ent.spares); n > 0 {
		spare, ent.spares = ent.spares[n-1], ent.spares[:n-1]
	}
	pc.chargeLocked(&ent.slot, -int64(len(spare))*8)
	return ent, sched, spare, false
}

// StoreCPU records a cold run's plan of a·b, keeping the operands'
// structure (keep), and returns the pair's flop count; of concurrent
// cold runs on one key the first store wins, and a plan already cached
// under it, of this structure or a colliding one, stays.
func (pc *PlanCache) StoreCPU(key PairKey, sym *cpuspgemm.SymbolicResult, a, b *csr.Matrix, aID, bID *csr.Identity) int64 {
	flops := sym.Flops()
	op, n := keep(a, b, aID, bID)
	op.c = &csr.Matrix{Rows: sym.Rows, Cols: sym.Cols, RowOffsets: sym.RowOffsets, ColIDs: sym.ColIDs}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.cpu[key] == nil {
		ent := &CPUPlan{slot: slot{pair: key}, built: op, Sym: sym, Flops: flops}
		pc.cpu[key] = ent
		pc.addLocked(ent, sym.Bytes()+csr.IdentityBytes+n)
	}
	return flops
}

// Bind binds sched, which a replay of ent with the records aID and bID
// has just run without error, to that pair if ent still remembers it
// without a schedule, and charges sched's bytes.
func (pc *PlanCache) Bind(ent *CPUPlan, aID, bID *csr.Identity, sched *speck.Schedule) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if i := ent.pairIndex(aID, bID); i >= 0 && ent.pairs[i].sched == nil {
		n := sched.Bytes()
		ent.pairs[i].sched, ent.pairs[i].bytes = sched, ent.pairs[i].bytes+n
		pc.chargeLocked(&ent.slot, n)
	}
}

// KeepSpare hands c.Data to the CPU plan under key, for a later replay
// to write into, if c is that plan's product (its structure arrays,
// nnz(C) values) and the plan has room under maxSpares and the byte
// budget. The caller holds no other reference to c.Data.
func (pc *PlanCache) KeepSpare(key PairKey, c *csr.Matrix) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	ent := pc.cpu[key]
	if ent == nil || len(ent.spares) == maxSpares {
		return
	}
	sym, n := ent.Sym, len(c.Data)
	if n != len(sym.ColIDs) || cap(c.Data) != n || len(c.ColIDs) != n || &c.ColIDs[0] != &sym.ColIDs[0] ||
		len(c.RowOffsets) != len(sym.RowOffsets) || &c.RowOffsets[0] != &sym.RowOffsets[0] ||
		pc.bytes+int64(n)*8 > pc.max || slices.ContainsFunc(ent.spares, func(d []float64) bool { return &d[0] == &c.Data[0] }) {
		return
	}
	ent.spares = append(ent.spares, c.Data)
	pc.touchLocked(&ent.slot, int64(n)*8)
}

// Held reports what the cache holds for a CPU plan: the bytes charged
// to it, its bound schedules and its spare value arrays.
func (pc *PlanCache) Held(ent *CPUPlan) (bytes int64, scheds, spares int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, p := range ent.pairs {
		if p.sched != nil {
			scheds++
		}
	}
	return ent.bytes, scheds, len(ent.spares)
}

// Identity returns the record of the plan's product with values data,
// minted on the first call (one validation and one hash, counted into
// m) and handed to every later product in O(1). It is nil when data is
// not of the product's length.
func (ent *CPUPlan) Identity(data []float64, m *metrics.Collector) *csr.Identity {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.cid == nil {
		m.Add(metrics.CounterIdentityPasses, 2)
		c := *ent.c
		c.Data = data
		ent.cid, _ = csr.Identify(&c)
	}
	return ent.cid
}

// Grid returns the memoized chunk grid (row and column panel counts) of
// the pair for a device of memBytes and the pair's flop count.
func (pc *PlanCache) Grid(key PairKey, memBytes int64) (rows, cols int, flops int64, ok bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	memo := pc.grids[gridKey{key, memBytes}]
	if memo == nil {
		return 0, 0, 0, false
	}
	pc.touchLocked(&memo.slot, 0)
	return memo.rows, memo.cols, memo.flops, true
}

// StoreGrid memoizes the chunk grid planned for the pair on a device of
// memBytes and the pair's flop count. Concurrent planning passes of one
// key plan the same grid, so the first store is as good as any.
func (pc *PlanCache) StoreGrid(key PairKey, memBytes int64, rows, cols int, flops int64) {
	k := gridKey{key, memBytes}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.grids[k] == nil {
		memo := &gridMemo{slot: slot{pair: key}, key: k, rows: rows, cols: cols, flops: flops}
		pc.grids[k] = memo
		pc.addLocked(memo, gridMemoBytes)
	}
}

// acquire looks up the device plan of a·b under key, its operands'
// records aID and bID (either may be nil), and checks it as AcquireCPU
// does: it counts a hit and marks the plan used, or counts a miss and
// returns nil, collided when a plan of another structure holds the key.
func (pc *PlanCache) acquire(key planKey, a, b *csr.Matrix, aID, bID *csr.Identity) (ent *planEntry, collided bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if ent = pc.dev[key]; ent == nil {
		pc.misses++
		return nil, false
	}
	if ok, _ := pc.passLocked(&ent.slot, &ent.built, a, b, aID, bID); !ok {
		pc.misses++
		return nil, true
	}
	pc.hits++
	pc.chargeLocked(&ent.slot, 0)
	return ent, false
}

// store inserts a freshly built device plan of a·b. It keeps panel
// structure only, in arrays the partitioner made and no operand shares:
// a row panel's offsets (its ids and values are the cold run's A, which
// a warm run reslices afresh) and the column panels, which carry no
// values; and the operands' structure (keep). If a concurrent cold run
// stored first, its plan is handed out instead when it is of a's and
// b's structure; when it is not, store returns nil (a collision) and the
// caller runs uncached.
func (pc *PlanCache) store(key planKey, rps []partition.RowPanel, cps []partition.ColPanel, a, b *csr.Matrix, aID, bID *csr.Identity) *planEntry {
	op, n := keep(a, b, aID, bID)
	ent := &planEntry{
		slot:     slot{pair: key.PairKey},
		built:    op,
		key:      key,
		rps:      make([]partition.RowPanel, len(rps)),
		cps:      cps,
		syms:     map[int]*speck.Symbolic{},
		resident: map[string]map[string]struct{}{},
	}
	for i, rp := range rps {
		ent.rps[i] = partition.RowPanel{Start: rp.Start, End: rp.End,
			M: &csr.Matrix{Rows: rp.M.Rows, Cols: rp.M.Cols, RowOffsets: rp.M.RowOffsets}}
		n += int64(len(rp.M.RowOffsets)) * 8
	}
	for _, cp := range cps {
		n += int64(len(cp.M.RowOffsets))*8 + int64(len(cp.M.ColIDs))*4
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if old := pc.dev[key]; old != nil {
		if ok, _ := pc.passLocked(&old.slot, &old.built, a, b, aID, bID); !ok {
			return nil
		}
		pc.chargeLocked(&old.slot, 0)
		return old
	}
	pc.dev[key] = ent
	pc.addLocked(ent, n)
	return ent
}

// grow charges n more bytes to a device plan a run is deriving, marking
// it used; a private entry (nil cache) or one already dropped is not
// charged.
func (pc *PlanCache) grow(ent *planEntry, n int64) {
	if pc == nil {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.dev[ent.key] == ent {
		pc.touchLocked(&ent.slot, n)
	}
}

// residentSet returns a copy of the panel keys recorded as
// device-resident for the namespace.
func (pc *PlanCache) residentSet(ent *planEntry, dev string) map[string]struct{} {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	src := ent.resident[dev]
	out := make(map[string]struct{}, len(src))
	for k := range src {
		out[k] = struct{}{}
	}
	return out
}

// setResident replaces the namespace's resident-panel record with the
// state a run left behind; lost=true clears it instead (the device's
// memory is gone — trusting it would serve stale residency).
func (pc *PlanCache) setResident(ent *planEntry, dev string, keys []string, lost bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if lost {
		delete(ent.resident, dev)
		return
	}
	set := make(map[string]struct{}, len(keys))
	for _, k := range keys {
		set[k] = struct{}{}
	}
	ent.resident[dev] = set
}

// revalueRowPanels builds row panels over a fresh A from cached
// offsets: each panel's rows are contiguous in CSR, so its ids and
// values are a zero-copy reslice of A's, as partition.RowPanels makes
// them.
func revalueRowPanels(cached []partition.RowPanel, a *csr.Matrix) []partition.RowPanel {
	out := make([]partition.RowPanel, len(cached))
	for i, rp := range cached {
		lo, hi := a.RowOffsets[rp.Start], a.RowOffsets[rp.End]
		out[i] = partition.RowPanel{Start: rp.Start, End: rp.End, M: &csr.Matrix{
			Rows:       rp.M.Rows,
			Cols:       rp.M.Cols,
			RowOffsets: rp.M.RowOffsets,
			ColIDs:     a.ColIDs[lo:hi:hi],
			Data:       a.Data[lo:hi:hi],
		}}
	}
	return out
}
