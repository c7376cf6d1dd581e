package spgemm

import (
	"container/list"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/metrics"
	"repro/internal/speck"
)

// Fingerprint hashes a matrix's sparsity *structure* (dimensions, row
// offsets, column ids — never the values) into the 64-bit key the plan
// cache and the serving layer's matrix store use. Two matrices with
// the same pattern and different values fingerprint identically.
func Fingerprint(m *Matrix) uint64 { return csr.Fingerprint(m) }

// FingerprintValues hashes a matrix's numeric values (and nothing
// else); together with Fingerprint it content-addresses a matrix.
func FingerprintValues(m *Matrix) uint64 { return csr.FingerprintValues(m) }

// PlanCache is the structure-reuse fast path of the framework: a
// byte-bounded LRU cache of everything a multiply computes that
// depends only on the operands' sparsity patterns, keyed by structural
// fingerprints. One cache serves every engine:
//
//   - For the real-CPU engine it stores cpuspgemm.SymbolicResult (the
//     product's row pointers, column indices and per-row flop counts),
//     so a warm multiply re-runs only the numeric accumulation —
//     byte-identical to the cold path for the Hash and Dense
//     accumulators — and beside it what else is structural about the
//     pair: its flop count and the product's identity record.
//   - For the device engines (gpu, gpu-sync, hybrid, multigpu) it
//     holds the core.PlanCache: chunk grid partitions, per-chunk flop
//     counts, per-chunk symbolic results and cross-job device
//     residency of input panels.
//   - For the planner it memoizes Plan's chunk-grid choice per
//     (structure pair, device memory), so admission control and warm
//     runs skip the planning scan entirely.
//
// A nil *PlanCache is valid everywhere and disables the fast path;
// every run then behaves byte-identically to a build without it.
// PlanCache is safe for concurrent use.
type PlanCache struct {
	dev *core.PlanCache

	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[PlanKey]*cpuPlanEntry
	order   list.List // of *cpuPlanEntry, LRU: oldest first
	grids   map[gridKey]OutOfCoreOptions

	hits, misses, evictions int64
}

// PlanKey identifies a structure pair, which is what a plan is cached
// under: both structural fingerprints plus the shape and non-zero
// counts, so a fingerprint collision can at worst alias two patterns of
// one shape and size. Comparable; the serving layer's batch planner
// groups nodes by it.
type PlanKey struct {
	fpA, fpB          uint64
	rows, aCols, cols int
	nnzA, nnzB        int64
}

// cpuPlanEntry is one cached CPU plan and what else is structural about
// its pair: flops, the sum of the plan's RowFlops taken when it is
// stored; up to maxSchedules replay schedules, each bound to the records
// of the operands it was checked against; up to maxSpares value arrays
// of the product's length (Release), which warm replays write into; and
// — minted on first request — the identity of the product, whose
// structure arrays are the plan's own (every Numeric product shares
// them). bytes charges all of them with the plan. scheds and spares are
// changed under PlanCache.mu, and a published schedule is never written.
type cpuPlanEntry struct {
	key    PlanKey
	sym    *cpuspgemm.SymbolicResult
	flops  int64
	bytes  int64
	elem   *list.Element
	scheds []boundSchedule
	spares [][]float64

	mu  sync.Mutex
	cid *Identity
}

// boundSchedule is a replay schedule of the plan and the records of the
// operands it was checked against: a replay whose operands come with
// these records, and are of them (Identity.Of: the same structure
// arrays), runs it without checking it again.
type boundSchedule struct {
	aID, bID *Identity
	sched    *speck.Schedule
}

// maxSchedules bounds the schedules a plan keeps. Two serve a chain of
// powers: its first node multiplies the stored matrix by itself, every
// later one the plan's own product by it.
const maxSchedules = 2

const maxSpares = 4 // a plan's spare value arrays: one per concurrent replay

type gridKey struct {
	fpA, fpB   uint64
	nnzA, nnzB int64
	memBytes   int64
}

// PlanKey is the plan-cache key of the pair: O(1) for operands that
// come with their records, one counted hash each otherwise.
func (o RunOptions) PlanKey(a, b *Matrix) PlanKey {
	return PlanKey{
		fpA:  csr.StructOf(a, o.AID, o.Metrics),
		fpB:  csr.StructOf(b, o.BID, o.Metrics),
		rows: a.Rows, aCols: a.Cols, cols: b.Cols,
		nnzA: a.Nnz(), nnzB: b.Nnz(),
	}
}

// NewPlanCache returns a plan cache bounded to maxBytes of cached
// structure (0 means a default of 256 MiB split between the CPU and
// device halves).
func NewPlanCache(maxBytes int64) *PlanCache {
	if maxBytes <= 0 {
		maxBytes = core.DefaultPlanCacheBytes * 2
	}
	return &PlanCache{
		dev:     core.NewPlanCache(maxBytes / 2),
		max:     maxBytes / 2,
		entries: map[PlanKey]*cpuPlanEntry{},
		grids:   map[gridKey]OutOfCoreOptions{},
	}
}

// Counters reports the cache's lifetime hits, misses and evictions,
// summed across the CPU and device halves. Grid-plan memoization is
// not counted: hits+misses equals the number of cache-eligible
// multiplies, which is what a serving layer reconciles job counts
// against.
func (p *PlanCache) Counters() (hits, misses, evictions int64) {
	if p == nil {
		return 0, 0, 0
	}
	dh, dm, de := p.dev.Counters()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits + dh, p.misses + dm, p.evictions + de
}

// Len reports the cached plan entries across both halves.
func (p *PlanCache) Len() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	n := len(p.entries)
	p.mu.Unlock()
	return n + p.dev.Len()
}

// Invalidate drops every cached plan that references the structural
// fingerprint — CPU symbolic results, device plans, and memoized
// chunk grids — and reports how many entries were removed. Callers
// invalidate when a pattern is retired (e.g. the serving layer's
// matrix store evicting the last matrix with that structure); a
// values-only change keeps the fingerprint and must NOT invalidate.
func (p *PlanCache) Invalidate(fp uint64) int {
	if p == nil {
		return 0
	}
	n := p.dev.Invalidate(fp)
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, ent := range p.entries {
		if key.fpA == fp || key.fpB == fp {
			p.dropLocked(ent)
			n++
		}
	}
	for key := range p.grids {
		if key.fpA == fp || key.fpB == fp {
			delete(p.grids, key)
			n++
		}
	}
	return n
}

// HasPlan reports whether the cache already holds a plan under key — a
// CPU symbolic entry or a device chunk plan under any grid. The serving
// layer's batch planner probes it so plan groups whose pattern is
// already warm skip leader serialization; the probe moves no counter.
func (p *PlanCache) HasPlan(key PlanKey) bool {
	if p == nil {
		return false
	}
	return p.peekCPU(key) != nil || p.dev.Has(key.fpA, key.fpB)
}

// ProductIdentity returns the identity of c when c is a product of the
// cache's CPU plan for (a, b) — it then shares the plan's structure
// arrays, whose record is minted once per plan (one validation and one
// hash, counted into o.Metrics) and handed to every later product in
// O(1). It returns nil, doing no work, when the operands do not come
// with their records in o, no such plan is cached, or c is not the
// plan's product; the caller then treats c like any other matrix.
func (p *PlanCache) ProductIdentity(a, b, c *Matrix, o RunOptions) *Identity {
	if !o.AID.Of(a) || !o.BID.Of(b) {
		return nil
	}
	ent := p.peekCPU(o.PlanKey(a, b))
	if ent == nil {
		return nil
	}
	ent.mu.Lock()
	if ent.cid == nil {
		o.Metrics.Add(metrics.CounterIdentityPasses, 2)
		// The error case is a c.Data of the wrong length: not a product.
		ent.cid, _ = csr.Identify(&Matrix{
			Rows: ent.sym.Rows, Cols: ent.sym.Cols,
			RowOffsets: ent.sym.RowOffsets, ColIDs: ent.sym.ColIDs, Data: c.Data,
		})
	}
	cid := ent.cid
	ent.mu.Unlock()
	if !cid.Of(c) {
		return nil
	}
	return cid
}

// Release hands c.Data to the cache's CPU plan for (a, b), for a later
// warm replay to write into, if c is that plan's product (its structure
// arrays, nnz(C) values), o carries a's and b's records, and the plan has
// room under maxSpares and the byte budget. The caller must hold no other
// reference to c.Data. Engine.Run never releases: its caller owns C.
func (p *PlanCache) Release(a, b, c *Matrix, o RunOptions) {
	if p == nil || c == nil || len(c.Data) == 0 || !o.AID.Of(a) || !o.BID.Of(b) {
		return
	}
	key := o.PlanKey(a, b)
	p.mu.Lock()
	defer p.mu.Unlock()
	ent := p.entries[key]
	if ent == nil || len(ent.spares) == maxSpares {
		return
	}
	sym, n := ent.sym, len(c.Data)
	if n != len(sym.ColIDs) || cap(c.Data) != n || len(c.ColIDs) != n || &c.ColIDs[0] != &sym.ColIDs[0] ||
		len(c.RowOffsets) != len(sym.RowOffsets) || &c.RowOffsets[0] != &sym.RowOffsets[0] ||
		p.bytes+int64(n)*8 > p.max || slices.ContainsFunc(ent.spares, func(d []float64) bool { return &d[0] == &c.Data[0] }) {
		return
	}
	ent.spares = append(ent.spares, c.Data)
	ent.bytes += int64(n) * 8
	p.bytes += int64(n) * 8
}

// coreCache exposes the device half for core.Options threading.
func (p *PlanCache) coreCache() *core.PlanCache {
	if p == nil {
		return nil
	}
	return p.dev
}

// multiplyCPU is the cpu engine's cached path: a warm call replays
// only the numeric phase into the cached symbolic structure, so warm
// output is byte-identical to cold, written into a spare value array of
// the plan if it has one (a failed replay drops it). It also returns the
// pair's flop count, which the plan memoizes.
func (p *PlanCache) multiplyCPU(a, b *Matrix, o RunOptions, opts cpuspgemm.Options) (*Matrix, int64, error) {
	key := o.PlanKey(a, b)
	if ent, spare := p.acquireCPU(key); ent != nil {
		opts.Metrics.Add(metrics.CounterPlanCacheHits, 1)
		var sched *speck.Schedule
		records := o.AID.Of(a) && o.BID.Of(b)
		if records {
			sched = p.bound(ent, a, b, o, nil)
		}
		fresh := records && sched == nil
		if fresh {
			sched = ent.sym.Schedule(a, b)
		}
		c, err := cpuspgemm.NumericScheduled(ent.sym, sched, spare, a, b, opts)
		if err == nil && fresh {
			p.bound(ent, a, b, o, sched)
		}
		return c, ent.flops, err
	}
	opts.Metrics.Add(metrics.CounterPlanCacheMisses, 1)
	c, sym, err := cpuspgemm.MultiplyPlanned(a, b, opts)
	if err != nil {
		return nil, 0, err
	}
	return c, p.storeCPU(key, sym), nil
}

// acquireCPU looks a plan up for a replay and takes a spare, if any.
func (p *PlanCache) acquireCPU(key PlanKey) (*cpuPlanEntry, []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ent := p.entries[key]
	if ent == nil {
		p.misses++
		return nil, nil
	}
	p.hits++
	p.order.MoveToBack(ent.elem)
	var spare []float64
	if n := len(ent.spares); n > 0 {
		spare, ent.spares = ent.spares[n-1], ent.spares[:n-1]
		ent.bytes -= int64(len(spare)) * 8
		p.bytes -= int64(len(spare)) * 8
	}
	return ent, spare
}

// bound returns ent's schedule bound to o's records. Given sched, which
// a replay of a and b, of those records, has just run without error, it
// binds sched first if there is none, ent is still cached and has room.
// It charges sched's bytes and those of a's and b's structure arrays,
// which the records keep alive.
func (p *PlanCache) bound(ent *cpuPlanEntry, a, b *Matrix, o RunOptions, sched *speck.Schedule) *speck.Schedule {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, bs := range ent.scheds {
		if bs.aID == o.AID && bs.bID == o.BID {
			return bs.sched
		}
	}
	if sched != nil && len(ent.scheds) < maxSchedules && p.entries[ent.key] == ent {
		ent.scheds = append(ent.scheds, boundSchedule{o.AID, o.BID, sched})
		n := sched.Bytes() + int64(len(a.RowOffsets)+len(b.RowOffsets))*8 + int64(len(a.ColIDs)+len(b.ColIDs))*4
		ent.bytes += n
		p.bytes += n
		p.evictLocked()
	}
	return sched
}

// peekCPU looks an entry up without counting a hit or a miss and
// without touching the LRU order: admission estimates and the batch
// planner probe, they do not use the plan.
func (p *PlanCache) peekCPU(key PlanKey) *cpuPlanEntry {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.entries[key]
}

// storeCPU records a cold run's plan and returns the pair's flop count;
// of concurrent cold runs on one pattern the first store wins.
func (p *PlanCache) storeCPU(key PlanKey, sym *cpuspgemm.SymbolicResult) int64 {
	flops := sym.Flops()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.entries[key] != nil {
		return flops
	}
	ent := &cpuPlanEntry{key: key, sym: sym, flops: flops, bytes: sym.Bytes() + csr.IdentityBytes}
	ent.elem = p.order.PushBack(ent)
	p.entries[key] = ent
	p.bytes += ent.bytes
	p.evictLocked()
	return flops
}

// evictLocked drops the least recently used plans until the cache fits,
// keeping the youngest.
func (p *PlanCache) evictLocked() {
	for p.bytes > p.max && p.order.Len() > 1 {
		p.dropLocked(p.order.Front().Value.(*cpuPlanEntry))
		p.evictions++
	}
}

// plan memoizes the chunk-grid planner per structure pair and device
// memory size, so repeated jobs (and the admission controller sizing
// them) pay the planning scan once per pattern. The memo keeps the grid
// only: the row analysis a planning pass hands to its caller is cached,
// byte-accounted, with the device plan (core.PlanCache). Concurrent
// planning passes of one key plan the same grid, so any store is right.
// A nil cache plans every time.
func (p *PlanCache) plan(a, b *Matrix, o RunOptions) (OutOfCoreOptions, error) {
	cfg, m := o.device(), o.Metrics
	if p == nil {
		return planExact(a, b, o)
	}
	key := gridKey{
		fpA: csr.StructOf(a, o.AID, m), fpB: csr.StructOf(b, o.BID, m),
		nnzA: a.Nnz(), nnzB: b.Nnz(), memBytes: cfg.MemoryBytes,
	}
	p.mu.Lock()
	memo, ok := p.grids[key]
	p.mu.Unlock()
	if ok {
		return memo, nil
	}
	opts, err := planExact(a, b, o)
	if err != nil {
		return OutOfCoreOptions{}, err
	}
	memo = opts
	memo.Analysis = nil
	p.mu.Lock()
	p.grids[key] = memo
	p.mu.Unlock()
	return opts, nil
}

func (p *PlanCache) dropLocked(ent *cpuPlanEntry) {
	p.order.Remove(ent.elem)
	p.bytes -= ent.bytes
	delete(p.entries, ent.key)
}
