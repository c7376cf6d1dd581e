package spgemm

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/metrics"
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
// stored, and — minted on first request — the identity of the product,
// whose structure arrays are the plan's own (every Numeric product
// shares them). bytes charges the record with the plan.
type cpuPlanEntry struct {
	key   PlanKey
	sym   *cpuspgemm.SymbolicResult
	flops int64
	bytes int64
	elem  *list.Element

	mu  sync.Mutex
	cid *Identity
}

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

// coreCache exposes the device half for core.Options threading.
func (p *PlanCache) coreCache() *core.PlanCache {
	if p == nil {
		return nil
	}
	return p.dev
}

// multiplyCPU is the cpu engine's cached path: a warm call replays
// only the numeric phase into the cached symbolic structure, so warm
// output is byte-identical to cold. It also returns the pair's flop
// count, which the plan memoizes.
func (p *PlanCache) multiplyCPU(a, b *Matrix, o RunOptions, opts cpuspgemm.Options) (*Matrix, int64, error) {
	key := o.PlanKey(a, b)
	if ent := p.acquireCPU(key); ent != nil {
		opts.Metrics.Add(metrics.CounterPlanCacheHits, 1)
		c, err := cpuspgemm.Numeric(ent.sym, a, b, opts)
		return c, ent.flops, err
	}
	opts.Metrics.Add(metrics.CounterPlanCacheMisses, 1)
	c, sym, err := cpuspgemm.MultiplyPlanned(a, b, opts)
	if err != nil {
		return nil, 0, err
	}
	return c, p.storeCPU(key, sym), nil
}

func (p *PlanCache) acquireCPU(key PlanKey) *cpuPlanEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	ent := p.entries[key]
	if ent == nil {
		p.misses++
		return nil
	}
	p.hits++
	p.order.MoveToBack(ent.elem)
	return ent
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
	var flops int64
	for _, f := range sym.RowFlops {
		flops += f
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.entries[key] != nil {
		return flops
	}
	ent := &cpuPlanEntry{key: key, sym: sym, flops: flops, bytes: sym.Bytes() + csr.IdentityBytes}
	ent.elem = p.order.PushBack(ent)
	p.entries[key] = ent
	p.bytes += ent.bytes
	for p.bytes > p.max && p.order.Len() > 1 {
		p.dropLocked(p.order.Front().Value.(*cpuPlanEntry))
		p.evictions++
	}
	return flops
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
		return planExact(a, b, cfg, m)
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
	opts, err := planExact(a, b, cfg, m)
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
