package spgemm

import (
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
//     accumulators.
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
	entries map[cpuPlanKey]*cpuPlanEntry
	order   []cpuPlanKey // LRU: oldest first
	grids   map[gridKey]OutOfCoreOptions

	hits, misses, evictions int64
}

type cpuPlanKey struct {
	fpA, fpB          uint64
	rows, aCols, cols int
}

type cpuPlanEntry struct {
	sym   *cpuspgemm.SymbolicResult
	bytes int64
}

type gridKey struct {
	fpA, fpB uint64
	memBytes int64
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
		entries: map[cpuPlanKey]*cpuPlanEntry{},
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
	for i := 0; i < len(p.order); {
		key := p.order[i]
		if key.fpA == fp || key.fpB == fp {
			p.dropLocked(i)
			n++
			continue
		}
		i++
	}
	for key := range p.grids {
		if key.fpA == fp || key.fpB == fp {
			delete(p.grids, key)
			n++
		}
	}
	return n
}

// HasPlan reports whether the cache already holds a plan for the
// structure pair (a, b) — a CPU symbolic entry or a device chunk plan
// under any grid. The serving layer's batch planner probes it so plan
// groups whose pattern is already warm skip leader serialization.
func (p *PlanCache) HasPlan(a, b *Matrix) bool {
	if p == nil {
		return false
	}
	return p.HasPlanKey(csr.Fingerprint(a), csr.Fingerprint(b), a.Rows, a.Cols, b.Cols)
}

// HasPlanKey is HasPlan for a caller that already fingerprinted the
// operands (fpA, fpB structural fingerprints; rows×aCols · aCols×cols
// the multiply's dimensions), so the probe costs two map lookups and
// no re-hashing.
func (p *PlanCache) HasPlanKey(fpA, fpB uint64, rows, aCols, cols int) bool {
	if p == nil {
		return false
	}
	key := cpuPlanKey{fpA: fpA, fpB: fpB, rows: rows, aCols: aCols, cols: cols}
	p.mu.Lock()
	_, ok := p.entries[key]
	p.mu.Unlock()
	return ok || p.dev.Has(fpA, fpB)
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
// output is byte-identical to cold.
func (p *PlanCache) multiplyCPU(a, b *Matrix, opts cpuspgemm.Options) (*Matrix, error) {
	key := cpuPlanKey{
		fpA: csr.Fingerprint(a), fpB: csr.Fingerprint(b),
		rows: a.Rows, aCols: a.Cols, cols: b.Cols,
	}
	if sym := p.acquireCPU(key); sym != nil {
		opts.Metrics.Add(metrics.CounterPlanCacheHits, 1)
		return cpuspgemm.Numeric(sym, a, b, opts)
	}
	opts.Metrics.Add(metrics.CounterPlanCacheMisses, 1)
	c, sym, err := cpuspgemm.MultiplyPlanned(a, b, opts)
	if err != nil {
		return nil, err
	}
	p.storeCPU(key, sym)
	return c, nil
}

func (p *PlanCache) acquireCPU(key cpuPlanKey) *cpuspgemm.SymbolicResult {
	p.mu.Lock()
	defer p.mu.Unlock()
	ent := p.entries[key]
	if ent == nil {
		p.misses++
		return nil
	}
	p.hits++
	p.touchLocked(key)
	return ent.sym
}

// storeCPU records a cold run's plan; of concurrent cold runs on one
// pattern the first store wins.
func (p *PlanCache) storeCPU(key cpuPlanKey, sym *cpuspgemm.SymbolicResult) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.entries[key] != nil {
		return
	}
	p.entries[key] = &cpuPlanEntry{sym: sym, bytes: sym.Bytes()}
	p.order = append(p.order, key)
	p.bytes += sym.Bytes()
	for p.bytes > p.max && len(p.order) > 1 {
		p.dropLocked(0)
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
func (p *PlanCache) plan(a, b *Matrix, cfg DeviceConfig, m *Collector) (OutOfCoreOptions, error) {
	if p == nil {
		return planExact(a, b, cfg, m)
	}
	key := gridKey{fpA: csr.Fingerprint(a), fpB: csr.Fingerprint(b), memBytes: cfg.MemoryBytes}
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

func (p *PlanCache) touchLocked(key cpuPlanKey) {
	for i, k := range p.order {
		if k == key {
			p.order = append(append(p.order[:i:i], p.order[i+1:]...), key)
			return
		}
	}
}

func (p *PlanCache) dropLocked(i int) {
	key := p.order[i]
	p.order = append(p.order[:i:i], p.order[i+1:]...)
	if ent := p.entries[key]; ent != nil {
		p.bytes -= ent.bytes
		delete(p.entries, key)
	}
}
