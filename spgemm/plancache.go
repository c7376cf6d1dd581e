package spgemm

import (
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

// PlanCache is the structure-reuse fast path of the framework: one
// byte-bounded LRU cache (core.PlanCache) of everything a multiply
// computes that depends only on the operands' sparsity patterns, keyed
// by structural fingerprints. One cache serves every engine:
//
//   - For the real-CPU engine it stores cpuspgemm.SymbolicResult (the
//     product's row pointers, column indices and per-row flop counts),
//     so a warm multiply re-runs only the numeric accumulation —
//     byte-identical to the cold path for the Hash and Dense
//     accumulators — and beside it what else is structural about the
//     pair: its flop count and the product's identity record.
//   - For the device engines (gpu, gpu-sync, hybrid, multigpu) it
//     holds chunk grid partitions, per-chunk flop counts, per-chunk
//     symbolic results and cross-job device residency of input panels.
//   - For the planner it memoizes Plan's chunk-grid choice and the
//     pair's flop count per (structure pair, device memory), so
//     admission control and warm runs skip the planning scan entirely.
//
// All three kinds share one byte budget and one eviction rule (DESIGN.md
// §8), which is also the only way out: a plan outlives the operands it
// was built from, so a pattern that comes back — re-uploaded, or with new
// values — replays warm. A fingerprint match is a lookup, not an
// identity: each plan keeps the structure of the operands it was built
// from (their own arrays when they came with their records, a copy
// charged to the budget otherwise) and every hit is checked against it,
// in O(1) for a pair of records the plan has checked before and by one
// compare otherwise. A plan of another pattern under the same key is a
// miss: the run goes cold, counts plan_cache_collisions and leaves the
// plan cached. Grid memos are not checked; an aliased one only misprices
// a job and hands it another pattern's grid. A nil *PlanCache is valid
// everywhere and disables the fast path; every run then behaves
// byte-identically to a build without it. PlanCache is safe for
// concurrent use.
type PlanCache core.PlanCache

// PlanKey identifies a structure pair, which is what a plan is cached
// under: both structural fingerprints plus the shape and non-zero
// counts, so a fingerprint collision can at worst put two patterns of
// one shape and size under one key, where the check on a hit tells them
// apart. Comparable; the serving layer's batch planner groups nodes by
// it.
type PlanKey = core.PairKey

// PlanKey is the plan-cache key of the pair: O(1) for operands that
// come with their records, one counted hash each otherwise.
func (o RunOptions) PlanKey(a, b *Matrix) PlanKey {
	return core.KeyOf(a, b, o.AID, o.BID, o.Metrics)
}

// NewPlanCache returns a plan cache bounded to maxBytes of cached
// structure, CPU plans, device plans and grid memos together (0 means a
// default of 512 MiB).
func NewPlanCache(maxBytes int64) *PlanCache {
	return (*PlanCache)(core.NewPlanCache(maxBytes))
}

// Counters reports the cache's lifetime hits, misses and evictions of
// plans, CPU and device. Grid-plan memoization is not counted: hits+misses
// equals the number of cache-eligible multiplies, which is what a
// serving layer reconciles job counts against.
func (p *PlanCache) Counters() (hits, misses, evictions int64) {
	return (*core.PlanCache)(p).Counters()
}

// Len reports the cached plans, CPU and device; grid memos are not
// counted.
func (p *PlanCache) Len() int { return (*core.PlanCache)(p).Len() }

// HasPlan reports whether the cache already holds a plan under key — a
// CPU symbolic entry or a device chunk plan under any grid. The serving
// layer's batch planner probes it so plan groups whose pattern is
// already warm skip leader serialization; the probe moves no counter.
func (p *PlanCache) HasPlan(key PlanKey) bool { return (*core.PlanCache)(p).HasPlan(key) }

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
	ent := (*core.PlanCache)(p).PeekCPU(o.PlanKey(a, b), a, b, o.AID, o.BID)
	if ent == nil {
		return nil
	}
	if cid := ent.Identity(c.Data, o.Metrics); cid.Of(c) {
		return cid
	}
	return nil
}

// Release hands c.Data to the cache's CPU plan for (a, b), for a later
// warm replay to write into, if c is that plan's product (its structure
// arrays, nnz(C) values), o carries a's and b's records, and the plan has
// room under its spare count and the byte budget. The caller must hold
// no other reference to c.Data. Engine.Run never releases: its caller
// owns C.
func (p *PlanCache) Release(a, b, c *Matrix, o RunOptions) {
	if p == nil || c == nil || len(c.Data) == 0 || !o.AID.Of(a) || !o.BID.Of(b) {
		return
	}
	(*core.PlanCache)(p).KeepSpare(o.PlanKey(a, b), c)
}

// multiplyCPU is the cpu engine's cached path: a warm call replays
// only the numeric phase into the cached symbolic structure, so warm
// output is byte-identical to cold, written into a spare value array of
// the plan if it has one (a failed replay drops it). A plan built from
// another structure under the operands' key is not replayed: the call
// runs cold, counts a collision and leaves the plan cached. Operands
// with their records replay the schedule bound to those records,
// building and binding it on their first replay. It also returns the
// pair's flop count, which the plan memoizes.
func (p *PlanCache) multiplyCPU(a, b *Matrix, o RunOptions, opts cpuspgemm.Options) (*Matrix, int64, error) {
	pc, key := (*core.PlanCache)(p), o.PlanKey(a, b)
	ent, sched, spare, collided := pc.AcquireCPU(key, a, b, o.AID, o.BID)
	if ent != nil {
		opts.Metrics.Add(metrics.CounterPlanCacheHits, 1)
		fresh := sched == nil && o.AID.Of(a) && o.BID.Of(b)
		if fresh {
			sched = ent.Sym.Schedule(a, b)
		}
		c, err := cpuspgemm.NumericScheduled(ent.Sym, sched, spare, a, b, opts)
		if err == nil && fresh {
			pc.Bind(ent, o.AID, o.BID, sched)
		}
		return c, ent.Flops, err
	}
	opts.Metrics.Add(metrics.CounterPlanCacheMisses, 1)
	if collided {
		opts.Metrics.Add(metrics.CounterPlanCacheCollisions, 1)
	}
	c, sym, err := cpuspgemm.MultiplyPlanned(a, b, opts)
	if err != nil {
		return nil, 0, err
	}
	return c, pc.StoreCPU(key, sym, a, b, o.AID, o.BID), nil
}

// plan memoizes the chunk-grid planner per structure pair and device
// memory size, so repeated jobs (and the admission controller sizing
// them) pay the planning scan once per pattern. It also returns the
// pair's flop count: the planning pass's row flops, which the memo
// keeps. A planning pass hands its row analysis on, bound to a and b;
// the memo keeps the grid only (the analysis is cached, byte-accounted,
// with the device plan). A nil cache plans every time.
func (p *PlanCache) plan(a, b *Matrix, o RunOptions) (OutOfCoreOptions, int64, error) {
	pc, mem := (*core.PlanCache)(p), o.device().MemoryBytes
	var key PlanKey
	if p != nil {
		key = o.PlanKey(a, b)
		if rows, cols, flops, ok := pc.Grid(key, mem); ok {
			return OutOfCoreOptions{RowPanels: rows, ColPanels: cols, planned: true}, flops, nil
		}
	}
	opts, err := planExact(a, b, o)
	if err != nil {
		return OutOfCoreOptions{}, 0, err
	}
	flops := opts.analysis.Flops()
	if p != nil {
		pc.StoreGrid(key, mem, opts.RowPanels, opts.ColPanels, flops)
	}
	return opts, flops, nil
}
