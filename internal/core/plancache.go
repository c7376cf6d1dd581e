package core

import (
	"sync"

	"repro/internal/csr"
	"repro/internal/partition"
	"repro/internal/speck"
)

// PlanCache stores the values-independent half of out-of-core runs —
// the chunk grid (re-valuable partitions), per-chunk row flops, the
// product's structure with its per-panel split table, and per-chunk
// scheduling metadata (row groups, transfer sizes) — keyed by the
// structural fingerprints of the operands. A warm run skips host-side
// partitioning, every symbolic pass on either processor and the
// per-chunk symbolic device pipeline (analysis and symbolic kernels,
// info transfers), running only numeric kernels and output transfers,
// and reuses the input-panel residency the previous run recorded.
//
// The cache is LRU-bounded by bytes and safe for concurrent use; the
// serving layer shares one across jobs. A nil *PlanCache disables
// caching entirely and leaves every run byte-identical to a build
// without it.
type PlanCache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[planKey]*planEntry
	order   []planKey // LRU order, most recently used last

	hits, misses, evictions int64
}

// planKey identifies a cached plan: the structural fingerprints of
// both operands, their dimensions and non-zero counts (a fingerprint
// collision can then at worst alias two patterns of one shape and
// size, never misindex), the chunk grid and the device cost model
// (symbolic durations depend on it).
type planKey struct {
	fpA, fpB             uint64
	aRows, aCols, bCols  int
	aNnz, bNnz           int64
	rowPanels, colPanels int
	cm                   speck.CostModel
}

// planEntry is the values-independent half of a run; every engine has
// one, pinned in a cache or private to the run. Partitions are stored
// structure-only (Data nil): warm runs re-value row panels by reslicing
// A's value array (rows are contiguous in CSR) and col panels by one
// sequential copy pass driven by the cached panel row offsets — no
// index work.
type planEntry struct {
	key planKey
	rps []partition.RowPanel
	cps []partition.ColPanel

	// mu guards the fields below, each derived on first need by the
	// engine and then read-only; holding it while deriving makes
	// concurrent cold runs of one pattern share the work.
	mu sync.Mutex
	// rowFlops is every chunk's per-row flop counts, chunkFlops their
	// sums; analysis the whole-matrix row analysis, whose RowOffsets and
	// ColIDs are C's; split C's per-panel split table. Products returned
	// by runs on this entry share the structure arrays.
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
	// loss clears the namespace so no run trusts stale residency.
	// resident, bytes and refs are guarded by the cache's lock.
	resident map[string]map[string]struct{}
	bytes    int64
	refs     int
}

// DefaultPlanCacheBytes bounds a cache constructed with size 0.
const DefaultPlanCacheBytes = 256 << 20

// NewPlanCache creates a plan cache bounded to maxBytes (0 means
// DefaultPlanCacheBytes).
func NewPlanCache(maxBytes int64) *PlanCache {
	if maxBytes <= 0 {
		maxBytes = DefaultPlanCacheBytes
	}
	return &PlanCache{max: maxBytes, entries: map[planKey]*planEntry{}}
}

// Counters reports the cache's lifetime hit/miss/eviction totals.
func (pc *PlanCache) Counters() (hits, misses, evictions int64) {
	if pc == nil {
		return 0, 0, 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses, pc.evictions
}

// Len reports the number of cached plans.
func (pc *PlanCache) Len() int {
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

// Bytes reports the cache's current retained size.
func (pc *PlanCache) Bytes() int64 {
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.bytes
}

// Has reports whether any plan is keyed by the fingerprint pair (as A
// and B respectively), regardless of chunk grid or cost model. The
// serving layer's batch planner probes it to decide whether a plan
// group still needs its cold symbolic leader serialized.
func (pc *PlanCache) Has(fpA, fpB uint64) bool {
	if pc == nil {
		return false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for key := range pc.entries {
		if key.fpA == fpA && key.fpB == fpB {
			return true
		}
	}
	return false
}

// Invalidate drops every plan that references the given structural
// fingerprint (as either operand). The serving layer calls it when a
// matrix leaves the content-addressed store, so a pattern change
// invalidates exactly its own entries.
func (pc *PlanCache) Invalidate(fp uint64) int {
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	n := 0
	for i := 0; i < len(pc.order); {
		k := pc.order[i]
		if k.fpA != fp && k.fpB != fp {
			i++
			continue
		}
		pc.dropLocked(i)
		n++
	}
	return n
}

// acquire looks up the plan for key, marking it used and pinning it
// against eviction until release. It returns nil on a miss.
func (pc *PlanCache) acquire(key planKey) *planEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	ent := pc.entries[key]
	if ent == nil {
		pc.misses++
		return nil
	}
	pc.hits++
	ent.refs++
	pc.touchLocked(key)
	return ent
}

// store inserts a freshly built plan, pinned until release. Partitions
// are stripped to structure-only copies so the cache does not retain
// the cold run's value arrays.
func (pc *PlanCache) store(key planKey, rps []partition.RowPanel, cps []partition.ColPanel) *planEntry {
	ent := &planEntry{
		key:      key,
		rps:      make([]partition.RowPanel, len(rps)),
		cps:      make([]partition.ColPanel, len(cps)),
		syms:     map[int]*speck.Symbolic{},
		resident: map[string]map[string]struct{}{},
		refs:     1,
	}
	for i, rp := range rps {
		ent.rps[i] = partition.RowPanel{Start: rp.Start, End: rp.End, M: structureOnly(rp.M)}
		ent.bytes += structureBytes(rp.M)
	}
	for i, cp := range cps {
		ent.cps[i] = partition.ColPanel{Start: cp.Start, End: cp.End, M: structureOnly(cp.M)}
		ent.bytes += structureBytes(cp.M)
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if old := pc.entries[key]; old != nil {
		// A concurrent cold run on the same pattern beat us to the
		// store; keep the existing entry and hand it out instead.
		old.refs++
		pc.touchLocked(key)
		return old
	}
	pc.entries[key] = ent
	pc.order = append(pc.order, key)
	pc.bytes += ent.bytes
	pc.evictLocked()
	return ent
}

// release unpins an entry acquired or stored by a run.
func (pc *PlanCache) release(ent *planEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if ent.refs > 0 {
		ent.refs--
	}
	pc.evictLocked()
}

// retain pins an entry once more, for an engine derived from the one
// that acquired it.
func (pc *PlanCache) retain(ent *planEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	ent.refs++
}

// grow accounts n more bytes retained by an entry; a private entry (nil
// cache) or one Invalidate already dropped is not accounted.
func (pc *PlanCache) grow(ent *planEntry, n int64) {
	if pc == nil {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.entries[ent.key] != ent {
		return
	}
	ent.bytes += n
	pc.bytes += n
	pc.evictLocked()
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

// touchLocked moves key to the most-recently-used position.
func (pc *PlanCache) touchLocked(key planKey) {
	for i, k := range pc.order {
		if k == key {
			pc.order = append(append(pc.order[:i:i], pc.order[i+1:]...), key)
			return
		}
	}
}

// evictLocked drops least-recently-used unpinned entries until the
// cache fits its byte budget.
func (pc *PlanCache) evictLocked() {
	for pc.bytes > pc.max {
		evicted := false
		for i := 0; i < len(pc.order); i++ {
			if pc.entries[pc.order[i]].refs > 0 {
				continue
			}
			pc.dropLocked(i)
			pc.evictions++
			evicted = true
			break
		}
		if !evicted {
			return // everything pinned; callers will drain soon
		}
	}
}

// dropLocked removes the entry at order position i.
func (pc *PlanCache) dropLocked(i int) {
	key := pc.order[i]
	ent := pc.entries[key]
	pc.order = append(pc.order[:i:i], pc.order[i+1:]...)
	delete(pc.entries, key)
	pc.bytes -= ent.bytes
}

// structureOnly copies a matrix header sharing its structure arrays
// and dropping the values, the cacheable half of a panel.
func structureOnly(m *csr.Matrix) *csr.Matrix {
	return &csr.Matrix{Rows: m.Rows, Cols: m.Cols, RowOffsets: m.RowOffsets, ColIDs: m.ColIDs}
}

// structureBytes is the retained size of a structure-only matrix.
func structureBytes(m *csr.Matrix) int64 {
	return int64(len(m.RowOffsets))*8 + int64(len(m.ColIDs))*4
}

// revalueRowPanels builds full row panels from cached structure and a
// fresh A: each panel's rows are contiguous in CSR, so its value array
// is a zero-copy reslice of A's.
func revalueRowPanels(cached []partition.RowPanel, a *csr.Matrix) []partition.RowPanel {
	out := make([]partition.RowPanel, len(cached))
	for i, rp := range cached {
		lo, hi := a.RowOffsets[rp.Start], a.RowOffsets[rp.End]
		out[i] = partition.RowPanel{Start: rp.Start, End: rp.End, M: &csr.Matrix{
			Rows:       rp.M.Rows,
			Cols:       rp.M.Cols,
			RowOffsets: rp.M.RowOffsets,
			ColIDs:     rp.M.ColIDs,
			Data:       a.Data[lo:hi:hi],
		}}
	}
	return out
}

// revalueColPanels builds full column panels from cached structure and
// a fresh B. Column ids are sorted within a CSR row, so each panel's
// share of a row is a contiguous segment; walking panels in column
// order lets one cursor per row locate every segment without any
// comparisons — the cached row offsets already encode the lengths.
func revalueColPanels(cached []partition.ColPanel, b *csr.Matrix) []partition.ColPanel {
	cur := make([]int64, b.Rows)
	for r := range cur {
		cur[r] = b.RowOffsets[r]
	}
	out := make([]partition.ColPanel, len(cached))
	for p, cp := range cached {
		pm := cp.M
		data := make([]float64, pm.RowOffsets[pm.Rows])
		for r := 0; r < pm.Rows; r++ {
			off, end := pm.RowOffsets[r], pm.RowOffsets[r+1]
			n := end - off
			if n > 0 {
				copy(data[off:end], b.Data[cur[r]:cur[r]+n])
				cur[r] += n
			}
		}
		out[p] = partition.ColPanel{Start: cp.Start, End: cp.End, M: &csr.Matrix{
			Rows:       pm.Rows,
			Cols:       pm.Cols,
			RowOffsets: pm.RowOffsets,
			ColIDs:     pm.ColIDs,
			Data:       data,
		}}
	}
	return out
}
