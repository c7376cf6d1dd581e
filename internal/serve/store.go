package serve

import (
	"container/list"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/csr"
	"repro/internal/metrics"
	"repro/spgemm"
)

// matrixStore is the serving layer's content-addressed matrix store:
// clients upload an operand once and re-multiply it by handle, so
// repeated-pattern traffic (AMG setup, graph iterations) ships no
// matrix data after the first request and keeps the plan cache warm.
//
// Handles are derived from the content — the structural fingerprint
// plus the values fingerprint — so re-uploading identical content is
// idempotent, and a values-only refresh yields a new handle that
// still shares the structural fingerprint (and therefore the cached
// plan) of its pattern. A 64-bit match is a lookup, never an identity:
// put compares an upload bit for bit with the resident matrix or
// pattern it matched and refuses one that differs (CollisionError).
//
// put is also where a matrix's identity is minted (csr.Identify: the
// one validation and the one structure hash of its life in the store);
// every resident matrix of a pattern shares the pattern's structure
// arrays and its record, which jobs carry to the engines.
//
// The store is LRU-bounded by matrix bytes. When the last stored
// matrix carrying a given sparsity pattern leaves the store (eviction
// or explicit delete), the pattern's plan-cache entries are
// invalidated with it: a plan without any resident operand can never
// get a warm hit again, it is pure dead weight.
type matrixStore struct {
	mu       sync.Mutex
	max      int64
	bytes    int64
	entries  map[string]*storeEntry
	patterns map[uint64]*pattern
	order    list.List // of *storeEntry, LRU: oldest first
	col      *metrics.Collector
	pc       *spgemm.PlanCache

	hits, misses, evictions int64
}

// pattern is one resident sparsity pattern: the identity minted for the
// first matrix stored with it, that matrix's structure arrays (every
// later one is compared with them once and then shares them) and the
// count of resident matrices carrying it.
type pattern struct {
	id        *csr.Identity
	structure *spgemm.Matrix // no Data
	n         int
}

type storeEntry struct {
	handle string
	m      *spgemm.Matrix
	pat    *pattern
	bytes  int64
	elem   *list.Element
	// pins counts admitted-but-unfinished jobs and batch nodes holding
	// this handle; LRU eviction never drops a pinned entry, so a
	// running batch cannot lose a handle (or its pattern's cached
	// plans) to eviction pressure from concurrent uploads. Explicit
	// DELETE is operator intent and still wins.
	pins int
}

// DefaultMatrixStoreBytes bounds the store when Config leaves it zero.
const DefaultMatrixStoreBytes = 512 << 20

func newMatrixStore(maxBytes int64, col *metrics.Collector, pc *spgemm.PlanCache) *matrixStore {
	if maxBytes <= 0 {
		maxBytes = DefaultMatrixStoreBytes
	}
	return &matrixStore{
		max: maxBytes, entries: map[string]*storeEntry{}, patterns: map[uint64]*pattern{},
		col: col, pc: pc,
	}
}

// handleFor derives the content address.
func handleFor(structFP, valuesFP uint64) string {
	return fmt.Sprintf("m-%016x%016x", structFP, valuesFP)
}

// put stores a matrix and returns its handle. Identical content
// returns the existing handle without a second copy. id is m's
// identity record when the caller has one (a product of a cached plan):
// m is then neither validated nor structurally hashed again, only its
// values are hashed.
func (s *matrixStore) put(m *spgemm.Matrix, id *csr.Identity) (string, error) {
	if !id.Of(m) {
		s.col.Add(metrics.CounterIdentityPasses, 2)
		var err error
		if id, err = csr.Identify(m); err != nil {
			return "", fmt.Errorf("serve: matrix rejected by store: %w", err)
		}
	}
	s.col.Add(metrics.CounterIdentityPasses, 1)
	fp := id.Fingerprint()
	h := handleFor(fp, spgemm.FingerprintValues(m))
	bytes := m.Bytes()

	// Whatever the fingerprints matched is compared with m outside the
	// lock (resident arrays are immutable); the loop ends once the store
	// still holds exactly what was compared.
	var pat *pattern
	var ent *storeEntry
	s.mu.Lock()
	for s.patterns[fp] != pat || s.entries[h] != ent {
		pat, ent = s.patterns[fp], s.entries[h]
		s.mu.Unlock()
		if err := collision(h, m, pat, ent); err != nil {
			return "", err
		}
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	if ent != nil {
		s.order.MoveToBack(ent.elem)
		return h, nil
	}
	if bytes > s.max {
		return "", fmt.Errorf("serve: matrix (%d bytes) exceeds the store budget (%d)", bytes, s.max)
	}
	for s.bytes+bytes > s.max {
		if !s.evictLocked() {
			return "", fmt.Errorf("serve: matrix store full (%d of %d bytes)", s.bytes, s.max)
		}
	}
	if pat = s.patterns[fp]; pat == nil { // eviction may have retired it
		pat = &pattern{id: id, structure: &spgemm.Matrix{
			Rows: m.Rows, Cols: m.Cols, RowOffsets: m.RowOffsets, ColIDs: m.ColIDs,
		}}
		s.patterns[fp] = pat
	} else if !pat.id.Of(m) {
		m = &spgemm.Matrix{
			Rows: m.Rows, Cols: m.Cols,
			RowOffsets: pat.structure.RowOffsets, ColIDs: pat.structure.ColIDs, Data: m.Data,
		}
	}
	pat.n++
	ent = &storeEntry{handle: h, m: m, pat: pat, bytes: bytes}
	ent.elem = s.order.PushBack(ent)
	s.entries[h] = ent
	s.bytes += bytes
	return h, nil
}

// collision compares an upload with the resident pattern and entry its
// fingerprints matched (either may be nil) and reports a mismatch.
// Arrays the upload shares with the resident copy compare in O(1).
func collision(h string, m *spgemm.Matrix, pat *pattern, ent *storeEntry) error {
	if pat != nil && !pat.id.Of(m) &&
		!(slices.Equal(pat.structure.RowOffsets, m.RowOffsets) && slices.Equal(pat.structure.ColIDs, m.ColIDs)) {
		return &CollisionError{Handle: h, Structure: true}
	}
	if ent != nil && !sameBits(ent.m.Data, m.Data) {
		return &CollisionError{Handle: h}
	}
	return nil
}

// sameBits compares two value arrays bit for bit (NaN payloads and the
// sign of zero included, as the values fingerprint hashes them).
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	if len(x) == 0 || &x[0] == &y[0] {
		return true
	}
	for i, v := range x {
		if math.Float64bits(v) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// get resolves a handle to its matrix and identity record, counting
// hits and misses.
func (s *matrixStore) get(handle string) (*spgemm.Matrix, *csr.Identity, bool) {
	return s.resolve(handle, 0)
}

// getPin resolves a handle and pins it in one critical section, so a
// concurrent eviction cannot race between resolution and pinning. The
// caller must balance with unpin.
func (s *matrixStore) getPin(handle string) (*spgemm.Matrix, *csr.Identity, bool) {
	return s.resolve(handle, 1)
}

func (s *matrixStore) resolve(handle string, pin int) (*spgemm.Matrix, *csr.Identity, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent := s.entries[handle]
	if ent == nil {
		s.misses++
		s.col.Add(metrics.CounterMatrixStoreMisses, 1)
		return nil, nil, false
	}
	s.hits++
	s.col.Add(metrics.CounterMatrixStoreHits, 1)
	s.order.MoveToBack(ent.elem)
	ent.pins += pin
	return ent.m, ent.pat.id, true
}

// unpin releases one pin; a handle explicitly deleted while pinned is
// simply gone (the job holds its resolved matrix regardless).
func (s *matrixStore) unpin(handle string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent := s.entries[handle]; ent != nil && ent.pins > 0 {
		ent.pins--
	}
}

// unpinAll releases one pin per listed handle.
func (s *matrixStore) unpinAll(handles []string) {
	for _, h := range handles {
		s.unpin(h)
	}
}

// revalue stores a fresh-valued copy of the handle's matrix: the same
// sparsity pattern, values drawn deterministically from seed. The new
// handle shares the pattern's structure arrays and identity, so nothing
// is validated or structurally hashed and plans cached for the original
// stay valid — this is the "new values, old plan" entry point of the
// iterative workloads.
func (s *matrixStore) revalue(handle string, seed int64) (string, error) {
	src, id, ok := s.get(handle)
	if !ok {
		return "", &UnknownHandleError{Handle: handle}
	}
	return s.put(spgemm.Revalue(src, seed), id)
}

// delete removes a handle and reports whether it existed. Plan-cache
// invalidation follows the last-pattern-out rule.
func (s *matrixStore) delete(handle string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent := s.entries[handle]
	if ent == nil {
		return false
	}
	s.dropLocked(ent)
	return true
}

// evictLocked drops the least-recently-used unpinned entry. When every
// resident entry is pinned by an in-flight job or batch, nothing is
// evictable and the incoming put fails instead — shrinking a running
// batch's working set would be worse than rejecting the upload.
func (s *matrixStore) evictLocked() bool {
	for e := s.order.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*storeEntry)
		if ent.pins > 0 {
			continue
		}
		s.dropLocked(ent)
		s.evictions++
		s.col.Add(metrics.CounterMatrixStoreEvictions, 1)
		return true
	}
	return false
}

// dropLocked removes an entry and, when it was the last resident matrix
// of its sparsity pattern, retires the pattern and invalidates its
// cached plans.
func (s *matrixStore) dropLocked(ent *storeEntry) {
	s.order.Remove(ent.elem)
	delete(s.entries, ent.handle)
	s.bytes -= ent.bytes
	if ent.pat.n--; ent.pat.n == 0 {
		fp := ent.pat.id.Fingerprint()
		delete(s.patterns, fp)
		s.pc.Invalidate(fp)
	}
}

// stats snapshots the store for /metricsz and tests.
func (s *matrixStore) stats() (entries int, bytes, hits, misses, evictions int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries), s.bytes, s.hits, s.misses, s.evictions
}
