package serve

import (
	"fmt"
	"sync"

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
// plan) of its pattern.
//
// The store is LRU-bounded by matrix bytes. When the last stored
// matrix carrying a given sparsity pattern leaves the store (eviction
// or explicit delete), the pattern's plan-cache entries are
// invalidated with it: a plan without any resident operand can never
// get a warm hit again, it is pure dead weight.
type matrixStore struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[string]*storeEntry
	order   []string // LRU: oldest first
	col     *metrics.Collector
	pc      *spgemm.PlanCache

	hits, misses, evictions int64
}

type storeEntry struct {
	m        *spgemm.Matrix
	structFP uint64
	bytes    int64
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
	return &matrixStore{max: maxBytes, entries: map[string]*storeEntry{}, col: col, pc: pc}
}

// handleFor derives the content address.
func handleFor(structFP, valuesFP uint64) string {
	return fmt.Sprintf("m-%016x%016x", structFP, valuesFP)
}

// put stores a matrix and returns its handle. Identical content
// returns the existing handle without a second copy.
func (s *matrixStore) put(m *spgemm.Matrix) (string, error) {
	if err := m.Validate(); err != nil {
		return "", fmt.Errorf("serve: matrix rejected by store: %w", err)
	}
	structFP := spgemm.Fingerprint(m)
	h := handleFor(structFP, spgemm.FingerprintValues(m))
	bytes := m.Bytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries[h] != nil {
		s.touchLocked(h)
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
	s.entries[h] = &storeEntry{m: m, structFP: structFP, bytes: bytes}
	s.order = append(s.order, h)
	s.bytes += bytes
	return h, nil
}

// get resolves a handle, counting hits and misses.
func (s *matrixStore) get(handle string) (*spgemm.Matrix, bool) {
	m, _, ok := s.getFP(handle)
	return m, ok
}

// getFP is get plus the structural fingerprint put computed for the
// entry, so describing a stored matrix does not hash it again.
func (s *matrixStore) getFP(handle string) (*spgemm.Matrix, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent := s.entries[handle]
	if ent == nil {
		s.misses++
		s.col.Add(metrics.CounterMatrixStoreMisses, 1)
		return nil, 0, false
	}
	s.hits++
	s.col.Add(metrics.CounterMatrixStoreHits, 1)
	s.touchLocked(handle)
	return ent.m, ent.structFP, true
}

// getPin resolves a handle and pins it in one critical section, so a
// concurrent eviction cannot race between resolution and pinning. The
// caller must balance with unpin.
func (s *matrixStore) getPin(handle string) (*spgemm.Matrix, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent := s.entries[handle]
	if ent == nil {
		s.misses++
		s.col.Add(metrics.CounterMatrixStoreMisses, 1)
		return nil, false
	}
	s.hits++
	s.col.Add(metrics.CounterMatrixStoreHits, 1)
	s.touchLocked(handle)
	ent.pins++
	return ent.m, true
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
// handle shares the pattern's structural fingerprint, so plans cached
// for the original stay valid — this is the "new values, old plan"
// entry point of the iterative workloads.
func (s *matrixStore) revalue(handle string, seed int64) (string, error) {
	s.mu.Lock()
	ent := s.entries[handle]
	if ent == nil {
		s.misses++
		s.col.Add(metrics.CounterMatrixStoreMisses, 1)
		s.mu.Unlock()
		return "", &UnknownHandleError{Handle: handle}
	}
	s.hits++
	s.col.Add(metrics.CounterMatrixStoreHits, 1)
	s.touchLocked(handle)
	src := ent.m
	s.mu.Unlock()
	return s.put(spgemm.Revalue(src, seed))
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
	for i, h := range s.order {
		if h == handle {
			s.dropLocked(i)
			break
		}
	}
	return true
}

// evictLocked drops the least-recently-used unpinned entry. When every
// resident entry is pinned by an in-flight job or batch, nothing is
// evictable and the incoming put fails instead — shrinking a running
// batch's working set would be worse than rejecting the upload.
func (s *matrixStore) evictLocked() bool {
	for i := range s.order {
		if s.entries[s.order[i]].pins > 0 {
			continue
		}
		s.dropLocked(i)
		s.evictions++
		s.col.Add(metrics.CounterMatrixStoreEvictions, 1)
		return true
	}
	return false
}

// dropLocked removes order[i] and, when no other stored matrix shares
// its sparsity pattern, invalidates the pattern's cached plans.
func (s *matrixStore) dropLocked(i int) {
	h := s.order[i]
	s.order = append(s.order[:i:i], s.order[i+1:]...)
	ent := s.entries[h]
	delete(s.entries, h)
	s.bytes -= ent.bytes
	for _, other := range s.entries {
		if other.structFP == ent.structFP {
			return // pattern still resident under another handle
		}
	}
	s.pc.Invalidate(ent.structFP)
}

// touchLocked moves a handle to the LRU tail.
func (s *matrixStore) touchLocked(h string) {
	for i, k := range s.order {
		if k == h {
			s.order = append(append(s.order[:i:i], s.order[i+1:]...), h)
			return
		}
	}
}

// stats snapshots the store for /metricsz and tests.
func (s *matrixStore) stats() (entries int, bytes, hits, misses, evictions int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries), s.bytes, s.hits, s.misses, s.evictions
}
