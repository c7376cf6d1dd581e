package serve

import (
	"container/list"
	"fmt"
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
// or explicit delete), the pattern is retired and nothing else: its
// plans stay in the plan cache, which checks every hit against the
// structure a plan was built from, so a re-upload of the pattern — or
// of a colliding one — is served correctly, the first warm, the second
// cold. The plan cache's byte budget bounds the plans of retired
// patterns.
type matrixStore struct {
	mu       sync.Mutex
	max      int64
	bytes    int64
	entries  map[string]*storeEntry
	patterns map[uint64]*pattern
	order    list.List // of *storeEntry, LRU: oldest first
	col      *metrics.Collector

	hits, misses, evictions int64
}

// pattern is one resident sparsity pattern: the identity minted for the
// first matrix stored with it, that matrix's structure arrays (every
// later one is compared with them once and then shares them) and the
// count of resident matrices carrying it. twin is the record of the last
// plan product whose own arrays compared equal to the structure: the
// next product of that plan is known to match without a compare. last
// is the entry of the pattern most recently stored or matched, the one
// candidate put compares a known-structure matrix's values with before
// it hashes them (nil once that entry is dropped).
type pattern struct {
	id, twin  *csr.Identity
	structure *spgemm.Matrix // no Data
	n         int
	last      *storeEntry
}

type storeEntry struct {
	handle string
	m      *spgemm.Matrix
	pat    *pattern
	bytes  int64
	elem   *list.Element
	// pins counts admitted-but-unfinished jobs and batch nodes holding
	// this handle; LRU eviction never drops a pinned entry, so a
	// running batch cannot lose a handle to eviction pressure from
	// concurrent uploads. Explicit
	// DELETE is operator intent and still wins.
	pins int
}

// DefaultMatrixStoreBytes bounds the store when Config leaves it zero.
const DefaultMatrixStoreBytes = 512 << 20

func newMatrixStore(maxBytes int64, col *metrics.Collector) *matrixStore {
	if maxBytes <= 0 {
		maxBytes = DefaultMatrixStoreBytes
	}
	return &matrixStore{
		max: maxBytes, entries: map[string]*storeEntry{}, patterns: map[uint64]*pattern{},
		col: col,
	}
}

// handleFor derives the content address.
func handleFor(structFP, valuesFP uint64) string {
	return fmt.Sprintf("m-%016x%016x", structFP, valuesFP)
}

// put stores a matrix and returns its handle and whether it adopted
// m.Data: identical content returns the existing handle, adopting
// nothing. id is m's identity record when the caller has one (a product
// of a cached plan): m is then neither validated nor structurally hashed
// again, its structure is compared with its pattern's once per record
// (pattern.twin), and its values are compared with the pattern's last
// entry (resident) before they are hashed.
func (s *matrixStore) put(m *spgemm.Matrix, id *csr.Identity) (string, bool, error) {
	carried := id.Of(m)
	if !carried {
		s.col.Add(metrics.CounterIdentityPasses, 2)
		var err error
		if id, err = csr.Identify(m); err != nil {
			return "", false, fmt.Errorf("serve: matrix rejected by store: %w", err)
		}
	}
	s.col.Add(metrics.CounterIdentityPasses, 1)
	fp := id.Fingerprint()
	if h, ok := s.resident(m, fp); ok {
		return h, false, nil
	}
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
		var structure *spgemm.Matrix // nil: none resident, or m's is known to match
		if pat != nil && !pat.id.Of(m) && !pat.twin.Of(m) {
			structure = pat.structure
		}
		s.mu.Unlock()
		if err := collision(h, m, structure, ent); err != nil {
			return "", false, err
		}
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	if carried && pat != nil && !pat.id.Of(m) {
		pat.twin = id
	}
	if ent != nil {
		s.order.MoveToBack(ent.elem)
		ent.pat.last = ent
		return h, false, nil
	}
	if bytes > s.max {
		return "", false, fmt.Errorf("serve: matrix (%d bytes) exceeds the store budget (%d)", bytes, s.max)
	}
	for s.bytes+bytes > s.max {
		if !s.evictLocked() {
			return "", false, fmt.Errorf("serve: matrix store full (%d of %d bytes)", s.bytes, s.max)
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
	pat.last = ent
	return h, true, nil
}

// resident returns the handle of the pattern's last entry when m's
// structure is known to be the pattern's (m carries its record or its
// twin, an O(1) check) and m's values are bit for bit the entry's: equal
// content, so the handle is the one hashing the values would find, and
// no hash runs. The compare runs outside the lock (resident arrays are
// immutable); the entry counts only if it is still resident after it.
// There is one candidate, so a mismatch costs the compare up to the
// first differing value, and put then hashes as it would have.
func (s *matrixStore) resident(m *spgemm.Matrix, fp uint64) (string, bool) {
	var last *storeEntry
	s.mu.Lock()
	if pat := s.patterns[fp]; pat != nil && (pat.id.Of(m) || pat.twin.Of(m)) {
		last = pat.last
	}
	s.mu.Unlock()
	if last == nil || !csr.SameBits(last.m.Data, m.Data) {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries[last.handle] != last { // dropped while compared
		return "", false
	}
	s.order.MoveToBack(last.elem)
	return last.handle, true
}

// collision compares an upload with the resident structure and entry
// its fingerprints matched (either may be nil) and reports a mismatch.
// Values the upload shares with the resident copy compare in O(1).
func collision(h string, m *spgemm.Matrix, structure *spgemm.Matrix, ent *storeEntry) error {
	if structure != nil && !csr.SameStructure(structure, m) {
		return &CollisionError{Handle: h, Structure: true}
	}
	if ent != nil && !csr.SameBits(ent.m.Data, m.Data) {
		return &CollisionError{Handle: h}
	}
	return nil
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
		return nil, nil, false
	}
	s.hits++
	s.order.MoveToBack(ent.elem)
	ent.pins += pin
	return ent.m, ent.pat.id, true
}

// unpinAll releases one pin per listed handle; a handle explicitly
// deleted while pinned is simply gone (the job holds its resolved
// matrix regardless).
func (s *matrixStore) unpinAll(handles []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range handles {
		if ent := s.entries[h]; ent != nil && ent.pins > 0 {
			ent.pins--
		}
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
	h, _, err := s.put(spgemm.Revalue(src, seed), id)
	return h, err
}

// delete removes a handle and reports whether it existed.
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
		return true
	}
	return false
}

// dropLocked removes an entry and, when it was the last resident matrix
// of its sparsity pattern, retires the pattern. The pattern's cached
// plans stay: a re-upload of it replays them, and the plan cache's
// budget bounds them.
func (s *matrixStore) dropLocked(ent *storeEntry) {
	s.order.Remove(ent.elem)
	delete(s.entries, ent.handle)
	s.bytes -= ent.bytes
	if ent.pat.last == ent {
		ent.pat.last = nil
	}
	if ent.pat.n--; ent.pat.n == 0 {
		delete(s.patterns, ent.pat.id.Fingerprint())
	}
}

// stats snapshots the store for /metricsz and tests.
func (s *matrixStore) stats() (entries int, bytes, hits, misses, evictions int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries), s.bytes, s.hits, s.misses, s.evictions
}
