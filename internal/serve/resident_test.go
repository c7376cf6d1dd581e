package serve

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/spgemm"
)

// The tests below drive put's compare-first path (matrixStore.resident):
// a matrix whose record proves it has a resident pattern's structure is
// compared with that pattern's last entry before its values are hashed.

// withValues is m's structure, in m's own arrays, with the given values.
func withValues(m *spgemm.Matrix, data []float64) *spgemm.Matrix {
	return &spgemm.Matrix{Rows: m.Rows, Cols: m.Cols, RowOffsets: m.RowOffsets, ColIDs: m.ColIDs, Data: data}
}

// TestResidentChainProductSkipsTheHash: the last product of a warm chain
// is already in the store as its pattern's last entry, and put answers
// that entry's handle from the compare alone. The entry is re-keyed
// under a handle no hash gives, so a put that hashed would miss it and
// store a second copy: the chain must answer the re-keyed handle, adopt
// nothing (the resident array stays, the entry count too) and hand the
// product's array back to its plan as a spare.
func TestResidentChainProductSkipsTheHash(t *testing.T) {
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
	var stored string
	for i := 0; i < 3; i++ { // cold, then the spares settle
		stored = chain()
	}
	pc := (*core.PlanCache)(s.PlanCache())
	plan := pc.PeekCPU(spgemm.RunOptions{}.PlanKey(a, a), a, a, nil, nil)
	if plan == nil {
		t.Fatal("no CPU plan for the chain's pattern")
	}
	spares := func() int {
		_, _, n := pc.Held(plan)
		return n
	}

	const rekeyed = "m-rekeyed"
	s.store.mu.Lock()
	ent := s.store.entries[stored]
	delete(s.store.entries, stored)
	ent.handle = rekeyed
	s.store.entries[rekeyed] = ent
	data := ent.m.Data
	s.store.mu.Unlock()
	entries, _, _, _, _ := s.store.stats()
	before := spares()
	if before == 0 {
		t.Fatal("the warm chain's plan keeps no spare")
	}

	if got := chain(); got != rekeyed {
		t.Fatalf("the stored product came back as %s, want the resident entry's %s: its values were hashed", got, rekeyed)
	}
	if got, _, _, _, _ := s.store.stats(); got != entries {
		t.Fatalf("%d entries resident after the chain, want %d", got, entries)
	}
	if m, _, _ := s.store.get(rekeyed); &m.Data[0] != &data[0] {
		t.Fatal("the resident entry's values were replaced: the product was adopted")
	}
	if after := spares(); after != before {
		t.Fatalf("the plan keeps %d spares after the chain, %d before: the product's array was not handed back", after, before)
	}
}

// TestResidentLastValueDiffers: values equal to the candidate's in all
// but the last position are another matrix, with a handle of its own.
func TestResidentLastValueDiffers(t *testing.T) {
	s := newMatrixStore(0, nil)
	a := spgemm.ER(40, 40, 0.1, 5)
	h, _, err := s.put(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, id, _ := s.get(h)
	next := withValues(a, slices.Clone(a.Data))
	next.Data[len(next.Data)-1]++
	h2, adopted, err := s.put(next, id)
	if err != nil || h2 == h || !adopted {
		t.Fatalf("values differing in the last place: %s (adopted %v), %v; the candidate is %s", h2, adopted, err, h)
	}
	if m, _, ok := s.get(h2); !ok || !csr.SameBits(m.Data, next.Data) {
		t.Fatal("the stored matrix does not hold the values put")
	}
}

// TestResidentComparesBitsNotFloats: values that differ from the
// candidate's only in the sign of a zero, or only in a NaN's payload,
// are equal as floats (or, for NaNs, alike) but not as bits, and the
// values hash tells them apart: each gets a handle of its own. Each case
// has one such value and no other NaN, so that nothing else differs.
func TestResidentComparesBitsNotFloats(t *testing.T) {
	for _, tc := range []struct {
		name          string
		resident, put float64
	}{
		{"the sign of a zero", 0, math.Copysign(0, -1)},
		{"a NaN payload", math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)},
	} {
		s := newMatrixStore(0, nil)
		a := spgemm.ER(40, 40, 0.1, 6)
		a.Data[3] = tc.resident
		h, _, err := s.put(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, id, _ := s.get(h)
		data := slices.Clone(a.Data)
		data[3] = tc.put
		got, adopted, err := s.put(withValues(a, data), id)
		if err != nil || got == h || !adopted {
			t.Fatalf("%s: %s (adopted %v), %v; the resident matrix is %s", tc.name, got, adopted, err, h)
		}
		if m, _, _ := s.get(got); !csr.SameBits(m.Data, data) {
			t.Fatalf("%s: the stored values differ from those put", tc.name)
		}
		// The resident values in arrays of their own are still its handle.
		if again, adopted, err := s.put(withValues(a, slices.Clone(a.Data)), id); err != nil || again != h || adopted {
			t.Fatalf("%s: the resident values again: %s (adopted %v), %v, want %s", tc.name, again, adopted, err, h)
		}
	}
}

// TestResidentDroppedLastTakesTheHash: once the pattern's last entry is
// deleted or evicted, a put of the same content finds no candidate,
// hashes, and stores it again under the same handle.
func TestResidentDroppedLastTakesTheHash(t *testing.T) {
	a := spgemm.ER(40, 40, 0.1, 7)
	x := withValues(a, slices.Clone(a.Data))
	x.Data[0]++
	for _, drop := range []string{"delete", "evict"} {
		s := newMatrixStore(2*a.Bytes(), nil)
		ha, _, err := s.put(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, id, _ := s.get(ha)
		hx, _, err := s.put(x, id)
		if err != nil || hx == ha {
			t.Fatalf("%s: %s, %v", drop, hx, err)
		}
		switch drop {
		case "delete":
			s.delete(hx)
		case "evict":
			s.get(ha) // x is now the least recently used
			if _, _, err := s.put(spgemm.ER(40, 40, 0.05, 8), nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, ok := s.get(hx); ok {
			t.Fatalf("%s: %s is still resident", drop, hx)
		}
		again, adopted, err := s.put(withValues(a, slices.Clone(x.Data)), id)
		if err != nil || again != hx || !adopted {
			t.Fatalf("%s: the put after the drop answered %s (adopted %v), %v, want %s stored anew", drop, again, adopted, err, hx)
		}
		if m, _, ok := s.get(hx); !ok || !csr.SameBits(m.Data, x.Data) {
			t.Fatalf("%s: %s is not resident with the values put", drop, hx)
		}
	}
}

// TestResidentCompareRacesEviction: the pattern's last entry is dropped
// while a put compares with it, outside the lock. The drop is the
// eviction a concurrent upload forces (delete and eviction drop an entry
// the same way), because then every correct interleaving leaves the
// handle put answers resident: an eviction before or during the compare
// makes put store the content anew, and a match before it moves the
// entry to the back of the LRU, out of the eviction's reach. A put that
// answered a handle dropped during its compare leaves it missing. The
// eviction starts at a random point of the compare's span, round by
// round.
func TestResidentCompareRacesEviction(t *testing.T) {
	a := spgemm.BlockDiag(2048, 8, 9) // 16 Ki values
	aID, err := csr.Identify(a)
	if err != nil {
		t.Fatal(err)
	}
	x := withValues(a, slices.Clone(a.Data))
	filler := spgemm.ER(8, 8, 0.5, 10)
	upload := withValues(filler, slices.Clone(filler.Data))
	upload.Data[0]++
	budget := a.Bytes() + filler.Bytes()

	round := func(delay time.Duration) (bool, string) {
		s := newMatrixStore(budget, nil) // a, then filler: a is evicted first
		if _, _, err := s.put(a, aID); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.put(filler, nil); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		var got string
		var putErr, upErr error
		wg.Add(2)
		start := make(chan struct{})
		go func() {
			defer wg.Done()
			<-start
			got, _, putErr = s.put(x, aID)
		}()
		go func() {
			defer wg.Done()
			<-start
			for end := time.Now().Add(delay); time.Now().Before(end); {
			}
			_, _, upErr = s.put(upload, nil)
		}()
		close(start)
		wg.Wait()
		if putErr != nil || upErr != nil {
			t.Fatal(putErr, upErr)
		}
		_, _, ok := s.get(got)
		return ok, got
	}

	// The compare's span, measured on a store without the eviction.
	span := time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		s := newMatrixStore(0, nil)
		s.put(a, aID)
		t0 := time.Now()
		s.put(x, aID)
		span = min(span, time.Since(t0))
	}
	rng := rand.New(rand.NewSource(12))
	rounds := 100
	if testing.Short() {
		rounds = 25
	}
	for r := 0; r < rounds; r++ {
		if ok, h := round(time.Duration(rng.Int63n(int64(2*span) + 1))); !ok {
			t.Fatalf("round %d: put answered %s, which is no longer resident", r, h)
		}
	}
}
