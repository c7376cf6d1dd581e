package spgemm

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/metrics"
)

// --- constructed collisions -------------------------------------------

// Fingerprint folds one 64-bit word at a time, h' = (h ^ f(v))·P, with f
// two odd multiplies around an xor-shift. f is a bijection, so for any
// two-word suffix a second one with the same hash is solved for directly.
// The constants are internal/csr's; every constructed collision is
// checked against the real Fingerprint.
const (
	fpOffset = 14695981039346656037
	fpPrime  = 1099511628211
	fpC1     = 0xff51afd7ed558ccd
	fpC2     = 0xc4ceb9fe1a85ec53
)

func fpF(v uint64) uint64 {
	v *= fpC1
	v ^= v >> 33
	return v * fpC2
}

// inv64 is the inverse of an odd number modulo 2^64 (Newton's iteration).
func inv64(a uint64) uint64 {
	x := a
	for i := 0; i < 6; i++ {
		x *= 2 - a*x
	}
	return x
}

func fpFInverse(y uint64) uint64 {
	y *= inv64(fpC2)
	y ^= y >> 33 // an xor-shift by more than half the word undoes itself
	return y * inv64(fpC1)
}

func fpMix(h, v uint64) uint64 { return (h ^ fpF(v)) * fpPrime }

// collidingSuffix returns, for hash state h before the two words
// (w1, w2) and a replacement first word, the second word under which
// the hash after both is unchanged.
func collidingSuffix(h, w1, w2, newW1 uint64) uint64 {
	return fpFInverse(fpF(w2) ^ fpMix(h, w1) ^ fpMix(h, newW1))
}

// wideCols is the width of the colliding patterns: a column id solved
// for lands in range once in about 2^24 tries.
const wideCols = 1 << 20

// collidingIDs returns the column ids of two 4 × wideCols patterns with
// one entry per row and one structural fingerprint: 11, 222, 3333, 44444
// and a collider. With one entry per row the id pairs the hash folds
// straddle rows and are bound only by the width, so the last pair is
// solved for.
func collidingIDs(tb testing.TB) (ids, collider []int32) {
	ids = []int32{11, 222, 3333, 44444}
	h := fpMix(fpMix(fpOffset, 4), wideCols)
	for o := range 5 {
		h = fpMix(h, uint64(o))
	}
	pair := func(lo, hi int32) uint64 { return uint64(uint32(lo)) | uint64(uint32(hi))<<32 }
	w1, w2 := pair(ids[0], ids[1]), pair(ids[2], ids[3])
	for k := int32(0); collider == nil; k++ {
		first, second := 12+k%1024, ids[1]+k/1024
		w := collidingSuffix(h, w1, w2, pair(first, second))
		if lo, hi := int32(uint32(w)), int32(uint32(w>>32)); lo >= 0 && lo < wideCols && hi >= 0 && hi < wideCols {
			collider = []int32{first, second, lo, hi}
		}
	}
	if Fingerprint(wideRows(ids, 1)) != Fingerprint(wideRows(collider, 1)) {
		tb.Fatal("the constructed patterns do not collide")
	}
	return ids, collider
}

// wideRows is the 4 × wideCols matrix with one entry per row, at ids,
// valued v, 2v, 3v, 4v.
func wideRows(ids []int32, v float64) *Matrix {
	return &Matrix{Rows: 4, Cols: wideCols, RowOffsets: []int64{0, 1, 2, 3, 4}, ColIDs: ids,
		Data: []float64{v, 2 * v, 3 * v, 4 * v}}
}

// tallRows is the wideCols × 3 matrix whose row r holds r+1 at column
// r mod 3: a product with it keeps one entry per row.
func tallRows() *Matrix {
	m := &Matrix{Rows: wideCols, Cols: 3, RowOffsets: make([]int64, wideCols+1),
		ColIDs: make([]int32, wideCols), Data: make([]float64, wideCols)}
	for r := range wideCols {
		m.RowOffsets[r+1] = int64(r + 1)
		m.ColIDs[r], m.Data[r] = int32(r%3), float64(r+1)
	}
	return m
}

// sameProduct reports the first difference between got and want, values
// compared bit for bit, any NaN equal to any NaN.
func sameProduct(got, want *Matrix) error {
	if got.Rows != want.Rows || got.Cols != want.Cols || len(got.RowOffsets) != len(want.RowOffsets) || len(got.ColIDs) != len(want.ColIDs) {
		return fmt.Errorf("shape %dx%d with %d nnz, want %dx%d with %d", got.Rows, got.Cols, len(got.ColIDs), want.Rows, want.Cols, len(want.ColIDs))
	}
	for i, o := range want.RowOffsets {
		if got.RowOffsets[i] != o {
			return fmt.Errorf("row offset %d is %d, want %d", i, got.RowOffsets[i], o)
		}
	}
	for i, c := range want.ColIDs {
		g, w := got.Data[i], want.Data[i]
		if got.ColIDs[i] != c {
			return fmt.Errorf("column id %d is %d, want %d", i, got.ColIDs[i], c)
		}
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return fmt.Errorf("value %d is %v, want %v", i, g, w)
		}
	}
	return nil
}

// TestPlanCacheRefusesCollidingPattern: two patterns of one shape and
// nnz under one structural fingerprint, multiplied one after the other
// through one plan cache, in both orders, with the collider as A (times
// a tall B) and as B (a 4 × 4 A times it). Every row of either product
// has one entry, so a replay of the other pattern's plan would fit row
// for row. Each run must return the uncached product with no error; the
// second counts a miss and a collision, and the first pattern's plan
// stays and replays warm afterwards. (Every engine's product is the cpu
// engine's, bit for bit.)
func TestPlanCacheRefusesCollidingPattern(t *testing.T) {
	ids, collider := collidingIDs(t)
	tall := tallRows()
	tallID := mustIdentify(t, tall) // spares the tall B's validation and hash per run
	square := &Matrix{Rows: 4, Cols: 4, RowOffsets: []int64{0, 2, 3, 4, 6},
		ColIDs: []int32{0, 3, 1, 2, 0, 3}, Data: []float64{1, 5, 2, 3, 4, 6}}
	sides := map[string]func(ids []int32) (a, b *Matrix, bID *Identity){
		"collider as A": func(ids []int32) (*Matrix, *Matrix, *Identity) { return wideRows(ids, 1), tall, tallID },
		"collider as B": func(ids []int32) (*Matrix, *Matrix, *Identity) { return square, wideRows(ids, 1), nil },
	}
	cfg := V100WithMemory(64 << 20) // room for the tall B
	cpu, _ := ByName("cpu")
	for side, pair := range sides {
		want := map[*int32]*Matrix{}
		for _, pat := range [][]int32{ids, collider} {
			a, b, _ := pair(pat)
			c, _, err := cpu.Run(a, b, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[&pat[0]] = c
		}
		for _, name := range []string{"cpu", "gpu", "hybrid"} {
			eng, _ := ByName(name)
			for order, pats := range map[string][2][]int32{"resident first": {ids, collider}, "collider first": {collider, ids}} {
				t.Run(fmt.Sprintf("%s/%s/%s", name, side, order), func(t *testing.T) {
					pc := NewPlanCache(0)
					for i, pat := range [][]int32{pats[0], pats[1], pats[0]} {
						a, b, bID := pair(pat)
						o := runOptsFor(name)
						o.Device, o.PlanCache, o.Metrics, o.BID = &cfg, pc, NewCollector(), bID
						if bID != nil {
							o.AID = mustIdentify(t, a)
						}
						got, _, err := eng.Run(a, b, o)
						if err != nil {
							t.Fatalf("run %d: %v", i, err)
						}
						if err := sameProduct(got, want[&pat[0]]); err != nil {
							t.Fatalf("run %d: %v", i, err)
						}
						hits, misses, collisions := o.Metrics.Counter(metrics.CounterPlanCacheHits),
							o.Metrics.Counter(metrics.CounterPlanCacheMisses), o.Metrics.Counter(metrics.CounterPlanCacheCollisions)
						if wantHit, wantCollision := i == 2, i == 1; (hits == 1) != wantHit || hits+misses != 1 || (collisions == 1) != wantCollision {
							t.Fatalf("run %d: %d hits, %d misses, %d collisions; want a hit %v, a collision %v", i, hits, misses, collisions, wantHit, wantCollision)
						}
					}
				})
			}
		}
	}
}
