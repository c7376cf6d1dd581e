package accum

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestBitmapMatchesHash drives Bitmap and Hash with the same product
// stream and demands bit-identical flushes — the invariant that lets
// the adaptive numeric pass put any row on the bitmap class.
func TestBitmapMatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		bm := NewBitmap(300)
		hash := NewHash(16)
		n := 1 + rng.Intn(120)
		for i := 0; i < n; i++ {
			col := int32(rng.Intn(300))
			val := rng.NormFloat64()
			bm.Add(col, val)
			hash.Add(col, val)
		}
		if bm.Len() != hash.Len() {
			t.Fatalf("trial %d: Len %d != %d", trial, bm.Len(), hash.Len())
		}
		bc, bv := bm.Flush(nil, nil)
		hc, hv := hash.Flush(nil, nil)
		if len(bc) != len(hc) {
			t.Fatalf("trial %d: lengths %d/%d", trial, len(bc), len(hc))
		}
		for i := range bc {
			if bc[i] != hc[i] {
				t.Fatalf("trial %d: col[%d] %d != %d", trial, i, bc[i], hc[i])
			}
			if math.Float64bits(bv[i]) != math.Float64bits(hv[i]) {
				t.Fatalf("trial %d: val[%d] bits differ", trial, i)
			}
		}
	}
}

func TestBitmapFlushSortedAndAppends(t *testing.T) {
	b := NewBitmap(128)
	for _, c := range []int32{90, 3, 65, 3, 90, 127, 0} {
		b.Add(c, 1)
	}
	cols, vals := b.Flush([]int32{100}, []float64{0})
	if cols[0] != 100 {
		t.Fatal("Flush clobbered the prefix")
	}
	tail := cols[1:]
	if !sort.SliceIsSorted(tail, func(i, j int) bool { return tail[i] < tail[j] }) {
		t.Fatalf("unsorted flush: %v", tail)
	}
	if len(tail) != 5 || vals[1]+vals[2]+vals[3]+vals[4]+vals[5] != 7 {
		t.Fatalf("flush = %v / %v", tail, vals[1:])
	}
	if b.Len() != 0 {
		t.Fatal("Flush did not reset")
	}
	// The flush must have cleared every word, so a reuse starts clean.
	b.Add(64, 2)
	cols, vals = b.Flush(nil, nil)
	if len(cols) != 1 || cols[0] != 64 || vals[0] != 2 {
		t.Fatalf("reuse after flush = %v / %v", cols, vals)
	}
}

func TestBitmapSymbolic(t *testing.T) {
	b := NewBitmap(64)
	for _, c := range []int32{5, 5, 2, 63, 2} {
		b.AddSymbolic(c)
	}
	if n := b.FlushSymbolic(); n != 3 {
		t.Fatalf("FlushSymbolic = %d, want 3", n)
	}
	if b.Len() != 0 {
		t.Fatal("FlushSymbolic did not reset")
	}
	b.Add(7, 1)
	if b.Len() != 1 {
		t.Fatal("bits leaked across FlushSymbolic")
	}
}

func TestBitmapGrow(t *testing.T) {
	b := NewBitmap(0)
	b.Grow(130)
	for i := int32(0); i < 130; i++ {
		b.Add(i, float64(i))
	}
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset left entries behind")
	}
}
