package accum

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestListMatchesHash drives List and Hash with the same product
// stream and demands bit-identical flushes — the invariant the
// adaptive class selection rests on.
func TestListMatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		list := NewList(4)
		hash := NewHash(16)
		dense := NewDense(64)
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			col := int32(rng.Intn(64))
			val := rng.NormFloat64()
			list.Add(col, val)
			hash.Add(col, val)
			dense.Add(col, val)
		}
		if list.Len() != hash.Len() {
			t.Fatalf("trial %d: Len %d != %d", trial, list.Len(), hash.Len())
		}
		lc, lv := list.Flush(nil, nil)
		hc, hv := hash.Flush(nil, nil)
		dc, dv := dense.Flush(nil, nil)
		if len(lc) != len(hc) || len(lc) != len(dc) {
			t.Fatalf("trial %d: lengths %d/%d/%d", trial, len(lc), len(hc), len(dc))
		}
		for i := range lc {
			if lc[i] != hc[i] || lc[i] != dc[i] {
				t.Fatalf("trial %d: col[%d] %d/%d/%d", trial, i, lc[i], hc[i], dc[i])
			}
			if math.Float64bits(lv[i]) != math.Float64bits(hv[i]) ||
				math.Float64bits(lv[i]) != math.Float64bits(dv[i]) {
				t.Fatalf("trial %d: val[%d] bits differ across accumulators", trial, i)
			}
		}
	}
}

func TestListFlushSortedAndAppends(t *testing.T) {
	l := NewList(2)
	for _, c := range []int32{9, 3, 7, 3, 9, 1} {
		l.Add(c, 1)
	}
	cols, vals := l.Flush([]int32{100}, []float64{0})
	if cols[0] != 100 {
		t.Fatal("Flush clobbered the prefix")
	}
	tail := cols[1:]
	if !sort.SliceIsSorted(tail, func(i, j int) bool { return tail[i] < tail[j] }) {
		t.Fatalf("unsorted flush: %v", tail)
	}
	if len(tail) != 4 || vals[1]+vals[2]+vals[3]+vals[4] != 6 {
		t.Fatalf("flush = %v / %v", tail, vals[1:])
	}
	if l.Len() != 0 {
		t.Fatal("Flush did not reset")
	}
}

func TestListSymbolic(t *testing.T) {
	l := NewList(4)
	for _, c := range []int32{5, 5, 2, 8, 2} {
		l.AddSymbolic(c)
	}
	if n := l.FlushSymbolic(); n != 3 {
		t.Fatalf("FlushSymbolic = %d, want 3", n)
	}
	if l.Len() != 0 {
		t.Fatal("FlushSymbolic did not reset")
	}
}

// TestListGrowAndReset grows a list past its capacity and reuses it
// after Reset, which must leave it empty.
func TestListGrowAndReset(t *testing.T) {
	l := NewList(0)
	l.Grow(128)
	for i := int32(0); i < 128; i++ {
		l.Add(i, float64(i))
	}
	if l.Len() != 128 {
		t.Fatalf("Len = %d", l.Len())
	}
	l.Reset()
	l.Grow(64)
	if l.Len() != 0 {
		t.Fatal("reset list not empty")
	}
	l.Add(1, 1)
	if cols, vals := l.Flush(nil, nil); len(cols) != 1 || cols[0] != 1 || vals[0] != 1 {
		t.Fatalf("reused list flush = (%v, %v)", cols, vals)
	}
}
