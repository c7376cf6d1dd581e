package accum

import (
	"math/rand"
	"slices"
	"testing"
)

// fillAndFlush pushes pairs through an accumulator and returns the
// flushed row.
func fillAndFlush(a Accumulator, cols []int32, vals []float64) ([]int32, []float64) {
	for i := range cols {
		a.Add(cols[i], vals[i])
	}
	return a.Flush(nil, nil)
}

func TestPooledAccumulatorsAreEmptyAndCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(200)
		cols := make([]int32, n)
		vals := make([]float64, n)
		for i := range cols {
			cols[i] = int32(rng.Intn(64))
			vals[i] = rng.NormFloat64()
		}
		want := map[int32]float64{}
		for i := range cols {
			want[cols[i]] += vals[i]
		}
		for _, pooled := range []struct {
			get func() Accumulator
			put func(Accumulator)
		}{
			{func() Accumulator { return GetHash(n) }, func(a Accumulator) { PutHash(a.(*Hash)) }},
			{func() Accumulator { return GetList(n) }, func(a Accumulator) { PutList(a.(*List)) }},
			{func() Accumulator { return GetCSeg(n) }, func(a Accumulator) { PutCSeg(a.(*CSeg)) }},
		} {
			a := pooled.get()
			if a.Len() != 0 {
				t.Fatalf("round %d: pooled accumulator not empty: %d", round, a.Len())
			}
			gc, gv := fillAndFlush(a, cols, vals)
			if len(gc) != len(want) {
				t.Fatalf("round %d: %d distinct, want %d", round, len(gc), len(want))
			}
			for i := range gc {
				if i > 0 && gc[i] <= gc[i-1] {
					t.Fatalf("round %d: output not sorted", round)
				}
				if d := gv[i] - want[gc[i]]; d > 1e-12 || d < -1e-12 {
					t.Fatalf("round %d: col %d = %g, want %g", round, gc[i], gv[i], want[gc[i]])
				}
			}
			pooled.put(a)
		}
	}
}

func TestHashGrowPreservesEmptyInvariant(t *testing.T) {
	h := GetHash(4)
	h.Add(7, 1)
	h.Reset()
	h.Grow(10000)
	if h.Len() != 0 {
		t.Fatal("grown accumulator not empty")
	}
	h.Add(9999, 2)
	c, v := h.Flush(nil, nil)
	if len(c) != 1 || c[0] != 9999 || v[0] != 2 {
		t.Fatalf("after grow: %v %v", c, v)
	}
	PutHash(h)
}

func TestDenseGrowWidens(t *testing.T) {
	d := NewDense(4)
	d.Grow(1000)
	if d.Width() < 1000 {
		t.Fatalf("width %d after Grow(1000)", d.Width())
	}
	d.Add(999, 1.5)
	c, v := d.Flush(nil, nil)
	if len(c) != 1 || c[0] != 999 || v[0] != 1.5 {
		t.Fatalf("dense after grow: %v %v", c, v)
	}
}

// TestFlushColsMatchesFlush checks the structure-only flush of the four
// row-kernel accumulators: the same ascending columns Flush emits, with
// the accumulator left empty, whether the columns arrived one by one or
// (Bitmap, CSeg) as segment masks.
func TestFlushColsMatchesFlush(t *testing.T) {
	type colFlusher interface {
		Accumulator
		FlushCols([]int32) []int32
	}
	rng := rand.New(rand.NewSource(2))
	const width = 1 << 12
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(300)
		if round%2 == 0 {
			n = 1 + rng.Intn(20) // list-sized rows
		}
		cols := make([]int32, n)
		for i := range cols {
			cols[i] = int32(rng.Intn(width))
		}
		ref := NewHash(n)
		for _, c := range cols {
			ref.AddSymbolic(c)
		}
		want, _ := ref.Flush(nil, nil)
		for name, acc := range map[string]colFlusher{
			"list": NewList(n), "hash": NewHash(16), "bitmap": NewBitmap(width), "cseg": NewCSeg(4),
		} {
			for _, c := range cols {
				acc.AddSymbolic(c)
			}
			got := acc.FlushCols([]int32{-1})
			if got[0] != -1 || !slices.Equal(got[1:], want) {
				t.Fatalf("round %d %s: FlushCols = %v, want -1 then %v", round, name, got, want)
			}
			if acc.Len() != 0 || len(acc.FlushCols(nil)) != 0 {
				t.Fatalf("round %d %s: not empty after FlushCols", round, name)
			}
		}
		cseg := NewCSeg(4)
		for _, c := range cols {
			cseg.AddSegment(c>>6, 1<<uint(c&63))
		}
		if got := cseg.FlushCols(nil); !slices.Equal(got, want) {
			t.Fatalf("round %d cseg: FlushCols after AddSegment = %v, want %v", round, got, want)
		}
	}
}

// TestScratchGenerations checks the pooled warm-replay scratch: it
// covers the requested width after serving a narrower one, never hands
// out a generation a stale stamp still holds, and clears the stamps
// when the generation counter wraps.
func TestScratchGenerations(t *testing.T) {
	s := GetScratch(8)
	g := s.NextGen()
	s.Stamp[3] = g
	PutScratch(s)
	s = GetScratch(64)
	if len(s.Vals) < 64 || len(s.Stamp) < 64 {
		t.Fatalf("scratch covers %d/%d columns, want 64", len(s.Vals), len(s.Stamp))
	}
	for i := 0; i < 3; i++ {
		if next := s.NextGen(); s.Stamp[3] == next {
			t.Fatalf("generation %d reuses a live stamp", next)
		}
	}
	s.gen = ^uint32(0)
	s.Stamp[5] = 1
	if next := s.NextGen(); next != 1 || s.Stamp[5] != 0 {
		t.Fatalf("wrap-around: generation %d, stale stamp %d; want 1 and a cleared stamp", next, s.Stamp[5])
	}
	PutScratch(s)
}
