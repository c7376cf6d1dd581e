package accum

import (
	"math/rand"
	"slices"
	"testing"
)

// requireZero fails unless every occupancy and summary word of t is
// clear: a bit a flush leaves behind would surface in the next row.
func requireZero(t *testing.T, two *TwoLevel, when string) {
	t.Helper()
	for w, word := range two.words[:cap(two.words)] {
		if word != 0 {
			t.Fatalf("%s: occupancy word %d = %#x after flush", when, w, word)
		}
	}
	for w, word := range two.summary[:cap(two.summary)] {
		if word != 0 {
			t.Fatalf("%s: summary word %d = %#x after flush", when, w, word)
		}
	}
}

// TestTwoLevelMatchesSortedSet drives column and segment adds over the
// widths where a word, a summary word or the whole bitmap ends, and
// checks count, ascending emit and the all-zero state after each flush.
func TestTwoLevelMatchesSortedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, width := range []int{1, 63, 64, 65, 4095, 4096, 4097, 1 << 16, 1<<16 + 1} {
		two := GetTwoLevel(width)
		for row := 0; row < 40; row++ {
			set := map[int32]bool{}
			n := rng.Intn(3 * width / 2)
			if row == 0 {
				n = 0 // an empty row
			}
			if row == 1 { // a hub row: every column, hence every word
				for c := 0; c < width; c++ {
					two.AddSymbolic(int32(c))
					set[int32(c)] = true
				}
				n = 0
			}
			for k := 0; k < n && k < 400; k++ {
				c := int32(rng.Intn(width))
				if k%3 == 0 { // a segment add: c's word, a random mask clipped to the width
					seg := c >> 6
					mask := rng.Uint64() | 1<<(uint32(c)&63)
					for bit := 0; bit < 64; bit++ {
						if col := seg<<6 + int32(bit); mask&(1<<bit) != 0 {
							if int(col) >= width {
								mask &^= 1 << bit
							} else {
								set[col] = true
							}
						}
					}
					two.AddSegment(seg, mask)
				} else {
					two.AddSymbolic(c)
					set[c] = true
				}
			}
			want := make([]int32, 0, len(set))
			for c := range set {
				want = append(want, c)
			}
			slices.Sort(want)
			if row%2 == 0 {
				if got := two.FlushSymbolic(); got != len(want) {
					t.Fatalf("width %d row %d: count %d, want %d", width, row, got, len(want))
				}
			} else {
				got := two.FlushCols([]int32{-7})
				if got[0] != -7 || !slices.Equal(got[1:], want) {
					t.Fatalf("width %d row %d: emitted %d columns, want %d (or lost the prefix)", width, row, len(got)-1, len(want))
				}
			}
			requireZero(t, two, "after flush")
		}
	}
}

// TestTwoLevelPoolAndGrow checks the pool contract: a pooled bitmap
// comes back empty and wide enough, whatever its previous user left.
func TestTwoLevelPoolAndGrow(t *testing.T) {
	two := GetTwoLevel(100)
	two.AddSymbolic(99)
	PutTwoLevel(two) // abandoned mid-row: Put must clear it
	two = GetTwoLevel(10000)
	if len(two.words) != (10000+63)/64 {
		t.Fatalf("pooled bitmap covers %d words, want %d", len(two.words), (10000+63)/64)
	}
	requireZero(t, two, "fresh from the pool")
	two.AddSymbolic(9999)
	if n := two.FlushSymbolic(); n != 1 {
		t.Fatalf("count = %d, want 1", n)
	}
	// Narrowed again, it walks one summary word, not the three it owns.
	two.Grow(100)
	if len(two.words) != 2 || len(two.summary) != 1 || cap(two.summary) < 3 {
		t.Fatalf("narrowed bitmap: %d words, %d of %d summary words", len(two.words), len(two.summary), cap(two.summary))
	}
	PutTwoLevel(two)
}

// TestFlushDoesNotAllocate pins the accumulators' flushes at zero
// allocations once their buffers have grown: a per-row allocation here
// is a per-row allocation in every kernel that flushes them.
func TestFlushDoesNotAllocate(t *testing.T) {
	const width, distinct = 4096, 200 // above sortKeys' insertion-sort cutoff
	accs := map[string]Accumulator{
		"hash":   NewHash(distinct),
		"dense":  NewDense(width),
		"list":   NewList(distinct),
		"bitmap": NewBitmap(width),
		"cseg":   NewCSeg(distinct),
	}
	cols := make([]int32, 0, distinct)
	vals := make([]float64, 0, distinct)
	for name, acc := range accs {
		fill := func() {
			for k := 0; k < 3*distinct; k++ {
				acc.Add(int32((k*2654435761)%distinct*17%width), float64(k))
			}
		}
		fill()
		acc.Flush(cols, vals) // grow the sort buffers once
		if n := testing.AllocsPerRun(20, func() {
			fill()
			acc.Flush(cols, vals)
		}); n != 0 {
			t.Errorf("%s: Add+Flush allocates %v times per row", name, n)
		}
	}
	two := GetTwoLevel(width)
	if n := testing.AllocsPerRun(20, func() {
		for k := 0; k < distinct; k++ {
			two.AddSymbolic(int32(k * 17 % width))
		}
		two.FlushCols(cols)
	}); n != 0 {
		t.Errorf("twolevel: AddSymbolic+FlushCols allocates %v times per row", n)
	}
}

// TestSortKeysBothBranches checks the typed pair sort on either side of
// the insertion-sort cutoff against slices.Sort.
func TestSortKeysBothBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 23, 24, 25, 500} {
		keys := make([]uint64, n)
		for i, c := range rng.Perm(n) {
			keys[i] = packKey(int32(c*3), int32(i))
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		sortKeys(keys)
		if !slices.Equal(keys, want) {
			t.Fatalf("n=%d: sortKeys disagrees with slices.Sort", n)
		}
	}
}
