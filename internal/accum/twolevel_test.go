package accum

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
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
// is a per-row allocation in every kernel that flushes them. The
// collector is held off, as in the other allocation gates, so that no
// collection between rounds can move a count.
func TestFlushDoesNotAllocate(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
				acc.Add(int32(int64(k)*2654435761%distinct*17%width), float64(k))
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
	two.GrowValues(width)
	if n := testing.AllocsPerRun(20, func() {
		for k := 0; k < 3*distinct; k++ {
			two.Add(int32(k%distinct*17%width), float64(k))
		}
		two.FlushValues(cols, vals)
	}); n != 0 {
		t.Errorf("twolevel: Add+FlushValues allocates %v times per row", n)
	}
}

// TestTwoLevelValues checks the one-phase accumulation against a map
// that assigns a column's first value and adds the rest in order: a
// lone −0.0 (which 0 + −0.0 would turn into +0.0), NaN and
// ±Inf, over a word and a summary boundary, with every value back to
// −0.0 and every bit clear after each flush, and the flush's NaN report
// about this row's values only (the prefix holds a NaN).
func TestTwoLevelValues(t *testing.T) {
	const width = 4097
	negZero := math.Copysign(0, -1)
	pick := []float64{negZero, 0, 1.5, -2, math.Inf(1), math.Inf(-1), math.NaN(), 1e-300}
	rng := rand.New(rand.NewSource(9))
	two := GetTwoLevel(width)
	defer PutTwoLevel(two)
	two.GrowValues(width)
	for row := 0; row < 60; row++ {
		want := map[int32]float64{}
		for k := rng.Intn(300); k > 0; k-- {
			c, v := int32(rng.Intn(width)), pick[rng.Intn(len(pick))]
			if row%3 == 0 {
				c = int32(4032 + rng.Intn(65)) // the last summary word's edge
			}
			if old, ok := want[c]; ok {
				want[c] = old + v
			} else {
				want[c] = v
			}
			two.Add(c, v)
		}
		cols, vals, nan := two.FlushValues([]int32{math.MaxInt32}, []float64{math.NaN()})
		if cols[0] != math.MaxInt32 || !math.IsNaN(vals[0]) || len(cols) != len(want)+1 || len(vals) != len(cols) {
			t.Fatalf("row %d: emitted %d pairs, want %d after the prefix", row, len(cols)-1, len(want))
		}
		if nan != slices.ContainsFunc(vals[1:], math.IsNaN) {
			t.Fatalf("row %d: nan = %v for %v", row, nan, vals[1:])
		}
		for j, c := range cols[1:] {
			w, ok := want[c]
			if !ok || j > 0 && c <= cols[j] {
				t.Fatalf("row %d: column %d unexpected or out of order", row, c)
			}
			if g := vals[j+1]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("row %d column %d: %v (%#x), want %v (%#x)", row, c, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
		requireZero(t, two, "after FlushValues")
		for c, v := range two.vals {
			if math.Float64bits(v) != math.Float64bits(negZero) {
				t.Fatalf("row %d: value %d left at %v", row, c, v)
			}
		}
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

// TestFlushWordShapes runs FlushCols and FlushValues over the word shapes
// the branch-light flush special-cases — words of 0, 1, 2, 3 and 64
// columns, bit 0 and bit 63, the last partial word of a 229-column
// bitmap — each into a buffer with FlushSlack or more spare entries past
// the row (whole-word stores) and with fewer (the append loop, or a row
// that starts whole-word and ends appending). Every variant must give
// the same ids and values, exactly the row's number of them after the
// prefix, the NaN report of this row's values, and an all-zero
// accumulator with every value back to −0.0.
func TestFlushWordShapes(t *testing.T) {
	const width = 3*64 + 37
	span := func(lo, hi int32) (cols []int32) {
		for c := lo; c < hi; c++ {
			cols = append(cols, c)
		}
		return cols
	}
	shapes := []struct {
		name string
		cols []int32
	}{
		{"empty", nil},
		{"one column", []int32{70}},
		{"bit 0", []int32{0}},
		{"bit 63", []int32{63}},
		{"two columns", []int32{64 + 5, 64 + 6}},
		{"bits 0 and 63", []int32{128, 191}},
		{"three columns", []int32{1, 2, 40}},
		{"full word", span(64, 128)},
		{"full words side by side", span(0, 128)},
		{"last column", []int32{width - 1}},
		{"last partial word", span(192, width)},
		{"mixed", append(append([]int32{3, 130, 131, 140, 200}, span(64, 128)...), width-1)},
	}
	negZero := math.Copysign(0, -1)
	two := GetTwoLevel(width)
	defer PutTwoLevel(two)
	two.GrowValues(width)
	for _, sh := range shapes {
		want := slices.Clone(sh.cols)
		slices.Sort(want)
		value := func(c int32) float64 {
			if c == 3 {
				return math.NaN()
			}
			return float64(c) + 0.5
		}
		for _, spare := range []int{FlushSlack + 7, FlushSlack, FlushSlack - 1, 1, 0} {
			name := fmt.Sprintf("%s/spare %d", sh.name, spare)
			for _, c := range sh.cols {
				if c%2 == 0 {
					two.AddSymbolic(c)
				} else {
					two.AddSegment(c>>6, 1<<(uint32(c)&63))
				}
			}
			cols := append(make([]int32, 0, 1+len(want)+spare), -7)
			got := two.FlushCols(cols)
			if len(got) != 1+len(want) || got[0] != -7 || !slices.Equal(got[1:], want) {
				t.Fatalf("%s: FlushCols = %v, want -7 then %v", name, got, want)
			}
			requireZero(t, two, name+": after FlushCols")

			for _, c := range sh.cols {
				two.Add(c, value(c))
			}
			cols = append(make([]int32, 0, 1+len(want)+spare), -7)
			vals := append(make([]float64, 0, 1+len(want)+spare), math.NaN())
			gotCols, gotVals, nan := two.FlushValues(cols, vals)
			if len(gotCols) != 1+len(want) || gotCols[0] != -7 || !slices.Equal(gotCols[1:], want) {
				t.Fatalf("%s: FlushValues ids = %v, want -7 then %v", name, gotCols, want)
			}
			if len(gotVals) != len(gotCols) || nan != slices.Contains(want, 3) {
				t.Fatalf("%s: %d values for %d ids, nan = %v", name, len(gotVals), len(gotCols), nan)
			}
			for j, c := range want {
				if g, w := gotVals[1+j], value(c); math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("%s: column %d = %v, want %v", name, c, g, w)
				}
			}
			requireZero(t, two, name+": after FlushValues")
			for c, v := range two.vals {
				if math.Float64bits(v) != math.Float64bits(negZero) {
					t.Fatalf("%s: value %d left at %v", name, c, v)
				}
			}
		}
	}
}

// TestTwoLevelWindow checks the window adds and flush against a map that
// assigns a column's first value and adds the rest in (row, column)
// order: runs (AddRun) of 0, 1, 3, 4, 63, 64 and 65 columns starting at bit
// 0, at bit 63 and mid-word, so that runs end in, fill and cross words,
// with single adds (AddWindow) onto and beside them; NaN, ±Inf and −0.0
// values; windows of 1, 2, 63 and exactly 64 words at both ends of a
// bitmap whose last word is partial; each flushed into a buffer with and
// without FlushSlack spare entries. After every row every occupancy and
// summary word must be clear and every value −0.0. A window of 65 words
// is refused.
func TestTwoLevelWindow(t *testing.T) {
	const words = 70
	const width = 64*(words-1) + 5
	negZero := math.Copysign(0, -1)
	pick := []float64{negZero, 0, 1.5, -2, math.Inf(1), math.Inf(-1), math.NaN(), 1e-300, 3}
	rng := rand.New(rand.NewSource(11))
	two := GetTwoLevel(width)
	defer PutTwoLevel(two)
	two.GrowValues(width)
	row := 0
	check := func(name string, w0, w1 int, adds func(add func(c0 int32, x float64, bv []float64))) {
		t.Helper()
		row++
		want := map[int32]float64{}
		record := func(c int32, v float64) {
			if old, ok := want[c]; ok {
				want[c] = old + v
			} else {
				want[c] = v
			}
		}
		adds(func(c0 int32, x float64, bv []float64) {
			if len(bv) == 1 && row%2 == 0 {
				two.AddWindow(c0, float64(x*bv[0]))
			} else {
				two.AddRun(c0, x, bv)
			}
			for q, v := range bv {
				record(c0+int32(q), float64(x*v))
			}
		})
		keys := make([]int32, 0, len(want))
		for c := range want {
			keys = append(keys, c)
		}
		slices.Sort(keys)
		spare := FlushSlack
		if row%3 == 0 {
			spare = rng.Intn(FlushSlack)
		}
		cols := append(make([]int32, 0, 1+len(keys)+spare), -7)
		vals := append(make([]float64, 0, 1+len(keys)+spare), math.NaN())
		cols, vals, nan := two.FlushWindow(w0, w1, cols, vals)
		if cols[0] != -7 || !math.IsNaN(vals[0]) || !slices.Equal(cols[1:], keys) || len(vals) != len(cols) {
			t.Fatalf("%s: FlushWindow ids %v, want -7 then %v", name, cols, keys)
		}
		if nan != slices.ContainsFunc(vals[1:], math.IsNaN) {
			t.Fatalf("%s: nan = %v for %v", name, nan, vals[1:])
		}
		for j, c := range keys {
			if g, w := vals[1+j], want[c]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s: column %d = %v (%#x), want %v (%#x)", name, c, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
		requireZero(t, two, name)
		for c, v := range two.vals {
			if math.Float64bits(v) != math.Float64bits(negZero) {
				t.Fatalf("%s: value %d left at %v", name, c, v)
			}
		}
	}
	values := func(n int) []float64 {
		bv := make([]float64, n)
		for q := range bv {
			bv[q] = pick[rng.Intn(len(pick))]
		}
		return bv
	}

	for _, n := range []int{0, 1, 3, 4, 63, 64, 65} {
		for _, bit := range []int{0, 63, 40} {
			c0 := int32(5*64 + bit)
			last := int(c0) + n - 1
			name := fmt.Sprintf("run of %d at bit %d", n, bit)
			check(name, int(c0)>>6, last>>6, func(add func(int32, float64, []float64)) {
				add(c0, 1, values(n))
			})
			// The same run twice, a single add on its first and last
			// columns and one beside it, in a window one word wider.
			check(name+", revisited", int(c0)>>6-1, max(last, int(c0))>>6, func(add func(int32, float64, []float64)) {
				add(c0, pick[rng.Intn(len(pick))], values(n))
				add(c0, 2, values(n))
				add(c0, 1, values(1))
				add(int32(last), -1, values(1))
				add(c0-1, 1, values(1))
			})
		}
	}
	for _, nw := range []int{1, 2, 63, WindowMaxWords} {
		for _, w0 := range []int{0, words - nw} {
			w1 := w0 + nw - 1
			lo, hi := w0*64, min(w1*64+64, width)
			check(fmt.Sprintf("window of %d words from word %d", nw, w0), w0, w1, func(add func(int32, float64, []float64)) {
				add(int32(lo), 1, values(1))
				add(int32(hi-1), 1, values(1))
				for k := 0; k < 3*nw; k++ {
					c0 := lo + rng.Intn(hi-lo)
					n := 1 + rng.Intn(min(hi-c0, 130))
					add(int32(c0), pick[rng.Intn(len(pick))], values(n))
				}
			})
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("FlushWindow over 65 words did not panic")
		}
	}()
	two.FlushWindow(0, WindowMaxWords, nil, nil)
}
