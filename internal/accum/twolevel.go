package accum

import "math/bits"

// TwoLevel is the symbolic row kernel's structure-only accumulator: an
// occupancy bitmap (one word per 64 columns) under a summary bitmap (one
// bit per occupancy word, set when the word is first touched). Recording
// a column is an OR — no probe, no presizing — and count and emit walk
// the summary, visiting and clearing only touched words: a row costs its
// products plus width/4096 summary reads, comes out ascending with no
// sort, and leaves the accumulator all-zero. It holds no values; the
// numeric phase replays them into the structure this emits. The zero
// value is empty and covers no columns until Grow.
type TwoLevel struct {
	words   []uint64
	summary []uint64
}

// Grow resizes an empty accumulator to cover columns [0, width) and no
// more, so a flush walks only the summary words this panel can touch
// however wide a panel the pooled arrays once served.
func (t *TwoLevel) Grow(width int) {
	nw := (width + 63) / 64
	if nw > cap(t.words) {
		t.words = make([]uint64, nw)
		t.summary = make([]uint64, (nw+63)/64)
	}
	t.words, t.summary = t.words[:nw], t.summary[:(nw+63)/64]
}

// AddSymbolic records that column col is occupied.
func (t *TwoLevel) AddSymbolic(col int32) {
	t.AddSegment(col>>6, 1<<(uint32(col)&63))
}

// AddSegment ORs a 64-column occupancy mask into segment seg (columns
// [seg*64, seg*64+64)) — one call per csr.Segments entry.
func (t *TwoLevel) AddSegment(seg int32, mask uint64) {
	w := t.words[seg]
	if w == 0 {
		t.summary[seg>>6] |= 1 << (uint32(seg) & 63)
	}
	t.words[seg] = w | mask
}

// FlushCols appends the distinct columns in ascending order and resets.
func (t *TwoLevel) FlushCols(cols []int32) []int32 {
	for si, sum := range t.summary {
		if sum == 0 {
			continue
		}
		t.summary[si] = 0
		for ; sum != 0; sum &= sum - 1 {
			w := si<<6 + bits.TrailingZeros64(sum)
			base := int32(w << 6)
			for word := t.words[w]; word != 0; word &= word - 1 {
				cols = append(cols, base+int32(bits.TrailingZeros64(word)))
			}
			t.words[w] = 0
		}
	}
	return cols
}

// FlushSymbolic reports the number of distinct columns and resets.
func (t *TwoLevel) FlushSymbolic() int {
	n := 0
	for si, sum := range t.summary {
		if sum == 0 {
			continue
		}
		t.summary[si] = 0
		for ; sum != 0; sum &= sum - 1 {
			w := si<<6 + bits.TrailingZeros64(sum)
			n += bits.OnesCount64(t.words[w])
			t.words[w] = 0
		}
	}
	return n
}
