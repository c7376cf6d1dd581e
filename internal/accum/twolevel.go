package accum

import (
	"math"
	"math/bits"
)

// TwoLevel is the bitmap tier's row accumulator: an occupancy bitmap
// (one word per 64 columns) under a summary bitmap (one bit per occupancy
// word, set when the word is first touched). Recording a column is an OR
// — no probe, no presizing — and count and emit walk the summary,
// visiting and clearing only touched words: a row costs its products
// plus width/4096 summary reads, comes out ascending with no sort, and
// leaves the accumulator all-zero. The one-phase kernel also keeps a
// value beside each column (GrowValues, Add, FlushValues). The zero
// value is empty and covers no columns until Grow.
type TwoLevel struct {
	words   []uint64
	summary []uint64
	vals    []float64 // −0.0 wherever no row holds a value
}

var negZero = math.Copysign(0, -1)

// GrowValues gives the accumulator a value per column of [0, width).
func (t *TwoLevel) GrowValues(width int) {
	for len(t.vals) < width {
		t.vals = append(t.vals, negZero)
	}
}

// Add records column col and adds v to its value. A column starts from
// −0.0, and −0.0 + v is v bit for bit for every v (±0, NaN, ±Inf), so a
// row's first product is assigned and the rest added: no first-touch test.
// Nor a first-word test: the summary bit is ORed in on every product, two
// stores where AddSegment branches on the word, which on a row of
// scattered columns mispredicts about once a product (DESIGN.md §13).
func (t *TwoLevel) Add(col int32, v float64) {
	t.vals[col] += v
	seg := col >> 6
	t.summary[seg>>6] |= 1 << (uint32(seg) & 63)
	t.words[seg] |= 1 << (uint32(col) & 63)
}

// AddRevisit is Add testing the column's bit first, so a column already
// recorded costs a load, not a store.
func (t *TwoLevel) AddRevisit(col int32, v float64) {
	t.vals[col] += v
	if seg, m := col>>6, uint64(1)<<(uint32(col)&63); t.words[seg]&m == 0 {
		t.AddSegment(seg, m)
	}
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

// AddSegment ORs a non-zero 64-column occupancy mask into segment seg
// (columns [seg*64, seg*64+64)) — one call per csr.Segments entry. It
// sets the summary bit only on a word's first touch: dense symbolic rows
// revisit words, and predict the test.
func (t *TwoLevel) AddSegment(seg int32, mask uint64) {
	w := t.words[seg]
	if w == 0 {
		t.summary[seg>>6] |= 1 << (uint32(seg) & 63)
	}
	t.words[seg] = w | mask
}

// FlushSlack is the spare capacity, past a row's distinct columns, that
// lets FlushCols write whole words: a caller that reserves it for each
// row (a row's bound plus FlushSlack) gets the branch-light body.
const FlushSlack = 64

// FlushCols appends the distinct columns in ascending order and resets.
// With FlushSlack spare entries at a word, it stores the word's two
// lowest columns unconditionally, keeps the second only if there was
// one, and loops from the third bit: a word of one or two columns — most
// of them on a row of scattered columns — takes no data-dependent branch.
// Without that room it appends column by column. Either way it may
// overwrite cols' spare capacity past the length it returns.
func (t *TwoLevel) FlushCols(cols []int32) []int32 {
	n := len(cols)
	for si, sum := range t.summary {
		if sum == 0 {
			continue
		}
		t.summary[si] = 0
		for ; sum != 0; sum &= sum - 1 {
			w := si<<6 + bits.TrailingZeros64(sum)
			base, word := int32(w<<6), t.words[w]
			t.words[w] = 0
			if cap(cols)-n < FlushSlack {
				cols = cols[:n]
				for ; word != 0; word &= word - 1 {
					cols = append(cols, base+int32(bits.TrailingZeros64(word)))
				}
				n = len(cols)
				continue
			}
			out := cols[n : n+FlushSlack]
			out[0] = base + int32(bits.TrailingZeros64(word)) // a touched word is non-zero
			word &= word - 1
			out[1] = base + int32(bits.TrailingZeros64(word)&63)
			k := 1 + int((word|-word)>>63) // 2 if the word had a second column
			for word &= word - 1; word != 0; word &= word - 1 {
				out[k&63] = base + int32(bits.TrailingZeros64(word))
				k++
			}
			n += k
		}
	}
	return cols[:n]
}

// FlushValues is FlushCols also appending each value (reset to −0.0);
// nan reports whether one of them is a NaN.
func (t *TwoLevel) FlushValues(cols []int32, vals []float64) (_ []int32, _ []float64, nan bool) {
	n := len(cols)
	cols = t.FlushCols(cols)
	for _, col := range cols[n:] {
		v := t.vals[col]
		vals, nan = append(vals, v), nan || v != v
		t.vals[col] = negZero
	}
	return cols, vals, nan
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
