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
// value beside each column (GrowValues, Add, FlushValues), and for a row
// whose columns lie in a narrow window skips the summary (AddWindow,
// AddRun, FlushWindow). The zero value is empty and covers no columns
// until Grow.
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
		cols, n = t.flushWords(cols, n, si<<6, sum)
	}
	return cols[:n]
}

// flushWords is FlushCols' body for one summary word: it appends, to
// cols[:n], the columns of word first+j for each set bit j of touched,
// ascending, and clears those words. Every word it names is non-zero.
func (t *TwoLevel) flushWords(cols []int32, n, first int, touched uint64) ([]int32, int) {
	for ; touched != 0; touched &= touched - 1 {
		w := first + bits.TrailingZeros64(touched)
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
	return cols, n
}

// FlushValues is FlushCols also appending each value (reset to −0.0);
// nan reports whether one of them is a NaN.
func (t *TwoLevel) FlushValues(cols []int32, vals []float64) (_ []int32, _ []float64, nan bool) {
	n := len(cols)
	return t.appendValues(t.FlushCols(cols), n, vals)
}

// appendValues appends the value of each column in cols[n:] to vals,
// resetting it to −0.0, and reports whether one of them is a NaN.
func (t *TwoLevel) appendValues(cols []int32, n int, vals []float64) (_ []int32, _ []float64, nan bool) {
	for _, col := range cols[n:] {
		v := t.vals[col]
		vals, nan = append(vals, v), nan || v != v
		t.vals[col] = negZero
	}
	return cols, vals, nan
}

// WindowMaxWords is the widest column window, in occupancy words, that
// the window adds (AddWindow, AddRun) and FlushWindow serve: the flush
// gathers the window's touched words into one 64-bit mask.
const WindowMaxWords = 64

// AddWindow records column col and adds v to its value, with no summary
// bit: a row whose columns all lie in a window of at most WindowMaxWords
// words, flushed by FlushWindow over that window, needs none. A product
// is a value add and a word OR.
func (t *TwoLevel) AddWindow(col int32, v float64) {
	t.vals[col] += v
	t.words[col>>6] |= 1 << (uint32(col) & 63)
}

// AddRun is AddWindow for a B row whose ids are the run c0, c0+1, …,
// c0+len(bv)−1: it adds float64(x*bv[q]) to column c0+q in one loop over
// the values, then ORs the run's bits in at most ⌈len(bv)/64⌉+1 words.
func (t *TwoLevel) AddRun(c0 int32, x float64, bv []float64) {
	if len(bv) == 0 {
		return
	}
	vs := t.vals[c0 : int(c0)+len(bv)]
	for q, v := range bv {
		vs[q] += float64(x * v)
	}
	last := int(c0) + len(bv) - 1
	w, wl := int(c0)>>6, last>>6
	lead, tail := ^uint64(0)<<(uint32(c0)&63), ^uint64(0)>>(63-uint32(last)&63)
	if w == wl {
		t.words[w] |= lead & tail
		return
	}
	t.words[w] |= lead
	for w++; w < wl; w++ {
		t.words[w] = ^uint64(0)
	}
	t.words[wl] |= tail
}

// FlushWindow is FlushValues for a row accumulated by AddWindow and
// AddRun in words [w0, w1] (w1 − w0 < WindowMaxWords): it walks only
// those words, with FlushCols' body, and leaves them clear.
func (t *TwoLevel) FlushWindow(w0, w1 int, cols []int32, vals []float64) (_ []int32, _ []float64, nan bool) {
	if w1-w0 >= WindowMaxWords {
		panic("accum: FlushWindow over more than WindowMaxWords words")
	}
	var touched uint64
	for j, word := range t.words[w0 : w1+1] {
		touched |= (word | -word) >> 63 << j
	}
	n := len(cols)
	cols, end := t.flushWords(cols, n, w0, touched)
	return t.appendValues(cols[:end], n, vals)
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
