package accum

import "math/bits"

// Bitmap is a dense accumulator that tracks occupancy in a bitset
// instead of a touched list: values scatter into a width-sized array
// and Flush walks the set bits in ascending order, so the row comes
// out sorted with NO per-row sort at all: where the Dense accumulator
// pays an O(nnz log nnz) sort per row at flush, the bit scan costs
// width/64 word reads. No engine runs on it (the row kernel uses the
// two-level variant, TwoLevel); it stays as the one-level baseline the
// benchmark's accumulator probe times.
//
// Like Hash, Dense and List, Bitmap assigns on first touch and
// accumulates in product-arrival order, and its ascending-bit Flush
// emits exactly the sorted order the others emit — so a row
// accumulated here is bit-for-bit the row any other class produces.
type Bitmap struct {
	width int
	bits  []uint64
	vals  []float64
	n     int
}

// NewBitmap creates a bitmap accumulator for the half-open column
// range [0, width).
func NewBitmap(width int) *Bitmap {
	return &Bitmap{
		width: width,
		bits:  make([]uint64, (width+63)/64),
		vals:  make([]float64, width),
	}
}

// Grow ensures the accumulator covers width columns. Only valid on an
// empty accumulator (matching Hash.Grow's pool-reuse contract).
func (b *Bitmap) Grow(width int) {
	if b.width >= width {
		return
	}
	b.width = width
	b.bits = make([]uint64, (width+63)/64)
	b.vals = make([]float64, width)
}

// Width reports the column range the accumulator covers.
func (b *Bitmap) Width() int { return b.width }

// Add accumulates val into column col.
func (b *Bitmap) Add(col int32, val float64) {
	w, m := col>>6, uint64(1)<<(col&63)
	if b.bits[w]&m == 0 {
		b.bits[w] |= m
		b.vals[col] = val
		b.n++
		return
	}
	b.vals[col] += val
}

// AddSymbolic records the column without a value.
func (b *Bitmap) AddSymbolic(col int32) {
	w, m := col>>6, uint64(1)<<(col&63)
	if b.bits[w]&m == 0 {
		b.bits[w] |= m
		b.n++
	}
}

// Len reports the number of distinct columns.
func (b *Bitmap) Len() int { return b.n }

// Flush appends the (column, value) pairs in ascending column order —
// already sorted by construction — and resets.
func (b *Bitmap) Flush(cols []int32, vals []float64) ([]int32, []float64) {
	for w, word := range b.bits {
		if word == 0 {
			continue
		}
		base := int32(w << 6)
		for word != 0 {
			col := base + int32(bits.TrailingZeros64(word))
			cols = append(cols, col)
			vals = append(vals, b.vals[col])
			word &= word - 1
		}
		b.bits[w] = 0
	}
	b.n = 0
	return cols, vals
}

// FlushCols appends the distinct columns in ascending order (the
// structure-only Flush: the same bit scan, no value reads) and resets.
func (b *Bitmap) FlushCols(cols []int32) []int32 {
	for w, word := range b.bits {
		base := int32(w << 6)
		for word != 0 {
			cols = append(cols, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
		b.bits[w] = 0
	}
	b.n = 0
	return cols
}

// FlushSymbolic reports the count and resets.
func (b *Bitmap) FlushSymbolic() int {
	n := b.n
	if n != 0 {
		for i := range b.bits {
			b.bits[i] = 0
		}
		b.n = 0
	}
	return n
}

// Reset clears the accumulator, retaining capacity.
func (b *Bitmap) Reset() {
	if b.n == 0 {
		return
	}
	for i := range b.bits {
		b.bits[i] = 0
	}
	b.n = 0
}

var _ Accumulator = (*Bitmap)(nil)
