package accum

import "slices"

// List is a linear-scan accumulator for rows expected to stay very
// sparse: intermediate products land in a short unordered array that
// is scanned on every insert. For a handful of distinct columns the
// scan beats both the hash probe (no hashing, no collisions, perfect
// locality) and the dense array (no width-sized state to touch). The
// row kernel routes rows whose expected output is tiny here in panels
// too wide for its bitmap tier — the "merge-like" small-row class of
// its dense/hash/list selection.
//
// Like Hash and Dense, List assigns on first touch and accumulates in
// product-arrival order, and Flush emits the columns sorted — so a row
// accumulated by List is bit-for-bit the row Hash or Dense would have
// produced.
type List struct {
	cols  []int32
	vals  []float64
	order []uint64 // Flush's packed sort keys, reused across rows
}

// NewList creates a list accumulator with room for capacity distinct
// columns before growing.
func NewList(capacity int) *List {
	if capacity < 4 {
		capacity = 4
	}
	return &List{
		cols: make([]int32, 0, capacity),
		vals: make([]float64, 0, capacity),
	}
}

// Grow ensures capacity for n distinct columns. Only valid on an empty
// accumulator (matching Hash.Grow's pool-reuse contract).
func (l *List) Grow(n int) {
	if cap(l.cols) >= n {
		return
	}
	l.cols = make([]int32, 0, n)
	l.vals = make([]float64, 0, n)
}

// Add accumulates val into column col.
func (l *List) Add(col int32, val float64) {
	for i, c := range l.cols {
		if c == col {
			l.vals[i] += val
			return
		}
	}
	l.cols = append(l.cols, col)
	l.vals = append(l.vals, val)
}

// AddSymbolic records the column without a value.
func (l *List) AddSymbolic(col int32) {
	for _, c := range l.cols {
		if c == col {
			return
		}
	}
	l.cols = append(l.cols, col)
	l.vals = append(l.vals, 0)
}

// Len reports the number of distinct columns.
func (l *List) Len() int { return len(l.cols) }

// Flush emits the sorted (column, value) pairs and resets.
func (l *List) Flush(cols []int32, vals []float64) ([]int32, []float64) {
	order := l.order[:0]
	for i, c := range l.cols {
		order = append(order, packKey(c, int32(i)))
	}
	l.order = order
	cols, vals = flushKeys(order, l.vals, cols, vals)
	l.Reset()
	return cols, vals
}

// FlushCols appends the distinct columns in ascending order (the
// structure-only Flush) and resets.
func (l *List) FlushCols(cols []int32) []int32 {
	start := len(cols)
	cols = append(cols, l.cols...)
	slices.Sort(cols[start:])
	l.Reset()
	return cols
}

// FlushSymbolic reports the count and resets.
func (l *List) FlushSymbolic() int {
	n := len(l.cols)
	l.Reset()
	return n
}

// Reset clears the accumulator, retaining capacity.
func (l *List) Reset() {
	l.cols = l.cols[:0]
	l.vals = l.vals[:0]
}

var _ Accumulator = (*List)(nil)
