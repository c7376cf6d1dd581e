// Package accum provides the row accumulators used by every SpGEMM
// implementation in this repository.
//
// Gustavson's algorithm produces, for each output row, a stream of
// (column, value) intermediate products that must be combined: products
// with the same column id are summed, and the surviving set is emitted
// sorted by column id. The paper (Section II-B) uses two combination
// methods following spECK and Nagasaka et al.:
//
//   - the hash-map method, sized from an upper bound, keyed by column id,
//     sorted at the end — efficient for sparse output rows;
//   - the dense-accumulation method, which indexes a dense array directly
//     by column id — efficient for dense output rows, wasteful for very
//     sparse ones.
//
// Both implement the Accumulator interface and both support a symbolic
// (structure-only) mode used in the symbolic phase of the two-phase
// strategy.
package accum

import "slices"

// Accumulator combines intermediate products of one output row.
type Accumulator interface {
	// Add accumulates val into column col.
	Add(col int32, val float64)
	// AddSymbolic records that column col is occupied, without a value.
	AddSymbolic(col int32)
	// Len reports the number of distinct columns accumulated so far.
	Len() int
	// Flush appends the accumulated (column, value) pairs, sorted by
	// column, to the destination slices and resets the accumulator.
	// For symbolic use the value written is undefined.
	Flush(cols []int32, vals []float64) ([]int32, []float64)
	// FlushSymbolic resets the accumulator and reports the number of
	// distinct columns, without materializing them.
	FlushSymbolic() int
	// Reset clears the accumulator without extracting anything.
	Reset()
}

// Hash is an open-addressing hash accumulator. Capacity is fixed at
// construction (from a per-row upper bound as the paper describes) and
// grows automatically if the bound is exceeded.
type Hash struct {
	keys  []int32 // -1 = empty
	vals  []float64
	used  []int32  // indices of occupied slots, in insertion order
	order []uint64 // Flush's sort keys, reused across rows
	mask  uint32
	count int
}

// NewHash creates a hash accumulator able to hold at least capacity
// distinct columns before growing. The table is sized to the next power
// of two at most half full, matching the upper-bound sizing strategy of
// the hashmap method.
func NewHash(capacity int) *Hash {
	h := &Hash{}
	h.init(capacity)
	return h
}

func (h *Hash) init(capacity int) {
	size := 16
	for size < capacity*2 {
		size <<= 1
	}
	h.keys = make([]int32, size)
	for i := range h.keys {
		h.keys[i] = -1
	}
	h.vals = make([]float64, size)
	h.used = make([]int32, 0, capacity)
	h.mask = uint32(size - 1)
	h.count = 0
}

// slot finds the slot for col, inserting the key if absent. The boolean
// reports whether the key was newly inserted.
func (h *Hash) slot(col int32) (int, bool) {
	// Multiplicative hashing: the same scheme GPU hash SpGEMM kernels
	// use (cheap, and good enough for column ids).
	i := (uint32(col) * 2654435761) & h.mask
	for {
		k := h.keys[i]
		if k == col {
			return int(i), false
		}
		if k == -1 {
			h.keys[i] = col
			h.used = append(h.used, int32(i))
			h.count++
			return int(i), true
		}
		i = (i + 1) & h.mask
	}
}

func (h *Hash) maybeGrow() {
	if h.count*2 < len(h.keys) {
		return
	}
	oldKeys, oldVals, oldUsed := h.keys, h.vals, h.used
	h.init(len(h.keys)) // doubles: init sizes to capacity*2
	for _, i := range oldUsed {
		s, _ := h.slot(oldKeys[i])
		h.vals[s] = oldVals[i]
	}
}

// Add accumulates val into column col.
func (h *Hash) Add(col int32, val float64) {
	s, fresh := h.slot(col)
	if fresh {
		h.vals[s] = val
		h.maybeGrow()
		return
	}
	h.vals[s] += val
}

// AddSymbolic records the column without a value.
func (h *Hash) AddSymbolic(col int32) {
	_, fresh := h.slot(col)
	if fresh {
		h.maybeGrow()
	}
}

// Len reports the number of distinct columns.
func (h *Hash) Len() int { return h.count }

// Flush emits the sorted (column, value) pairs and resets.
func (h *Hash) Flush(cols []int32, vals []float64) ([]int32, []float64) {
	order := h.order[:0]
	for _, i := range h.used {
		order = append(order, packKey(h.keys[i], i))
	}
	h.order = order
	cols, vals = flushKeys(order, h.vals, cols, vals)
	h.Reset()
	return cols, vals
}

// FlushCols appends the distinct columns in ascending order — the
// structure-only Flush of a symbolic pass, sorting bare keys instead of
// (key, value) pairs — and resets.
func (h *Hash) FlushCols(cols []int32) []int32 {
	start := len(cols)
	for _, i := range h.used {
		cols = append(cols, h.keys[i])
	}
	slices.Sort(cols[start:])
	h.Reset()
	return cols
}

// FlushSymbolic reports the count and resets.
func (h *Hash) FlushSymbolic() int {
	n := h.count
	h.Reset()
	return n
}

// Reset clears the accumulator, retaining capacity.
func (h *Hash) Reset() {
	for _, i := range h.used {
		h.keys[i] = -1
	}
	h.used = h.used[:0]
	h.count = 0
}

// Dense is a dense-array accumulator over a fixed column range
// [0, width). It stores values in a dense array indexed by column id and
// tracks occupancy with generation stamps so Reset is O(1).
type Dense struct {
	vals    []float64
	stamp   []uint32
	gen     uint32
	touched []int32
}

// NewDense creates a dense accumulator for columns in [0, width).
func NewDense(width int) *Dense {
	return &Dense{
		vals:  make([]float64, width),
		stamp: make([]uint32, width),
		gen:   1,
	}
}

// Width reports the column range the accumulator covers.
func (d *Dense) Width() int { return len(d.vals) }

// Add accumulates val into column col.
func (d *Dense) Add(col int32, val float64) {
	if d.stamp[col] != d.gen {
		d.stamp[col] = d.gen
		d.vals[col] = val
		d.touched = append(d.touched, col)
		return
	}
	d.vals[col] += val
}

// AddSymbolic records the column without a value.
func (d *Dense) AddSymbolic(col int32) {
	if d.stamp[col] != d.gen {
		d.stamp[col] = d.gen
		d.touched = append(d.touched, col)
	}
}

// Len reports the number of distinct columns.
func (d *Dense) Len() int { return len(d.touched) }

// Flush emits the sorted (column, value) pairs and resets.
func (d *Dense) Flush(cols []int32, vals []float64) ([]int32, []float64) {
	slices.Sort(d.touched)
	for _, c := range d.touched {
		cols = append(cols, c)
		vals = append(vals, d.vals[c])
	}
	d.Reset()
	return cols, vals
}

// FlushSymbolic reports the count and resets.
func (d *Dense) FlushSymbolic() int {
	n := len(d.touched)
	d.Reset()
	return n
}

// Reset clears the accumulator in O(1) by advancing the generation.
func (d *Dense) Reset() {
	d.touched = d.touched[:0]
	d.gen++
	if d.gen == 0 { // stamp wrap-around: clear and restart
		for i := range d.stamp {
			d.stamp[i] = 0
		}
		d.gen = 1
	}
}

// packKey packs a column id and the index its value lives at into one
// sort key, so sorting keys by value sorts pairs by column.
func packKey(col, idx int32) uint64 { return uint64(uint32(col))<<32 | uint64(uint32(idx)) }

// flushKeys sorts keys and appends the (column, value) pairs they name,
// the values read from src.
func flushKeys(keys []uint64, src []float64, cols []int32, vals []float64) ([]int32, []float64) {
	sortKeys(keys)
	for _, k := range keys {
		cols = append(cols, int32(k>>32))
		vals = append(vals, src[uint32(k)])
	}
	return cols, vals
}

// sortKeys is the accumulators' pair sort — typed and allocation-free:
// insertion sort up to 24 keys, slices.Sort beyond.
func sortKeys(keys []uint64) {
	if len(keys) > 24 {
		slices.Sort(keys)
		return
	}
	for i := 1; i < len(keys); i++ {
		k, j := keys[i], i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
}

// Interface conformance checks.
var (
	_ Accumulator = (*Hash)(nil)
	_ Accumulator = (*Dense)(nil)
)
