package accum

// Sort is an expand-sort-compress (ESC) accumulator in the style of
// Bell et al. [7,9] (the paper's related work): intermediate products
// are appended unsorted to an expansion buffer; on Flush the buffer is
// sorted by column id and compressed by summing runs of equal columns.
// ESC needs no hash table or dense array but touches every
// intermediate product twice; it is the classic baseline the hash and
// dense accumulators are measured against.
type Sort struct {
	keys []uint64  // packKey(column, arrival index) per product
	vals []float64 // products in arrival order
	// distinct caches the Len computation between calls; -1 = dirty.
	distinct int
}

// NewSort creates an ESC accumulator with the given initial expansion
// capacity.
func NewSort(capacity int) *Sort {
	return &Sort{keys: make([]uint64, 0, capacity), vals: make([]float64, 0, capacity)}
}

// Add appends an intermediate product to the expansion buffer.
func (s *Sort) Add(col int32, val float64) {
	s.keys = append(s.keys, packKey(col, int32(len(s.vals))))
	s.vals = append(s.vals, val)
	s.distinct = -1
}

// AddSymbolic appends a column to the expansion buffer.
func (s *Sort) AddSymbolic(col int32) { s.Add(col, 0) }

// Len reports the number of distinct columns, sorting the buffer if
// needed (ESC has no cheaper way to know).
func (s *Sort) Len() int {
	if s.distinct >= 0 {
		return s.distinct
	}
	sortKeys(s.keys)
	n := 0
	for i, k := range s.keys {
		if i == 0 || k>>32 != s.keys[i-1]>>32 {
			n++
		}
	}
	s.distinct = n
	return n
}

// Flush sorts, compresses and appends the (column, value) pairs. Keys
// order by column, then arrival, so a column's products sum in arrival
// order.
func (s *Sort) Flush(cols []int32, vals []float64) ([]int32, []float64) {
	sortKeys(s.keys)
	for i := 0; i < len(s.keys); {
		c := s.keys[i] >> 32
		v := s.vals[uint32(s.keys[i])]
		for i++; i < len(s.keys) && s.keys[i]>>32 == c; i++ {
			v += s.vals[uint32(s.keys[i])]
		}
		cols = append(cols, int32(c))
		vals = append(vals, v)
	}
	s.Reset()
	return cols, vals
}

// FlushSymbolic reports the distinct-column count and resets.
func (s *Sort) FlushSymbolic() int {
	n := s.Len()
	s.Reset()
	return n
}

// Reset clears the expansion buffer, retaining capacity.
func (s *Sort) Reset() {
	s.keys = s.keys[:0]
	s.vals = s.vals[:0]
	s.distinct = 0
}

var _ Accumulator = (*Sort)(nil)
