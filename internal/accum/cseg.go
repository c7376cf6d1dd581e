package accum

import (
	"math/bits"
	"slices"
)

// CSeg is a two-level compressed hash accumulator in the style of
// CSeg's DenseHashMap over compressed column indices: the open
// addressing table is keyed by 64-column *segment* (column id >> 6)
// and each slot holds a 64-bit occupancy mask, so one probe covers up
// to 64 columns. Two effects make it faster than the per-column Hash
// on clustered patterns:
//
//   - the symbolic phase consumes segment-compressed B rows
//     (csr.Segments) with one probe + word-OR per segment instead of
//     one probe per column, dividing the symbolic work by the
//     compression ratio;
//   - the numeric phase still touches every product, but the table has
//     one entry per distinct segment rather than per distinct column —
//     a smaller, hotter table with far fewer collisions — and values
//     land in per-segment 64-slot blocks addressed by the low bits,
//     with no per-column probe chain.
//
// Like Hash, Dense, List and Bitmap, CSeg assigns on first touch and
// accumulates in product-arrival order, and Flush walks the segments
// in ascending id order emitting set bits low-to-high — exactly the
// sorted order the others emit, so a row accumulated here is
// bit-for-bit the row any other class produces.
type CSeg struct {
	segs  []int32  // segment keys; -1 = empty slot
	masks []uint64 // 64-column occupancy mask per slot
	blks  []int32  // value-block index per slot; -1 = none allocated
	used  []int32  // occupied slot indices, insertion order
	vals  []float64
	mask  uint32 // table index mask
	nblk  int    // value blocks handed out from vals
	count int    // distinct columns (popcount over masks)

	// One-entry probe cache: products arrive in column order per B row,
	// so consecutive Adds usually hit the same segment; remembering the
	// last slot turns the common case into a single compare.
	lastSeg  int32
	lastSlot int32
}

// NewCSeg creates a compressed accumulator able to hold at least
// capacity distinct segments before growing.
func NewCSeg(capacity int) *CSeg {
	c := &CSeg{}
	c.init(capacity)
	return c
}

func (c *CSeg) init(capacity int) {
	size := 16
	for size < capacity*2 {
		size <<= 1
	}
	c.segs = make([]int32, size)
	for i := range c.segs {
		c.segs[i] = -1
	}
	c.masks = make([]uint64, size)
	c.blks = make([]int32, size)
	for i := range c.blks {
		c.blks[i] = -1
	}
	c.used = make([]int32, 0, capacity)
	c.mask = uint32(size - 1)
	c.count = 0
	c.nblk = 0
	c.lastSeg = -1
}

// Grow resizes the table so at least capacity distinct segments fit
// before rehashing. It must only be called on an empty accumulator
// (freshly constructed or after Reset), matching Hash.Grow's pool
// contract.
func (c *CSeg) Grow(capacity int) {
	need := 16
	for need < capacity*2 {
		need <<= 1
	}
	if len(c.segs) < need {
		vals := c.vals // the arena survives re-init
		c.init(capacity)
		c.vals = vals
	}
}

// slot finds the slot for seg, inserting the key if absent.
func (c *CSeg) slot(seg int32) int32 {
	if seg == c.lastSeg {
		return c.lastSlot
	}
	i := (uint32(seg) * 2654435761) & c.mask
	for {
		k := c.segs[i]
		if k == seg {
			c.lastSeg, c.lastSlot = seg, int32(i)
			return int32(i)
		}
		if k == -1 {
			c.segs[i] = seg
			c.used = append(c.used, int32(i))
			c.lastSeg, c.lastSlot = seg, int32(i)
			return int32(i)
		}
		i = (i + 1) & c.mask
	}
}

// maybeGrow rehashes once the table is half full of segments, keeping
// masks and block assignments attached to their keys.
func (c *CSeg) maybeGrow() {
	if len(c.used)*2 < len(c.segs) {
		return
	}
	oldSegs, oldMasks, oldBlks, oldUsed := c.segs, c.masks, c.blks, c.used
	count, nblk, vals := c.count, c.nblk, c.vals
	c.init(len(c.segs)) // doubles: init sizes to capacity*2
	c.vals = vals
	c.count, c.nblk = count, nblk
	for _, i := range oldUsed {
		s := c.slot(oldSegs[i])
		c.masks[s] = oldMasks[i]
		c.blks[s] = oldBlks[i]
	}
	c.lastSeg = -1
}

// block returns the base index of the slot's value block, allocating
// one from the arena on first touch.
func (c *CSeg) block(s int32) int {
	b := c.blks[s]
	if b < 0 {
		b = int32(c.nblk)
		c.nblk++
		c.blks[s] = b
		if need := c.nblk * 64; need > len(c.vals) {
			grown := make([]float64, need*2)
			copy(grown, c.vals)
			c.vals = grown
		}
	}
	return int(b) * 64
}

// Add accumulates val into column col.
func (c *CSeg) Add(col int32, val float64) {
	s := c.slot(col >> 6)
	bit := uint64(1) << uint(col&63)
	base := c.block(s)
	if c.masks[s]&bit == 0 {
		c.masks[s] |= bit
		c.count++
		c.vals[base+int(col&63)] = val
		c.maybeGrow()
		return
	}
	c.vals[base+int(col&63)] += val
}

// AddSymbolic records the column without a value.
func (c *CSeg) AddSymbolic(col int32) {
	s := c.slot(col >> 6)
	bit := uint64(1) << uint(col&63)
	if c.masks[s]&bit == 0 {
		c.masks[s] |= bit
		c.count++
		c.maybeGrow()
	}
}

// AddSegment ORs a whole 64-column occupancy mask into segment seg —
// the compressed symbolic step: one call covers every column a
// csr.Segments entry holds.
func (c *CSeg) AddSegment(seg int32, mask uint64) {
	s := c.slot(seg)
	c.count += bits.OnesCount64(mask &^ c.masks[s])
	c.masks[s] |= mask
	c.maybeGrow()
}

// Len reports the number of distinct columns.
func (c *CSeg) Len() int { return c.count }

// Flush appends the accumulated (column, value) pairs sorted by column
// and resets. Segments are sorted by id and bits walk low-to-high, so
// the emitted order matches every other accumulator class. Slots
// populated only symbolically (no value block) emit zero values, per
// the Accumulator contract ("the value written is undefined").
func (c *CSeg) Flush(cols []int32, vals []float64) ([]int32, []float64) {
	c.sortUsed()
	for _, s := range c.used {
		word := c.masks[s]
		if word == 0 {
			continue
		}
		base := int32(c.segs[s]) << 6
		blk := -1
		if c.blks[s] >= 0 {
			blk = int(c.blks[s]) * 64
		}
		for word != 0 {
			low := int32(bits.TrailingZeros64(word))
			cols = append(cols, base+low)
			if blk >= 0 {
				vals = append(vals, c.vals[blk+int(low)])
			} else {
				vals = append(vals, 0)
			}
			word &= word - 1
		}
	}
	c.Reset()
	return cols, vals
}

// sortUsed orders the occupied slots by segment id.
func (c *CSeg) sortUsed() {
	slices.SortFunc(c.used, func(x, y int32) int { return int(c.segs[x] - c.segs[y]) })
}

// FlushCols appends the distinct columns in ascending order (the
// structure-only Flush: segments sorted by id, bits low-to-high) and
// resets.
func (c *CSeg) FlushCols(cols []int32) []int32 {
	c.sortUsed()
	for _, s := range c.used {
		base := c.segs[s] << 6
		for word := c.masks[s]; word != 0; word &= word - 1 {
			cols = append(cols, base+int32(bits.TrailingZeros64(word)))
		}
	}
	c.Reset()
	return cols
}

// FlushSymbolic reports the count and resets.
func (c *CSeg) FlushSymbolic() int {
	n := c.count
	c.Reset()
	return n
}

// Reset clears the accumulator, retaining table and arena capacity.
func (c *CSeg) Reset() {
	for _, s := range c.used {
		c.segs[s] = -1
		c.masks[s] = 0
		c.blks[s] = -1
	}
	c.used = c.used[:0]
	c.count = 0
	c.nblk = 0
	c.lastSeg = -1
}

var _ Accumulator = (*CSeg)(nil)
