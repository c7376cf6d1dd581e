package accum

import (
	"sync"
	"sync/atomic"
)

// Accumulator pooling. The SpGEMM survey literature identifies per-row
// accumulator allocation churn as a recurring CPU bottleneck: a
// two-phase engine that allocates one accumulator per worker per phase
// per call rebuilds the same hash tables and bitmaps over and over.
// These pools recycle the row kernel's accumulators (speck.Kit) across
// rows, phases, Multiply calls and engines (the hybrid CPU worker
// multiplies many chunks in a row, hitting the same pooled tables each
// time). sync.Pool keeps per-P caches, so Get/Put on the hot path
// almost never contends.
//
// Accumulators returned by the Get functions are empty; the Put
// functions reset before pooling so a pooled accumulator never leaks a
// previous row.

var (
	hashPool = sync.Pool{New: func() any { poolNews.Add(1); return NewHash(16) }}
	twoPool  = sync.Pool{New: func() any { poolNews.Add(1); return &TwoLevel{} }}

	// poolGets counts Get* calls and poolNews the pool misses that fell
	// through to a fresh allocation, so the observability layer can
	// report the pool hit rate (gets - news hits). Both are process-wide
	// monotonic counters; consumers diff snapshots around a run.
	poolGets atomic.Int64
	poolNews atomic.Int64
)

// PoolCounters returns the process-wide accumulator-pool counters:
// total Get* calls and the subset that missed the pool and allocated.
func PoolCounters() (gets, news int64) {
	return poolGets.Load(), poolNews.Load()
}

// GetHash returns an empty pooled hash accumulator able to hold at
// least capacity distinct columns before growing.
func GetHash(capacity int) *Hash {
	poolGets.Add(1)
	h := hashPool.Get().(*Hash)
	h.Grow(capacity)
	return h
}

// PutHash resets h and returns it to the pool. The caller must not use
// h afterwards.
func PutHash(h *Hash) {
	h.Reset()
	hashPool.Put(h)
}

// GetTwoLevel returns an empty pooled two-level bitmap covering
// columns [0, width).
func GetTwoLevel(width int) *TwoLevel {
	poolGets.Add(1)
	t := twoPool.Get().(*TwoLevel)
	t.Grow(width)
	return t
}

// PutTwoLevel resets t and returns it to the pool.
func PutTwoLevel(t *TwoLevel) {
	t.FlushSymbolic()
	twoPool.Put(t)
}

// Grow resizes the table so at least capacity distinct columns fit
// before rehashing. It must only be called on an empty accumulator
// (freshly constructed or after Reset).
func (h *Hash) Grow(capacity int) {
	need := 16
	for need < capacity*2 {
		need <<= 1
	}
	if len(h.keys) < need {
		h.init(capacity)
	}
}

// Grow widens the accumulator to cover columns [0, width). It must
// only be called on an empty accumulator.
func (d *Dense) Grow(width int) {
	if len(d.vals) >= width {
		return
	}
	d.vals = make([]float64, width)
	d.stamp = make([]uint32, width)
	d.gen = 1
	d.touched = d.touched[:0]
}

// ColBlockLen is the capacity of a pooled staging block (256 KiB of
// column ids). The cold CPU kernel emits rows into such blocks, so a
// product of any size stages its structure without re-growing a buffer:
// a contiguous append-grown buffer cost the first large product of a
// process (empty pool) 1.4-1.6x, more than the whole phase saved.
const ColBlockLen = 1 << 16

// ColBlocks and ValBlocks pool empty staging blocks (*[]int32 and
// *[]float64 of capacity ColBlockLen): column ids, and the values the
// one-phase kernel stages beside them.
var ColBlocks, ValBlocks = blockPool[int32](), blockPool[float64]()

func blockPool[T any]() *sync.Pool {
	return &sync.Pool{New: func() any { b := make([]T, 0, ColBlockLen); return &b }}
}

// Scratch is the numeric replay's accumulator: a dense value
// array with generation stamps for assign-on-first-touch (the same
// semantics the cold accumulators have, so every float64 sum
// associates identically and the output stays bit-for-bit equal —
// without the stamps a lone -0.0 product would surface as +0.0). The
// replay loops index Vals and Stamp directly; the structure they
// gather through is already known, so no touched list is kept.
type Scratch struct {
	Vals  []float64
	Stamp []uint32
	gen   uint32
}

var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// GetScratch returns a pooled scratch covering columns [0, width).
// Stamps left by earlier users are harmless: NextGen never hands out a
// generation a live stamp can still hold.
func GetScratch(width int) *Scratch {
	s := scratchPool.Get().(*Scratch)
	if len(s.Vals) < width {
		s.Vals = make([]float64, width)
		s.Stamp = make([]uint32, width)
		s.gen = 0
	}
	return s
}

// PutScratch returns s to the pool.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// NextGen starts a new row: it advances the generation, clearing the
// stamps on wrap-around.
func (s *Scratch) NextGen() uint32 {
	s.gen++
	if s.gen == 0 {
		for i := range s.Stamp {
			s.Stamp[i] = 0
		}
		s.gen = 1
	}
	return s.gen
}
