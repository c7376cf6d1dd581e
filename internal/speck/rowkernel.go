package speck

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/accum"
	"repro/internal/csr"
)

// The row kernel: one definition of each half of a row of A·B, shared
// by the multi-core CPU engine (cpuspgemm), the per-chunk device
// arithmetic (SymbolicCompute, Numeric) and the whole-matrix row
// analysis (Analyze).
//
// Symbolic half (SymbolicPass): count, or emit ascending, row i's
// distinct output columns. For B panels up to bitmapTierMax columns
// every row ORs into the worker's accum.TwoLevel — segment masks when B
// was compressed (csr.Segments), column bits otherwise — whose flush
// walks touched words only: no probe, no presizing, no sort. Wider
// panels bin rows by kind to a list, CSeg or presized hash accumulator.
//
// Numeric half (NumericRows): scatter a row range's products into a
// stamped scratch in arrival order and gather them through the structure
// the symbolic half fixed. Cold and warm products are this one loop over
// one structure, hence bit-identical by construction.

const (
	// bitmapTierMax is the widest B panel whose rows all accumulate into
	// the two-level bitmap (128 KiB of words + 2 KiB of summary per
	// worker; 256 summary reads per row). Measured against the kind-binned
	// route on unclustered rows (DESIGN.md §13): rows of 1024 products win
	// 2.5-4.8x from 2^18 columns up, rows of 36 win 1.35x at 2^20 and break
	// even at 2^22, rows of 9 break even at 2^18, lose 1.25x at 2^20 and
	// 2.1x at 2^22 (the summary walk outweighs nine ORs).
	bitmapTierMax = 1 << 20
	// bitmapDirectMax is the panel width up to which a dense-class row
	// is labelled KindDense rather than KindCSeg.
	bitmapDirectMax = 1 << 16
	// csegSymbolicRatio is the minimum B segment-compression ratio at
	// which hash-class rows are labelled (and, past bitmapTierMax, run
	// on) the compressed accumulator: below it a segment rarely covers
	// more than one column, so the per-segment probe saves nothing.
	csegSymbolicRatio = 1.5
	// compressMinFlopsPerNnz gates the O(nnz(B)) segment-compression
	// pass: multiplies doing fewer than this many flops per B non-zero
	// cannot amortize building the compressed form. The pass itself is
	// one shift/OR per non-zero, and a clustered symbolic phase saves
	// roughly one probe per product (flops/2), so it breaks even near
	// flops ≈ nnz(B); 2 leaves margin for the unclustered worst case.
	compressMinFlopsPerNnz = 2
)

// Kind is a row's work-class label — the three work classes, with the
// compressed accumulator split out so the benchmark can report it
// separately. ClassStats aggregates by it; for panels wider than
// bitmapTierMax it also names the accumulator that serves the row.
type Kind uint8

const (
	KindList Kind = iota
	KindHash
	KindDense
	KindCSeg
	NumKinds
)

// KindNames lists the kinds as the benchmark reports them.
var KindNames = [NumKinds]string{"list", "hash", "dense", "cseg"}

func (k Kind) String() string { return KindNames[k] }

// RowAccumulator is what every kit accumulator provides: the shared
// accumulation contract plus the structure-only sorted flush.
type RowAccumulator interface {
	accum.Accumulator
	FlushCols(cols []int32) []int32
}

// Kit is one worker's lazily pooled accumulator set, fetched at most
// once per member and reused across every row and chunk the worker
// claims, so pool traffic does not scale with the chunk count.
type Kit struct {
	list *accum.List
	hash *accum.Hash
	cseg *accum.CSeg
	two  *accum.TwoLevel
}

// Release returns the kit's accumulators to their pools.
func (k *Kit) Release() {
	if k.list != nil {
		accum.PutList(k.list)
	}
	if k.hash != nil {
		accum.PutHash(k.hash)
	}
	if k.cseg != nil {
		accum.PutCSeg(k.cseg)
	}
	if k.two != nil {
		accum.PutTwoLevel(k.two)
	}
	*k = Kit{}
}

// Get returns the worker's accumulator for kind, sized for a row with
// at most bound distinct output columns in a width-column panel — the
// row's own bound, never a chunk-wide maximum. Its callers serve panels
// wider than bitmapTierMax, where PickKind labels no row KindDense.
func (k *Kit) Get(kind Kind, bound int64, width int) RowAccumulator {
	switch kind {
	case KindList:
		if k.list == nil {
			k.list = accum.GetList(ListClassMax)
		}
		return k.list
	case KindCSeg:
		if k.cseg == nil {
			k.cseg = accum.GetCSeg(16)
		}
		segBound := bound
		if w := int64(width+63) / 64; segBound > w {
			segBound = w
		}
		k.cseg.Grow(int(segBound))
		return k.cseg
	default:
		if k.hash == nil {
			k.hash = accum.GetHash(16)
		}
		if bound > int64(width) {
			bound = int64(width)
		}
		if bound < 16 {
			bound = 16
		}
		k.hash.Grow(int(bound))
		return k.hash
	}
}

// ExpectedDistinct is the balls-in-bins collision correction: throwing
// `products` candidate columns uniformly at `width` slots yields
// width*(1-(1-1/width)^products) expected distinct columns. Skewed
// column distributions produce fewer distinct columns than uniform
// ones, so the uniform assumption errs toward over-allocation — the
// safe direction. Clamped to [1, min(products, width)].
func ExpectedDistinct(width, products int64) int64 {
	if width <= 0 || products <= 0 {
		return 0
	}
	if width == 1 {
		return 1
	}
	w := float64(width)
	e := w * -math.Expm1(float64(products)*math.Log1p(-1/w))
	n := int64(math.Ceil(e))
	if n < 1 {
		n = 1
	}
	if n > products {
		n = products
	}
	if n > width {
		n = width
	}
	return n
}

// ListClassMax, denseClassCR and bitmapScanDiv bin rows into the three
// work classes: rows expected to stay tiny are list rows; rows whose
// flops revisit each output slot denseClassCR times (the same
// compression rule as denseCRThreshold) or whose expected output is at
// least width/bitmapScanDiv are dense rows — a bitmap's sort-free
// ascending-bit flush costs width/64 word reads, so it amortizes once
// the row holds one output per bitmapScanDiv/64 words; everything else
// (sparse rows in very wide panels) is a hash row.
const (
	// ListClassMax is the largest expected row nnz served by the list
	// accumulator.
	ListClassMax  = 24
	denseClassCR  = denseCRThreshold
	bitmapScanDiv = 256
)

// Class is a row's work class, picked from its expected output size and
// flop count. Every accumulator flushes a row's columns ascending, so
// the class choice never changes the output bits.
type Class int

const (
	// ListClass rows are small enough for a linear-scan list.
	ListClass Class = iota
	// HashClass rows are sparse in a wide panel: a presized hash table.
	HashClass
	// DenseClass rows amortize a bitmap's sort-free ascending bit scan.
	DenseClass
)

// PickClass bins one row. estNnz is the row's expected output size
// (ExpectedDistinct of its product count).
func PickClass(rowFlops, estNnz, width int64) Class {
	if estNnz <= ListClassMax {
		return ListClass
	}
	if rowFlops >= denseClassCR*estNnz || estNnz >= width/bitmapScanDiv {
		return DenseClass
	}
	return HashClass
}

// PickKind maps a row's work class to its kind, given the panel width
// and B's segment-compression ratio.
func PickKind(rowFlops, estNnz, width int64, segRatio float64) Kind {
	switch PickClass(rowFlops, estNnz, width) {
	case ListClass:
		return KindList
	case DenseClass:
		if width <= bitmapDirectMax {
			return KindDense
		}
		return KindCSeg
	default:
		if segRatio >= csegSymbolicRatio {
			return KindCSeg
		}
		return KindHash
	}
}

// SymbolicPass is the symbolic row kernel prepared for one operand
// pair: every row's kind, binned from its expected output size, and B's
// segment-compressed form when the multiply amortizes building it.
type SymbolicPass struct {
	a, b     *csr.Matrix
	rowFlops []int64
	kinds    []Kind
	segs     *csr.Segments
}

var passesBuilt atomic.Int64

// SymbolicPasses counts NewSymbolicPass calls, process-wide and monotonic
// like accum.PoolCounters; tests diff it around a run to pin that a
// plan-cache hit does no symbolic work.
func SymbolicPasses() int64 { return passesBuilt.Load() }

// NewSymbolicPass prepares the kernel from the row analysis of A·B.
func NewSymbolicPass(a, b *csr.Matrix, rowFlops []int64) *SymbolicPass {
	passesBuilt.Add(1)
	p := &SymbolicPass{a: a, b: b, rowFlops: rowFlops, kinds: make([]Kind, len(rowFlops))}
	var total int64
	for _, f := range rowFlops {
		total += f
	}
	segRatio := 1.0
	if nnzB := int64(len(b.ColIDs)); nnzB > 0 && total >= compressMinFlopsPerNnz*nnzB {
		p.segs = csr.Compress(b)
		segRatio = p.segs.Ratio()
	}
	width := int64(b.Cols)
	for i, f := range rowFlops {
		p.kinds[i] = PickKind(f, ExpectedDistinct(width, f/2), width, segRatio)
	}
	return p
}

// Kind reports row i's work-class label.
func (p *SymbolicPass) Kind(i int) Kind { return p.kinds[i] }

// loadedRow is an accumulator holding one row's distinct columns: count
// it or emit it; either resets.
type loadedRow interface {
	FlushSymbolic() int
	FlushCols(cols []int32) []int32
}

// load runs row i's symbolic accumulation on kit and returns the
// accumulator holding the row's distinct columns.
func (p *SymbolicPass) load(kit *Kit, i int) loadedRow {
	b, segs := p.b, p.segs
	ac, _ := p.a.Row(i)
	if b.Cols <= bitmapTierMax {
		if kit.two == nil {
			kit.two = accum.GetTwoLevel(b.Cols)
		}
		two := kit.two
		if segs != nil {
			for _, k := range ac {
				sids, masks := segs.Row(int(k))
				for j, sid := range sids {
					two.AddSegment(sid, masks[j])
				}
			}
		} else {
			for _, k := range ac {
				bc, _ := b.Row(int(k))
				for _, col := range bc {
					two.AddSymbolic(col)
				}
			}
		}
		return two
	}
	kind := p.kinds[i]
	acc := kit.Get(kind, p.rowFlops[i]/2, b.Cols)
	if segs != nil && kind == KindCSeg {
		cseg := kit.cseg
		for _, k := range ac {
			sids, masks := segs.Row(int(k))
			for j, sid := range sids {
				cseg.AddSegment(sid, masks[j])
			}
		}
		return acc
	}
	for _, k := range ac {
		bc, _ := b.Row(int(k))
		for _, col := range bc {
			acc.AddSymbolic(col)
		}
	}
	return acc
}

// Count returns the exact output size of row i.
func (p *SymbolicPass) Count(kit *Kit, i int) int { return p.load(kit, i).FlushSymbolic() }

// AppendCols appends row i's output column ids, ascending, to cols.
func (p *SymbolicPass) AppendCols(kit *Kit, i int, cols []int32) []int32 {
	return p.load(kit, i).FlushCols(cols)
}

// Offsets runs the count walk serially over every row and returns the
// exact output row offsets.
func (p *SymbolicPass) Offsets() []int64 {
	var kit Kit
	defer kit.Release()
	offs := make([]int64, len(p.rowFlops)+1)
	for i, f := range p.rowFlops {
		offs[i+1] = offs[i]
		if f != 0 {
			offs[i+1] += int64(p.Count(&kit, i))
		}
	}
	return offs
}

// Emit returns every row's column ids, ascending, row i's at
// [offs[i], offs[i+1]), given the offsets a count walk of the same
// operands produced: one allocation of the final size, where appending
// doubled its way there at twice the cost of count and emit together.
func (p *SymbolicPass) Emit(offs []int64) []int32 {
	var kit Kit
	defer kit.Release()
	cols := make([]int32, offs[len(p.rowFlops)])
	for i, f := range p.rowFlops {
		if f != 0 {
			p.AppendCols(&kit, i, cols[offs[i]:offs[i]:offs[i+1]])
		}
	}
	return cols
}

// StructureError reports a row whose products touch a different number
// of distinct columns than its symbolic structure holds: the operands do
// not carry the structure's pattern. No value (NaN, ±Inf, -0.0) causes it.
type StructureError struct {
	Row           int
	Touched, Want int64
}

func (e *StructureError) Error() string {
	return fmt.Sprintf("row %d touches %d distinct columns, its symbolic structure holds %d", e.Row, e.Touched, e.Want)
}

// Window is where a row range's numeric results land, addressed so that
// the product of an A row panel and a B column panel can be written in
// place into the whole matrix it is a chunk of: row i's ids and values
// are [Offs[i*Stride], Offs[i*Stride+1]) of Cols and Data, B's column 0
// is the product's column ColBase, and Cols (whole-product ids) span
// [0, Width). A product computed on its own is WholeWindow.
type Window struct {
	Offs    []int64
	Stride  int
	Cols    []int32
	Data    []float64
	ColBase int
	Width   int
}

// WholeWindow addresses all of c.
func WholeWindow(c *csr.Matrix) Window {
	return Window{Offs: c.RowOffsets, Stride: 1, Cols: c.ColIDs, Data: c.Data, Width: c.Cols}
}

// RowNnz reports the size of row i's window.
func (w Window) RowNnz(i int) int64 { return w.Offs[i*w.Stride+1] - w.Offs[i*w.Stride] }

// NumericRows is the numeric row kernel: for each row i in [lo, hi) of
// A·B, whose structure is row i of w, it scatters the products into s
// (covering w.Width columns, B's at w.ColBase) in arrival order —
// generation stamps assign on first touch, so a lone -0.0 product stays
// -0.0 — and gathers the row's values through its column ids. A row
// whose first-touch count is not its structure's size stops the range
// with a *StructureError.
//
// The window is read through the pointer once per row, after the
// scatter, into locals for the gather loop — both measured: with its
// slices live across the scatter (passed by value) the inner loop
// reloads the stamp pointer per product (band_wide warm +6 %), and a
// gather indexing through *csr.Matrix replayed short rows 20 % slower.
func NumericRows(a, b *csr.Matrix, w *Window, s *accum.Scratch, lo, hi int) error {
	vals, stamp := s.Vals[w.ColBase:], s.Stamp[w.ColBase:]
	for i := lo; i < hi; i++ {
		gen := s.NextGen()
		var touched int64
		ac, av := a.Row(i)
		for p, k := range ac {
			bc, bv := b.Row(int(k))
			bv = bv[:len(bc)]
			x := av[p]
			for q, col := range bc {
				if stamp[col] != gen {
					stamp[col] = gen
					vals[col] = x * bv[q]
					touched++
				} else {
					vals[col] += x * bv[q]
				}
			}
		}
		at := i * w.Stride
		off, end := w.Offs[at], w.Offs[at+1]
		if touched != end-off {
			return &StructureError{Row: i, Touched: touched, Want: end - off}
		}
		out, cols, all := w.Data[off:end], w.Cols[off:end], s.Vals
		for j, col := range cols {
			out[j] = all[col]
		}
	}
	return nil
}

// RowAnalysis is the whole-matrix, values-independent analysis of A·B:
// per-row flops and the exact output row offsets, hence the flop split
// by accumulator kind and the output size. The planner sizes the chunk
// grid from it and the hybrid engines' host cost model prices the CPU
// worker from it, so a run computes it once and hands it on (and a plan
// cache keeps it with the pattern's plan).
type RowAnalysis struct {
	RowFlops, RowOffsets  []int64
	HashFlops, DenseFlops int64
}

// OutNnz reports the exact non-zero count of A·B.
func (r *RowAnalysis) OutNnz() int64 { return r.RowOffsets[len(r.RowOffsets)-1] }

// Bytes reports the memory the analysis retains, for cache accounting.
func (r *RowAnalysis) Bytes() int64 { return int64(len(r.RowFlops)+len(r.RowOffsets)) * 8 }

// Analyze runs the whole-matrix symbolic pass behind RowAnalysis.
func Analyze(a, b *csr.Matrix) *RowAnalysis {
	r := &RowAnalysis{RowFlops: csr.RowFlops(a, b)}
	r.RowOffsets = NewSymbolicPass(a, b, r.RowFlops).Offsets()
	r.HashFlops, r.DenseFlops = SplitFlops(r.RowFlops, r.RowOffsets)
	return r
}

// denseRow is the compression-ratio rule: a row is assigned to a
// dense-accumulation numeric kernel when its flops are at least
// denseCRThreshold times its output size.
func denseRow(flops, nnz int64) bool { return nnz > 0 && flops >= denseCRThreshold*nnz }

// SplitFlops splits per-row flops into the hash-row and dense-row
// shares under the rule the kernels group by, given the exact output
// row offsets, so other cost models (the hybrid engine's CPU model) see
// the same structure.
func SplitFlops(rowFlops, rowOffsets []int64) (hashFlops, denseFlops int64) {
	for i, f := range rowFlops {
		if denseRow(f, rowOffsets[i+1]-rowOffsets[i]) {
			denseFlops += f
		} else {
			hashFlops += f
		}
	}
	return hashFlops, denseFlops
}
