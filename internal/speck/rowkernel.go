package speck

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/accum"
	"repro/internal/csr"
	"repro/internal/parallel"
)

// The row kernel: one definition of each half of a row of A·B, shared
// by the multi-core CPU engine (cpuspgemm), the per-chunk device
// arithmetic (SymbolicCompute, Numeric) and the whole-matrix row
// analysis (Analyze), and both halves in one walk (Kit.ComputeRow).
//
// Symbolic half (SymbolicPass): count, or emit ascending, row i's
// distinct output columns. A row ORs into the worker's accum.TwoLevel —
// segment masks when B was compressed (csr.Segments), column bits
// otherwise — whose flush walks touched words only: no probe, no
// presizing, no sort; past the bitmap tier a short row of scattered
// columns takes accum.Hash instead (routeOf, the one rule of both halves).
//
// Numeric half (NumericRows): scatter a row range's products into a
// stamped scratch in arrival order and gather them through the structure
// the symbolic half fixed — or, for four block rows sharing their A row
// and a block of B rows, column by column in registers.
// ComputeRow, the cold CPU product's row, sums in the same order: bit for
// bit but NaN payloads (§13); ComputeGroups, its block groups, runs the
// replay's own register body on them.

const (
	// bitmapTierMax is the widest B panel every row of which accumulates
	// into the two-level bitmap (128 KiB of words + 2 KiB of summary per
	// worker; 256 summary reads per row); past it routeOf may pick the
	// hash (DESIGN.md §13).
	bitmapTierMax = 1 << 20
	// bitmapDirectMax is the panel width up to which a dense-class row
	// is labelled KindDense rather than KindCSeg.
	bitmapDirectMax = 1 << 16
	// csegSymbolicRatio is the minimum B segment-compression ratio at
	// which hash-class rows are labelled KindCSeg: below it a segment
	// rarely covers more than one column.
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
// separately. ClassStats aggregates by it; it names no accumulator
// (routeOf picks those).
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

// Kit is one worker's lazily pooled accumulator set, fetched at most
// once per member and reused across every row and chunk the worker
// claims, so pool traffic does not scale with the chunk count.
type Kit struct {
	hash *accum.Hash
	two  *accum.TwoLevel
	grp  *groupScratch
}

// Release returns the kit's accumulators to their pools.
func (k *Kit) Release() {
	if k.hash != nil {
		accum.PutHash(k.hash)
	}
	if k.two != nil {
		accum.PutTwoLevel(k.two)
	}
	if k.grp != nil {
		groupScratches.Put(k.grp)
	}
	*k = Kit{}
}

// hashFor returns the kit's hash, empty, sized for bound columns.
func (k *Kit) hashFor(bound int64) *accum.Hash {
	if k.hash == nil {
		k.hash = accum.GetHash(16)
	}
	k.hash.Grow(int(bound))
	return k.hash
}

// bitmap returns the kit's two-level bitmap over a width-column B.
func (k *Kit) bitmap(width int) *accum.TwoLevel {
	if k.two == nil {
		k.two = accum.GetTwoLevel(width)
	}
	return k.two
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
	// ListClassMax is the largest expected row nnz of a list-class row.
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
// pair: B's segment-compressed form when the multiply amortizes building
// it. Kind labels a row when asked; no route reads the labels.
type SymbolicPass struct {
	a, b     *csr.Matrix
	rowFlops []int64
	segs     *csr.Segments
}

var passesBuilt atomic.Int64

// SymbolicPasses counts the symbolic passes built (NewSymbolicPass and
// Analyze), process-wide and monotonic like accum.PoolCounters; tests
// diff it around a run to pin that a plan-cache hit does no symbolic
// work.
func SymbolicPasses() int64 { return passesBuilt.Load() }

// compressPays reports whether a multiply of flops flops amortizes
// segment-compressing B (compressMinFlopsPerNnz).
func compressPays(b *csr.Matrix, flops int64) bool {
	nnzB := int64(len(b.ColIDs))
	return nnzB > 0 && flops >= compressMinFlopsPerNnz*nnzB
}

// NewSymbolicPass prepares the kernel from the row analysis of A·B.
func NewSymbolicPass(a, b *csr.Matrix, rowFlops []int64) *SymbolicPass {
	var total int64
	for _, f := range rowFlops {
		total += f
	}
	var segs *csr.Segments
	if compressPays(b, total) {
		segs = csr.Compress(b)
	}
	return newPass(a, b, rowFlops, segs)
}

// newPass prepares the kernel over B's compressed form segs, nil when
// the multiply does not compress B.
func newPass(a, b *csr.Matrix, rowFlops []int64, segs *csr.Segments) *SymbolicPass {
	passesBuilt.Add(1)
	return &SymbolicPass{a: a, b: b, rowFlops: rowFlops, segs: segs}
}

// Kind bins row i from its expected output size and B's
// segment-compression ratio: its work-class label.
func (p *SymbolicPass) Kind(i int) Kind {
	segRatio := 1.0
	if p.segs != nil {
		segRatio = p.segs.Ratio()
	}
	f, width := p.rowFlops[i], int64(p.b.Cols)
	return PickKind(f, ExpectedDistinct(width, f/2), width, segRatio)
}

// AppendCols appends row i's output column ids, ascending, to cols, from
// the accumulator routeOf picks. A row of A with one entry copies its B
// row's. It reads no values.
func (p *SymbolicPass) AppendCols(kit *Kit, i int, cols []int32) []int32 {
	b := p.b
	ac := rowIDs(p.a, i)
	if len(ac) == 1 {
		return append(cols, rowIDs(b, int(ac[0]))...)
	}
	products := p.rowFlops[i] / 2
	if r, _, _ := routeOf(b, ac, products, false); r == hashRoute {
		h := kit.hashFor(products)
		for _, k := range ac {
			for _, col := range rowIDs(b, int(k)) {
				h.AddSymbolic(col)
			}
		}
		return h.FlushCols(cols)
	}
	two := kit.bitmap(b.Cols)
	if p.segs != nil {
		for _, k := range ac {
			sids, masks := p.segs.Row(int(k))
			for j, sid := range sids {
				two.AddSegment(sid, masks[j])
			}
		}
	} else {
		for _, k := range ac {
			for _, col := range rowIDs(b, int(k)) {
				two.AddSymbolic(col)
			}
		}
	}
	return two.FlushCols(cols)
}

// rowIDs is the column ids of row r of m (csr.(*Matrix).Row without the
// values).
func rowIDs(m *csr.Matrix, r int) []int32 {
	lo, hi := m.RowOffsets[r], m.RowOffsets[r+1]
	return m.ColIDs[lo:hi:len(m.ColIDs)]
}

const (
	// windowMinProducts is the fewest products of a row on the bitmap
	// tier whose column window ComputeRow reads: below it a row pays no
	// extra B id loads.
	windowMinProducts = 64
	// windowCR is the fewest products per window word of a row on the
	// bitmap tier that takes the window route.
	windowCR = 2
	// summaryShift: past the tier, a row of width>>summaryShift products,
	// one per summary word its flush reads, keeps the whole bitmap.
	summaryShift = 12
)

// A rowRoute is the accumulator a row of A·B takes (routeOf).
type rowRoute uint8

const (
	bitmapRoute rowRoute = iota // the two-level bitmap, flushed through its summary
	windowRoute                 // the bitmap's words [w0, w1] alone
	hashRoute                   // accum.Hash, flushed by a sort
)

// routeOf picks the accumulator of a row of A·B whose B rows are ac's,
// products products in all, for the one pass (onePass, Kit.ComputeRow)
// and the symbolic walk (SymbolicPass.AppendCols) alike. It is the
// two-level bitmap, except past the tier for a row whose columns span
// more than accum.WindowMaxWords words and whose products fall short of
// width>>summaryShift: that row takes accum.Hash. The one pass adds a row
// whose columns lie in words [w0, w1], at most accum.WindowMaxWords of
// them, in that window alone: past the tier every such row, on it a row
// of windowMinProducts products or more, windowCR or more per word.
func routeOf(b *csr.Matrix, ac []int32, products int64, onePass bool) (r rowRoute, w0, w1 int) {
	wide := b.Cols > bitmapTierMax
	if !wide && (!onePass || products < windowMinProducts) {
		return bitmapRoute, 0, 0
	}
	w0, w1, nw := colWindow(b, ac)
	switch {
	case nw <= accum.WindowMaxWords && onePass && (wide || products >= windowCR*int64(nw)):
		return windowRoute, w0, w1
	case wide && nw > accum.WindowMaxWords && products < int64(b.Cols>>summaryShift):
		return hashRoute, 0, 0
	}
	return bitmapRoute, 0, 0
}

// ComputeRow is the one-phase row kernel: row i of A·B in one walk of its
// B rows, every product added beside its column in the accumulator
// routeOf picks (assigned on first touch, added in (p, q) order after, as
// NumericRows does), then one ascending flush appending (col, value) to
// cols and vals. flops is the row's flop count (csr.RowFlops). A row of A
// with one entry is a scaled copy of its B row. A window row sets no
// summary bit, adds a contiguous B row in one loop (AddRun) and flushes
// the window's words only (DESIGN.md §13). nan reports a NaN among the
// values: its payload may not be NumericRows'.
func (k *Kit) ComputeRow(a, b *csr.Matrix, i int, flops int64, cols []int32, vals []float64) (_ []int32, _ []float64, nan bool) {
	ac, av := a.Row(i)
	if len(ac) == 1 {
		bc, bv := b.Row(int(ac[0]))
		x := av[0]
		for _, v := range bv[:len(bc)] {
			y := x * v
			vals, nan = append(vals, y), nan || y != y
		}
		return append(cols, bc...), vals, nan
	}
	r, w0, w1 := routeOf(b, ac, flops/2, true)
	if r == hashRoute {
		h := k.hashFor(flops / 2)
		for p, kb := range ac {
			bc, bv := b.Row(int(kb))
			bv = bv[:len(bc)]
			x := av[p]
			for q, col := range bc {
				h.Add(col, float64(x*bv[q]))
			}
		}
		n := len(vals)
		cols, vals = h.Flush(cols, vals)
		for _, v := range vals[n:] {
			nan = nan || v != v
		}
		return cols, vals, nan
	}
	two := k.bitmap(b.Cols)
	two.GrowValues(b.Cols) // a compare, unless the kit's bitmap served symbolic rows
	if r == windowRoute {
		for p, kb := range ac {
			bc, bv := b.Row(int(kb))
			bv = bv[:len(bc)]
			x := av[p]
			if n := len(bc); n > 1 && int(bc[n-1]-bc[0]) == n-1 {
				two.AddRun(bc[0], x, bv)
				continue
			}
			for q, col := range bc {
				two.AddWindow(col, float64(x*bv[q]))
			}
		}
		return two.FlushWindow(w0, w1, cols, vals)
	}
	for p, kb := range ac {
		bc, bv := b.Row(int(kb))
		bv = bv[:len(bc)]
		x := av[p]
		for q, col := range bc {
			two.Add(col, float64(x*bv[q]))
		}
	}
	return two.FlushValues(cols, vals)
}

// colWindow bounds the columns of the B rows kb in ac to occupancy words
// [w0, w1] from each B row's first and last id (ids ascend); nw is their
// number, 0 when the rows hold no column.
func colWindow(b *csr.Matrix, ac []int32) (w0, w1, nw int) {
	lo, hi := int32(math.MaxInt32), int32(-1)
	for _, kb := range ac {
		if s, e := b.RowOffsets[kb], b.RowOffsets[kb+1]; s < e {
			lo, hi = min(lo, b.ColIDs[s]), max(hi, b.ColIDs[e-1])
		}
	}
	if hi < 0 {
		return 0, 0, 0
	}
	w0, w1 = int(lo>>6), int(hi>>6)
	return w0, w1, w1 - w0 + 1
}

// MayGroup is the cold stager's probe for Kit.ComputeGroups: whether row
// i, not one of the last GroupRows-1 rows before hi, is as long as row
// i+1 and starts at the same column. Most rows of a product that is not
// block-structured stop at it; it inlines into the stager's loop.
func MayGroup(a *csr.Matrix, i, hi int) bool {
	if i+GroupRows > hi {
		return false
	}
	offs := a.RowOffsets[i : i+3]
	o, e := offs[0], offs[1]
	return o < e && offs[2]-e == e-o && a.ColIDs[o] == a.ColIDs[e]
}

// groupScratch holds one run of Kit.ComputeGroups: its groups' spans and
// their rows' offsets into the value buffer.
type groupScratch struct {
	run  [runGroups]span
	offs [runGroups * GroupRows]int64
}

var groupScratches = sync.Pool{New: func() any { return new(groupScratch) }}

var groupsComputed atomic.Int64

// GroupsComputed counts the block groups cold products computed on the
// run body (Kit.ComputeGroups), process-wide and monotonic like
// SchedulesBuilt.
func GroupsComputed() int64 { return groupsComputed.Load() }

// ComputeGroups is ComputeRow for the run of block groups from row i: the
// groups of GroupRows rows with row i's column ids of A whose B rows are a
// block (isGroup), one after another below row hi, at most runGroups of
// them and as many as cols and vals have room for. Each group's rows get
// the block's column ids, and their values from the run body (sumRun) the
// warm replay runs, so that a block row cold and warm is one computation,
// bit for bit; nnz[r] gets row r's size. end is the row after the run, i
// where row i starts no group that fits. nan reports a group holding a
// NaN: its values and those of the groups after it are not computed, and
// the caller replays the product (NumericRows), as it does for a NaN from
// ComputeRow. Like NumericRows, it runs the body only on a run that passes
// groupRun's bounds checks, and returns an error for one that does not:
// an operand whose value array is shorter than its offsets claim.
func (k *Kit) ComputeGroups(a, b *csr.Matrix, i, hi int, nnz []int64, cols []int32, vals []float64) (end int, _ []int32, _ []float64, nan bool, err error) {
	if k.grp == nil {
		k.grp = groupScratches.Get().(*groupScratch)
	}
	run, offs := k.grp.run[:0], k.grp.offs[:0]
	n0, at := len(cols), int64(len(vals))
	room := int64(min(cap(cols)-n0, cap(vals)-len(vals)))
	var blk block
	g := i
	for ; g+GroupRows <= hi && len(run) < runGroups && isGroup(a, b, &blk, g) && GroupRows*blk.m <= room; g += GroupRows {
		ids := b.ColIDs[blk.at:][:blk.m]
		for r := range GroupRows {
			offs = append(offs, at)
			at += blk.m
			cols = append(cols, ids...)
			nnz[g+r] = blk.m
		}
		room -= GroupRows * blk.m
		run = append(run, span{lo: g - i, hi: g - i + GroupRows, at: blk.at, n: blk.n, m: blk.m})
	}
	if len(run) == 0 {
		return i, cols, vals, false, nil
	}
	// The run's rows counted from i: its multipliers' offsets are A's from
	// row i on, its windows its rows' offsets into vals.
	aOffs := a.RowOffsets[i:]
	view := csr.Matrix{RowOffsets: aOffs, Data: a.Data}
	w := Window{Offs: offs, Stride: 1, Data: vals[:at]}
	if _, ok := groupRun(&view, b, &w, run, 0, g-i); !ok {
		return i, cols[:n0], vals, false, fmt.Errorf("speck: rows %d-%d: the groups reach past the operands' value arrays", i, g)
	}
	groupsComputed.Add(int64(len(run)))
	return g, cols, w.Data, sumRun(a.Data, b.Data, w.Data, aOffs, offs, 1, run) < len(run), nil
}

// walk counts and emits every row of A·B in one walk: the rows are cut
// into flop-balanced ranges, one per worker, and each range runs on a
// Kit of its own, staging its ids in pooled fixed-size blocks
// (accum.ColBlocks; a row wider than a block gets a buffer of its own).
// offs, of length rows+1, comes back as the exact row offsets; the ids
// then move into one array of exactly their number, one copy per block.
// Every range emits what a serial walk would, so the result does not
// depend on the worker count.
func (p *SymbolicPass) walk(offs []int64, workers int) []int32 {
	workers = parallel.Workers(workers)
	bounds := flopRanges(p.rowFlops, workers)
	staged, blocks := make([][][]int32, workers), make([][]*[]int32, workers)
	parallel.Run(workers, func(w int) {
		var kit Kit
		defer kit.Release()
		var buf []int32
		for i := bounds[w]; i < bounds[w+1]; i++ {
			f := p.rowFlops[i]
			if f == 0 {
				continue
			}
			// A row holds at most one id per product and per column; the
			// bitmap's flush writes whole words past them.
			if bound := int(min(f/2, int64(p.b.Cols))) + accum.FlushSlack; cap(buf)-len(buf) < bound {
				if len(buf) > 0 {
					staged[w] = append(staged[w], buf)
				}
				if bound > accum.ColBlockLen {
					buf = make([]int32, 0, bound)
				} else {
					blk := accum.ColBlocks.Get().(*[]int32)
					blocks[w], buf = append(blocks[w], blk), (*blk)[:0]
				}
			}
			n := len(buf)
			buf = p.AppendCols(&kit, i, buf)
			offs[i+1] = int64(len(buf) - n)
		}
		staged[w] = append(staged[w], buf)
	})
	for i := 1; i < len(offs); i++ {
		offs[i] += offs[i-1]
	}
	cols := make([]int32, offs[len(offs)-1])
	parallel.Run(workers, func(w int) {
		at := offs[bounds[w]]
		for _, ids := range staged[w] {
			at += int64(copy(cols[at:], ids))
		}
		for _, blk := range blocks[w] {
			accum.ColBlocks.Put(blk)
		}
	})
	return cols
}

// flopRanges cuts rows into n ranges of about equal flops, returning
// their n+1 bounds; with more ranges than rows some are empty.
func flopRanges(rowFlops []int64, n int) []int {
	var total, acc int64
	for _, f := range rowFlops {
		total += f
	}
	bounds, k := make([]int, n+1), 1
	for i, f := range rowFlops {
		for ; k < n && acc*int64(n) >= total*int64(k); k++ {
			bounds[k] = i
		}
		acc += f
	}
	for ; k <= n; k++ {
		bounds[k] = len(rowFlops)
	}
	return bounds
}

// StructureError reports a row whose products touch another set of
// distinct columns than its symbolic structure holds — a different
// number of them, or, found in a row NumericRows computes as part of a
// group, as many (Touched == Want) but not the same ones: the operands
// do not carry the structure's pattern. No value (NaN, ±Inf, -0.0)
// causes it.
type StructureError struct {
	Row           int
	Touched, Want int64
}

func (e *StructureError) Error() string {
	if e.Touched == e.Want {
		return fmt.Sprintf("row %d touches a different set of %d columns than its symbolic structure holds", e.Row, e.Touched)
	}
	return fmt.Sprintf("row %d touches %d distinct columns, its symbolic structure holds %d", e.Row, e.Touched, e.Want)
}

// Window is where a row range's numeric results land, addressed so that
// the product of an A row panel and a B column panel can be written in
// place into the whole matrix it is a chunk of: row i's ids and values
// are [Offs[i*Stride], Offs[i*Stride+1]) of Cols and Data, B's column 0
// is the product's column ColBase, and Cols (whole-product ids) span
// [0, Width). A product computed on its own is WholeWindow.
//
// CheckSet has NumericRows check every row against its window's exact
// column set, not only its size: for a structure that may come from
// elsewhere than the operands at hand (the out-of-core engine's C, which
// the planner or a plan may hand over). It costs a stamp read per
// output, which a product replaying its own structure skips
// (stampedRows).
type Window struct {
	Offs     []int64
	Stride   int
	Cols     []int32
	Data     []float64
	ColBase  int
	Width    int
	CheckSet bool
}

// WholeWindow addresses all of c.
func WholeWindow(c *csr.Matrix) Window {
	return Window{Offs: c.RowOffsets, Stride: 1, Cols: c.ColIDs, Data: c.Data, Width: c.Cols}
}

// RowNnz reports the size of row i's window.
func (w Window) RowNnz(i int) int64 { return w.Offs[i*w.Stride+1] - w.Offs[i*w.Stride] }

// GroupRows is the size of the groups NumericRows and Kit.ComputeGroups
// compute on the run body: GroupRows consecutive rows of A with the same
// column ids whose B rows are a block (isGroup).
const GroupRows = 4

// NumericRows is the numeric row kernel: for each row i in [lo, hi) of
// A·B, whose structure is row i of w, it computes the row's values into
// w — each summed in arrival order from its first product, so a lone
// -0.0 product stays -0.0 — and stops the range with a *StructureError
// at a row whose products touch another number of distinct columns than
// its structure holds or, in a group or a CheckSet window, other
// columns. It runs sched, or, when sched is nil, a schedule it builds
// for the range.
//
// Each run of consecutive groups the range holds whole is one call of the
// run body (sumRun), which sums the groups column by column in
// registers, once groupRun has checked that every group lies inside the
// value arrays (an error if one does not). Every other row goes through
// stampedRows, and so does a group holding a NaN — the run resumes
// after it — so that a NaN's payload never
// depends on which group a chunk boundary put its row in, and — with the
// column-set check on, so that they return the *StructureError — a group
// that failed its window check and the rows of a group [lo, hi) cuts
// (DESIGN.md §13).
func NumericRows(a, b *csr.Matrix, w *Window, s *accum.Scratch, sched *Schedule, lo, hi int) error {
	if sched == nil {
		sched = schedules.Get().(*Schedule)
		defer schedules.Put(sched)
		sched.build(a, b, w, lo, hi)
	}
	spans := sched.spans
	k := sort.Search(len(spans), func(k int) bool { return spans[k].hi > lo })
	for k < len(spans) && spans[k].lo < hi {
		if sp := &spans[k]; sp.n == 0 || sp.lo < lo || sp.hi > hi {
			if err := stampedRows(a, b, w, s, max(sp.lo, lo), min(sp.hi, hi), sp.check || sp.n != 0 || w.CheckSet); err != nil {
				return err
			}
			k++
			continue
		}
		j, ok := groupRun(a, b, w, spans, k, hi)
		if !ok {
			return fmt.Errorf("speck: rows %d-%d: the schedule's groups reach past the operands' or the window's value arrays", spans[k].lo, spans[j-1].hi)
		}
		for {
			if k += sumRun(a.Data, b.Data, w.Data, a.RowOffsets, w.Offs, w.Stride, spans[k:j]); k == j {
				break
			}
			// Group k holds a NaN: the stamped body recomputes it.
			if err := stampedRows(a, b, w, s, spans[k].lo, spans[k].hi, true); err != nil {
				return err
			}
			k++
		}
	}
	return nil
}

// runGroups bounds the groups one call of the run body computes: the body
// cannot be preempted, so a long run is cut into runs of at most this
// many groups, each checked (groupRun) just before it runs.
const runGroups = 64

// groupRun returns the end j of the run of groups spans[k:j] — spans[k],
// a group, and the groups that follow it up to row hi, at most runGroups
// in all — and whether every one of them lies inside the value arrays
// the run body indexes unchecked: its multipliers, a.Data[o, o+4n) with
// o = a.RowOffsets[lo]; its block, b.Data[at, at+n·m); and its four
// windows, w.Data[w.Offs[(lo+r)·Stride]:][:m]. The offsets read here are
// the ones the body reads, each through a checked index, so a schedule
// replayed against other arrays than its own panics or fails here. Each
// bound is a difference that must not be negative — an offset, and the
// room an array has past it for its extent — so one OR of them all
// carries the sign bit of any that is. An offset and its room both lie in
// [0, 2⁶³) when they pass, so no difference wraps; the schedule's own
// fields (lo, at, n, m), fixed when it was built from a structure, are
// trusted not to overflow.
func groupRun(a, b *csr.Matrix, w *Window, spans []span, k, hi int) (j int, ok bool) {
	aOffs, wOffs, stride := a.RowOffsets, w.Offs, w.Stride
	al, bl, wl := int64(len(a.Data)), int64(len(b.Data)), int64(len(w.Data))
	var signs int64
	end := min(len(spans), k+runGroups)
	for j = k; j < end; j++ {
		sp := &spans[j]
		if sp.n == 0 || sp.hi > hi {
			break
		}
		ao, at := aOffs[sp.lo], sp.lo*stride
		o0, o1, o2, o3 := wOffs[at], wOffs[at+stride], wOffs[at+2*stride], wOffs[at+3*stride]
		aRoom, wRoom := al-GroupRows*sp.n, wl-sp.m
		signs |= aRoom | ao | (aRoom - ao) | (bl - sp.n*sp.m - sp.at) |
			wRoom | (o0 | o1 | o2 | o3) | (wRoom - o0) | (wRoom - o1) | (wRoom - o2) | (wRoom - o3)
	}
	return j, signs >= 0
}

// Schedule is NumericRows' plan of a row range, a function of the
// structures of A, B and the window alone: which rows are groups —
// GroupRows rows sharing their A row's column ids whose B rows are a
// block (consecutive, holding one set of column ids), the rows a
// block-diagonal pattern is made of — each with its block. Building it
// runs every check of the groups (nextGroup, isGroup, findBlock,
// windowsAre), NumericRows none. So a schedule may run only on operands
// with the structure arrays it was built from (csr.Identity.Of) and on
// the window's structure it was built for; it is not written once built.
type Schedule struct{ spans []span }

var schedules = sync.Pool{New: func() any { return new(Schedule) }}

// span is rows [lo, hi) of the stamped body when n is 0, with the
// column-set check when check is set, else one group over the block of n
// B rows and m columns at b.ColIDs[at:] (block).
type span struct {
	lo, hi   int
	at, n, m int64
	check    bool
}

var schedulesBuilt atomic.Int64

// SchedulesBuilt counts the schedules built, process-wide and monotonic
// like SymbolicPasses.
func SchedulesBuilt() int64 { return schedulesBuilt.Load() }

// NewSchedule builds the schedule of rows [lo, hi) of A·B into w's
// structure; w.Data is not read.
func NewSchedule(a, b *csr.Matrix, w *Window, lo, hi int) *Schedule {
	sc := new(Schedule)
	sc.build(a, b, w, lo, hi)
	return sc
}

// Bytes reports the memory the schedule retains (48 bytes a span), for
// cache accounting.
func (sc *Schedule) Bytes() int64 { return int64(cap(sc.spans)) * 48 }

func (sc *Schedule) build(a, b *csr.Matrix, w *Window, lo, hi int) {
	schedulesBuilt.Add(1)
	sc.spans = sc.spans[:0]
	var blk block
	for lo < hi {
		g := nextGroup(a, b, &blk, lo, hi)
		if lo < g {
			sc.spans = append(sc.spans, span{lo: lo, hi: g})
		}
		for ; g+GroupRows <= hi && isGroup(a, b, &blk, g); g += GroupRows {
			sp := span{lo: g, hi: g + GroupRows, at: blk.at, n: blk.n, m: blk.m}
			if !windowsAre(b.ColIDs[blk.at:blk.at+blk.m], w, g) {
				sp = span{lo: g, hi: g + GroupRows, check: true}
			}
			sc.spans = append(sc.spans, sp)
		}
		lo = g
	}
}

// stampedRows is NumericRows' body for single rows: it scatters a row's
// products into s (covering w.Width columns, B's at w.ColBase) in arrival
// order — generation stamps assign on first touch — and gathers the
// row's values through its column ids. A row whose first-touch count is
// not its window's size is a *StructureError; with checkSet, so is one
// with a window column its products did not touch (as many columns, not
// the same ones). Rows of their own skip that check: its stamp read per
// output cost the warm ladder's rungs 12-16 % (DESIGN.md §13).
//
// The window is read through the pointer once per row, after the
// scatter, into locals for the gather loop — both measured: with its
// slices live across the scatter (passed by value) the inner loop
// reloads the stamp pointer per product (band_wide warm +6 %), and a
// gather indexing through *csr.Matrix replayed short rows 20 % slower.
func stampedRows(a, b *csr.Matrix, w *Window, s *accum.Scratch, lo, hi int, checkSet bool) error {
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
					vals[col] += float64(x * bv[q])
				}
			}
		}
		at := i * w.Stride
		off, end := w.Offs[at], w.Offs[at+1]
		if touched != end-off || checkSet && !stamped(w.Cols[off:end], s.Stamp, gen) {
			return &StructureError{Row: i, Touched: touched, Want: end - off}
		}
		out, cols, all := w.Data[off:end], w.Cols[off:end], s.Vals
		for j, col := range cols {
			out[j] = all[col]
		}
	}
	return nil
}

// stamped reports whether every column in cols carries stamp gen.
func stamped(cols []int32, stamp []uint32, gen uint32) bool {
	for _, col := range cols {
		if stamp[col] != gen {
			return false
		}
	}
	return true
}

// nextGroup returns the first row in [lo, hi) that starts a group, or
// hi. A row's A row must be as long as the next one and start at the
// same column before isGroup is asked: most rows stop at that.
func nextGroup(a, b *csr.Matrix, blk *block, lo, hi int) int {
	if lo+GroupRows > hi {
		return hi
	}
	offs, ids := a.RowOffsets[:hi+1], a.ColIDs
	o, e := offs[lo], offs[lo+1]
	for g := lo; g+GroupRows <= hi; g++ {
		f := offs[g+2]
		if o < e && f-e == e-o && ids[o] == ids[e] && isGroup(a, b, blk, g) {
			return g
		}
		o, e = e, f
	}
	return hi
}

// block locates the B rows of a group: the n consecutive B rows from k0
// on, holding the same m column ids, b.ColIDs[at:at+m], so that their
// values are the n × m row-major array b.Data[at:at+n·m]. ok reports
// whether rows k0..k0+n-1 are such rows. Offsets, not slices: a slice
// stored through a *block costs a write barrier.
type block struct {
	k0, n, at, m int64
	ok           bool
}

// isGroup reports whether rows i..i+GroupRows-1 share row i's column ids
// of A and the B rows those name are a block, which it leaves in blk. The
// ids ascend strictly (csr.Validate), so they name consecutive B rows
// exactly when the last is the first plus n-1, and blk, kept from the
// last lookup, answers for every group of one block row of A.
func isGroup(a, b *csr.Matrix, blk *block, i int) bool {
	offs := a.RowOffsets
	lo, hi := offs[i], offs[i+1]
	ac := a.ColIDs[lo:hi]
	for r := i + 1; r < i+GroupRows; r++ {
		if !slices.Equal(a.ColIDs[offs[r]:offs[r+1]], ac) {
			return false
		}
	}
	n := hi - lo
	switch {
	case n == 0 || int64(ac[n-1]-ac[0]) != n-1:
		*blk = block{}
	case int64(ac[0]) != blk.k0 || n != blk.n:
		*blk = findBlock(b, int64(ac[0]), n)
	}
	return blk.ok
}

// findBlock looks up whether B rows k0..k0+n-1 are a block.
func findBlock(b *csr.Matrix, k0, n int64) block {
	blk := block{k0: k0, n: n}
	offs, ids := b.RowOffsets, b.ColIDs
	at, m := offs[k0], offs[k0+1]-offs[k0]
	cols := ids[at : at+m]
	for k := k0 + 1; k < k0+n; k++ {
		if !slices.Equal(ids[offs[k]:offs[k+1]], cols) {
			return blk
		}
	}
	blk.at, blk.m, blk.ok = at, m, true
	return blk
}

// windowsAre reports whether the windows of group i's rows are each bc,
// shifted by ColBase: the columns its products touch.
func windowsAre(bc []int32, w *Window, i int) bool {
	for r := range GroupRows {
		at := (i + r) * w.Stride
		cols := w.Cols[w.Offs[at]:w.Offs[at+1]]
		if len(cols) != len(bc) {
			return false
		}
		for q, col := range bc {
			if int(cols[q])-w.ColBase != int(col) {
				return false
			}
		}
	}
	return true
}

// runBodies are sumRun's bodies, narrowest first: a name, the CPU
// feature it needs, whether this host runs it, and the switches
// selecting it. "sse2" is the portable loop off amd64.
var runBodies = [...]struct {
	name, feature      string
	runs, avx2, avx512 bool
}{
	{"sse2", "SSE2", true, false, false},
	{"avx2", "AVX2", useAVX2, true, false},
	{"avx512", "AVX-512F", useAVX512, true, true},
}

// UseBody makes block groups run sumRun's named body — "sse2", "avx2"
// or "avx512" — in place of the widest one the host has, and returns a
// function restoring the previous choice; it fails, naming the CPU
// feature, where the host cannot run the body. Every body computes the
// same bits, so this exists for tests and benchmarks that compare them.
// It must not run while a kernel does.
func UseBody(name string) (restore func(), err error) {
	for _, b := range runBodies {
		if b.name != name {
			continue
		}
		if !b.runs {
			return nil, fmt.Errorf("speck: the %s body needs %s, which the CPU lacks", name, b.feature)
		}
		avx2, avx512 := useAVX2, useAVX512
		useAVX2, useAVX512 = b.avx2, b.avx512
		return func() { useAVX2, useAVX512 = avx2, avx512 }, nil
	}
	return nil, fmt.Errorf("speck: no block-group body %q", name)
}

// RowAnalysis is the whole-matrix, values-independent analysis of A·B:
// per-row flops and C's exact structure, hence the flop split by
// accumulator kind and the output size. The planner sizes the chunk
// grid from it, the hybrid engines' host cost model prices the CPU
// worker from it and the out-of-core engine adopts its structure as C's,
// so a run computes it once and hands it on (and a plan cache keeps it
// with the pattern's plan). Treat it as read-only.
type RowAnalysis struct {
	RowFlops, RowOffsets  []int64
	ColIDs                []int32
	HashFlops, DenseFlops int64
}

// OutNnz reports the exact non-zero count of A·B.
func (r *RowAnalysis) OutNnz() int64 { return r.RowOffsets[len(r.RowOffsets)-1] }

// Flops reports the flop count of A·B, the sum of RowFlops.
func (r *RowAnalysis) Flops() int64 {
	var n int64
	for _, f := range r.RowFlops {
		n += f
	}
	return n
}

// Bytes reports the memory the analysis retains, for cache accounting.
func (r *RowAnalysis) Bytes() int64 {
	return int64(len(r.RowFlops)+len(r.RowOffsets))*8 + int64(len(r.ColIDs))*4
}

// Analyze runs the whole-matrix symbolic pass behind RowAnalysis, one
// walk that counts and emits every row, and the flop scan before it, on
// workers goroutines (0 means GOMAXPROCS). The total flop count decides
// whether B is compressed; when it is, one of the workers compresses B
// while the others scan the row flops. It reads no values and checks
// nothing: its operands' shapes must agree (a.Cols == b.Rows) and their
// offsets and ids must be as long as their shapes say, which its callers
// check (SymbolicCompute in O(1); the engines and semiring.Multiply by
// validating their operands).
func Analyze(a, b *csr.Matrix, workers int) *RowAnalysis {
	workers = parallel.Workers(workers)
	r := &RowAnalysis{RowOffsets: make([]int64, a.Rows+1)}
	var segs *csr.Segments
	compress := compressPays(b, csr.Flops(a, b))
	if compress && workers > 1 {
		parallel.Run(2, func(w int) {
			if w == 0 {
				segs = csr.Compress(b)
			} else {
				r.RowFlops = csr.RowFlops(a, b, workers-1)
			}
		})
	} else {
		if compress {
			segs = csr.Compress(b)
		}
		r.RowFlops = csr.RowFlops(a, b, workers)
	}
	r.ColIDs = newPass(a, b, r.RowFlops, segs).walk(r.RowOffsets, workers)
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
