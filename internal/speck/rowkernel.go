package speck

import (
	"repro/internal/accum"
	"repro/internal/csr"
)

// The symbolic row kernel: one definition of "count (and optionally
// emit) the distinct output columns of row i of A·B on the accumulator
// that suits the row", shared by the multi-core CPU engine
// (cpuspgemm.multiplyAdaptive, one Kit per worker), the per-chunk
// device arithmetic (SymbolicCompute) and the whole-matrix row analysis
// (Analyze). Rows are binned through PickClass and each row's
// accumulator is sized from its own bound: list scans for tiny rows,
// bitmap-dense scatter for dense rows in narrow panels, the CSeg-style
// compressed segment accumulator when B's pattern clusters or the panel
// is too wide for a bitmap, and a per-row-presized hash for the sparse
// remainder. Bitmap and CSeg rows consume B in segment-compressed form
// (csr.Segments): one word-OR per segment instead of one probe per
// column. Every class flushes in ascending column order, so the
// structure is the same whichever class serves a row.

const (
	// bitmapDirectMax is the widest B panel served by the direct Bitmap
	// accumulator; beyond it the width-proportional flush scan and reset
	// stop amortizing and dense-class rows fall through to CSeg, whose
	// cost tracks touched segments instead of panel width.
	bitmapDirectMax = 1 << 16
	// csegSymbolicRatio is the minimum B segment-compression ratio at
	// which hash-class rows run their symbolic pass on the compressed
	// accumulator: below it a segment rarely covers more than one
	// column, so the per-segment probe saves nothing over the hash.
	csegSymbolicRatio = 1.5
	// csegNumericRatio is the (stricter) ratio at which hash-class rows
	// also run their numeric pass on CSeg. The numeric pass touches
	// every product regardless, so the win is only the smaller, hotter
	// segment table; it needs real clustering to beat the presized hash.
	csegNumericRatio = 4.0
	// compressMinFlopsPerNnz gates the O(nnz(B)) segment-compression
	// pass: multiplies doing fewer than this many flops per B non-zero
	// cannot amortize building the compressed form. The pass itself is
	// one shift/OR per non-zero, and a clustered symbolic phase saves
	// roughly one probe per product (flops/2), so it breaks even near
	// flops ≈ nnz(B); 2 leaves margin for the unclustered worst case.
	compressMinFlopsPerNnz = 2
)

// Kind names the accumulator actually used for a row — the three work
// classes, with the compressed accumulator split out so the benchmark
// can report it separately.
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
// once per accumulator class and reused across every row and chunk the
// worker claims — per-chunk pool traffic was one of the costs that let
// the static ablation beat the dynamic scheduler.
type Kit struct {
	list  *accum.List
	hash  *accum.Hash
	dense *accum.Bitmap
	cseg  *accum.CSeg
}

// Release returns the kit's accumulators to their pools.
func (k *Kit) Release() {
	if k.list != nil {
		accum.PutList(k.list)
	}
	if k.hash != nil {
		accum.PutHash(k.hash)
	}
	if k.dense != nil {
		accum.PutBitmap(k.dense)
	}
	if k.cseg != nil {
		accum.PutCSeg(k.cseg)
	}
	*k = Kit{}
}

// Get returns the worker's accumulator for kind, sized for a row with
// at most bound distinct output columns in a width-column panel. bound
// must be the row's own bound (upper bound in the symbolic phase, the
// exact count in the numeric phase) — never a chunk-wide maximum.
func (k *Kit) Get(kind Kind, bound int64, width int) RowAccumulator {
	switch kind {
	case KindList:
		if k.list == nil {
			k.list = accum.GetList(ListClassMax)
		}
		return k.list
	case KindDense:
		if k.dense == nil {
			k.dense = accum.GetBitmap(width)
		}
		return k.dense
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

// PickKind maps a row's work class to the kernel that serves it, given
// the panel width and B's segment-compression ratio. numeric selects
// the stricter compression threshold (see csegNumericRatio).
func PickKind(rowFlops, estNnz, width int64, segRatio float64, numeric bool) Kind {
	switch PickClass(rowFlops, estNnz, width) {
	case ListClass:
		return KindList
	case DenseClass:
		if width <= bitmapDirectMax {
			return KindDense
		}
		return KindCSeg
	default:
		gate := csegSymbolicRatio
		if numeric {
			gate = csegNumericRatio
		}
		if segRatio >= gate {
			return KindCSeg
		}
		return KindHash
	}
}

// SymbolicPass is the symbolic row kernel prepared for one operand
// pair: every row's kernel, binned from its expected output size, and
// B's segment-compressed form when the multiply amortizes building it.
type SymbolicPass struct {
	a, b     *csr.Matrix
	rowFlops []int64
	kinds    []Kind
	segs     *csr.Segments
	// SegRatio is B's segment-compression ratio (1 when B was not
	// compressed); the numeric phase re-bins rows against it.
	SegRatio float64
}

// NewSymbolicPass prepares the kernel from the row analysis of A·B.
func NewSymbolicPass(a, b *csr.Matrix, rowFlops []int64) *SymbolicPass {
	p := &SymbolicPass{a: a, b: b, rowFlops: rowFlops, kinds: make([]Kind, len(rowFlops)), SegRatio: 1}
	var total int64
	for _, f := range rowFlops {
		total += f
	}
	if nnzB := int64(len(b.ColIDs)); nnzB > 0 && total >= compressMinFlopsPerNnz*nnzB {
		p.segs = csr.Compress(b)
		p.SegRatio = p.segs.Ratio()
	}
	width := int64(b.Cols)
	for i, f := range rowFlops {
		p.kinds[i] = PickKind(f, ExpectedDistinct(width, f/2), width, p.SegRatio, false)
	}
	return p
}

// Kind reports the kernel that serves row i.
func (p *SymbolicPass) Kind(i int) Kind { return p.kinds[i] }

// load runs row i's symbolic accumulation on kit's accumulator for the
// row's kind and returns it, holding the row's distinct columns.
func (p *SymbolicPass) load(kit *Kit, i int) RowAccumulator {
	kind := p.kinds[i]
	b, segs := p.b, p.segs
	acc := kit.Get(kind, p.rowFlops[i]/2, b.Cols)
	ac, _ := p.a.Row(i)
	switch {
	case segs == nil || kind == KindList || kind == KindHash:
		for _, k := range ac {
			bc, _ := b.Row(int(k))
			for _, col := range bc {
				acc.AddSymbolic(col)
			}
		}
	case kind == KindDense:
		dense := kit.dense
		for _, k := range ac {
			sids, masks := segs.Row(int(k))
			for j, sid := range sids {
				dense.AddSegment(sid, masks[j])
			}
		}
	default:
		cseg := kit.cseg
		for _, k := range ac {
			sids, masks := segs.Row(int(k))
			for j, sid := range sids {
				cseg.AddSegment(sid, masks[j])
			}
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

// All runs the pass serially over every row and returns the exact
// output row offsets, with the column ids when emit is set.
func (p *SymbolicPass) All(emit bool) (offs []int64, cols []int32) {
	var kit Kit
	defer kit.Release()
	offs = make([]int64, len(p.rowFlops)+1)
	if emit {
		cols = make([]int32, 0, len(p.rowFlops))
	}
	for i, f := range p.rowFlops {
		offs[i+1] = offs[i]
		switch {
		case f == 0:
		case emit:
			cols = p.AppendCols(&kit, i, cols)
			offs[i+1] = int64(len(cols))
		default:
			offs[i+1] += int64(p.Count(&kit, i))
		}
	}
	return offs, cols
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
	r.RowOffsets, _ = NewSymbolicPass(a, b, r.RowFlops).All(false)
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
