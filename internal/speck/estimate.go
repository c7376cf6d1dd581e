package speck

import (
	"fmt"
	"math"

	"repro/internal/accum"
	"repro/internal/csr"
)

// Mode selects the symbolic strategy of a multiply. The exact mode is
// the classic two-phase pipeline (a full symbolic pass sizes the
// output before any value is accumulated); the estimate mode elides
// that pass behind a sampled output-size estimator in the style of
// Ocean (fast estimation + over-allocation + compaction), producing an
// output that is bit-for-bit identical to the exact path; auto picks
// estimation only when a multiply is large enough to amortize it.
type Mode int

const (
	// ModeExact runs the exact symbolic phase (the default; byte-stable
	// with every earlier build).
	ModeExact Mode = iota
	// ModeEstimate replaces the symbolic phase with the sampled
	// estimator wherever the row-level confidence gate allows it.
	ModeEstimate
	// ModeAuto estimates only multiplies whose flop count clears
	// EstimatorConfig.AutoFlopsMin; small products stay exact (the
	// estimator's fixed costs would dominate them).
	ModeAuto
)

func (m Mode) String() string {
	switch m {
	case ModeEstimate:
		return "estimate"
	case ModeAuto:
		return "auto"
	default:
		return "exact"
	}
}

// ParseMode parses the CLI spelling of a symbolic mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "exact":
		return ModeExact, nil
	case "estimate":
		return ModeEstimate, nil
	case "auto":
		return ModeAuto, nil
	}
	return ModeExact, fmt.Errorf("speck: unknown symbolic mode %q (want exact, estimate or auto)", s)
}

// Estimates resolves the mode against a multiply's flop count: the
// answer for ModeAuto, constant for the other two.
func (m Mode) Estimates(flops int64, cfg EstimatorConfig) bool {
	switch m {
	case ModeEstimate:
		return true
	case ModeAuto:
		return flops >= cfg.WithDefaults().AutoFlopsMin
	}
	return false
}

// EstimatorConfig tunes the sampled row-nnz estimator. The zero value
// selects the defaults; tests exercise the extremes (a negative
// SpreadGate forces every gated row onto the exact-symbolic fallback,
// a tiny Safety forces the overflow/compaction path).
type EstimatorConfig struct {
	// SampleK is how many of a row's contributing B-rows are sampled
	// (deterministic stride, no RNG — chaos runs must replay exactly).
	// 0 means 8.
	SampleK int
	// Safety multiplies the estimated row nnz into the allocated row
	// capacity. 0 means 1.5.
	Safety float64
	// SpreadGate is the per-row confidence threshold: when the largest
	// sampled B-row nnz exceeds SpreadGate x the sampled mean, the
	// row's contribution is too skewed for the uniform-scatter estimate
	// and the row falls back to exact symbolic counting. 0 means 8;
	// negative forces fallback for every sampled row.
	SpreadGate float64
	// ExactBelow short-circuits rows whose upper bound is at most this
	// many non-zeros: their capacity is the (cheap, exact) upper bound
	// itself, which can never overflow. 0 means 32; negative disables
	// the shortcut.
	ExactBelow int64
	// AutoFlopsMin is ModeAuto's threshold: multiplies below it stay
	// exact. 0 means 2 Mflops.
	AutoFlopsMin int64
}

// WithDefaults resolves zero fields to the default estimator.
func (c EstimatorConfig) WithDefaults() EstimatorConfig {
	if c.SampleK <= 0 {
		c.SampleK = 8
	}
	if c.Safety <= 0 {
		c.Safety = 1.5
	}
	if c.SpreadGate == 0 {
		c.SpreadGate = 8
	}
	if c.ExactBelow == 0 {
		c.ExactBelow = 32
	}
	if c.AutoFlopsMin <= 0 {
		c.AutoFlopsMin = 2 << 20
	}
	return c
}

// EstStats counts what the estimation path did: how many non-empty
// output rows were sized from the estimator, how many fell back to
// exact symbolic counting, and how many estimated rows overflowed
// their allocated capacity (served through the spill path; the output
// is still exact). The estimation hit rate surfaced by /metricsz is
// EstimatedRows / (EstimatedRows + FallbackRows).
type EstStats struct {
	EstimatedRows int64
	FallbackRows  int64
	OverflowRows  int64
}

// RowEstimate is the estimator's per-row output for one operand pair.
type RowEstimate struct {
	// Caps is the allocated output capacity per row: the safety-scaled
	// estimate for estimated rows, the exact upper bound for rows under
	// the ExactBelow shortcut, and 0 for fallback rows (the caller
	// fills those from an exact symbolic count).
	Caps []int64
	// Est is the estimated output nnz per row (the work-class binning
	// signal), filled for every non-empty row including fallbacks.
	Est []int64
	// Fallback marks rows the confidence gate sent to exact symbolic.
	Fallback []bool
	// EstimatedRows and FallbackRows partition the non-empty rows.
	EstimatedRows, FallbackRows int64
	// CapTotal sums Caps (fallback rows excluded until counted).
	CapTotal int64
	// EstTotal sums Est over all non-empty rows — the cheap total
	// output-size estimate the grid planner consumes.
	EstTotal int64
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

// EstimateRows runs the sampled row-nnz estimator: for each row of A
// it samples SampleK of the contributing B-rows at a deterministic
// stride, gates on the sampled nnz spread (a hub B-row in the sample
// means the uniform-scatter model is unreliable → exact fallback), and
// otherwise sizes the row from the collision-corrected estimate times
// the safety factor. ub is the exact per-row upper bound (RowFlops/2),
// which every cap is clamped to — estimation can over-allocate but
// never beyond the worst case. The scan is O(nnz(A) / stride) after
// the row-analysis pass, independent of the flop count the exact
// symbolic phase pays.
func EstimateRows(a, b *csr.Matrix, ub []int64, cfg EstimatorConfig) *RowEstimate {
	cfg = cfg.WithDefaults()
	re := &RowEstimate{
		Caps:     make([]int64, a.Rows),
		Est:      make([]int64, a.Rows),
		Fallback: make([]bool, a.Rows),
	}
	width := int64(b.Cols)
	for i := 0; i < a.Rows; i++ {
		if ub[i] == 0 {
			continue
		}
		est := ExpectedDistinct(width, ub[i])
		re.Est[i] = est
		re.EstTotal += est
		if cfg.ExactBelow >= 0 && ub[i] <= cfg.ExactBelow {
			// Small row: the exact bound is already tiny, allocate it
			// outright — cheap, and overflow-proof by construction.
			re.Caps[i] = ub[i]
			re.CapTotal += ub[i]
			re.EstimatedRows++
			continue
		}
		// Deterministic stride sample of the contributing B-row sizes.
		off, end := a.RowOffsets[i], a.RowOffsets[i+1]
		d := end - off
		stride := d / int64(cfg.SampleK)
		if stride < 1 {
			stride = 1
		}
		var sum, mx int64
		var n int64
		for p := off; p < end && n < int64(cfg.SampleK); p += stride {
			nnz := b.RowNnz(int(a.ColIDs[p]))
			sum += nnz
			if nnz > mx {
				mx = nnz
			}
			n++
		}
		mean := float64(sum) / float64(n)
		if cfg.SpreadGate < 0 || (mean > 0 && float64(mx) > cfg.SpreadGate*mean) {
			// Confidence gate: the sample saw a hub row (or the caller
			// forced the extreme) — size this row exactly.
			re.Fallback[i] = true
			re.FallbackRows++
			continue
		}
		cap := int64(math.Ceil(float64(est)*cfg.Safety)) + 8
		if cap > ub[i] {
			cap = ub[i]
		}
		if cap > width {
			cap = width
		}
		re.Caps[i] = cap
		re.CapTotal += cap
		re.EstimatedRows++
	}
	return re
}

// EstimateTotalNnz is the planner's entry point: a cheap estimate of
// nnz(A·B) from the collision-corrected per-row bounds, with no
// symbolic pass at all — O(nnz(A)) against ClassifyFlops's O(flops).
// It over-estimates skewed products (the safe direction for sizing
// chunk grids); callers that need the exact count run ClassifyFlops.
func EstimateTotalNnz(a, b *csr.Matrix, cfg EstimatorConfig) int64 {
	ub := csr.RowUpperBounds(a, b)
	width := int64(b.Cols)
	var total int64
	for i := range ub {
		total += ExpectedDistinct(width, ub[i])
	}
	_ = cfg
	return total
}

// EstimatedSymbolicFraction models the simulated device cost of the
// elided symbolic phase: sampling plus compaction in place of the full
// symbolic kernels, as a fraction of the exact symbolic duration. Only
// estimation-mode runs see it; the Symbolic cached for a pattern keeps
// exact-model durations so warm replays are mode-independent.
const EstimatedSymbolicFraction = 0.15

// ListClassMax, denseClassCR and bitmapScanDiv bin rows into the three
// work classes of the adaptive numeric phase: rows expected to stay
// tiny use the linear-scan list accumulator; rows whose flops revisit
// each output slot denseClassCR times (the same compression rule as
// denseCRThreshold) or whose estimated output is at least
// width/bitmapScanDiv use the bitmap-dense accumulator — its sort-free
// ascending-bit flush costs width/64 word reads, so it amortizes once
// the row holds one output per bitmapScanDiv/64 words; everything else
// (sparse rows in very wide panels) uses a hash table pre-sized from
// the estimate.
const (
	// ListClassMax is the largest estimated row nnz served by the list
	// accumulator.
	ListClassMax  = 24
	denseClassCR  = denseCRThreshold
	bitmapScanDiv = 256
)

// PickClass selects the accumulator work class for one row from its
// estimated output size and flop count. Every class accumulates
// same-column products in first-touch insertion order and flushes
// sorted, so the class choice never changes the output bits.
type Class int

const (
	// ListClass rows use the linear-scan list accumulator.
	ListClass Class = iota
	// HashClass rows use a hash table pre-sized from the estimate.
	HashClass
	// DenseClass rows use the bitmap-dense accumulator (sort-free
	// sorted flush via an ascending bit scan).
	DenseClass
)

// PickClass bins one row. estNnz is the row's estimated (or exactly
// counted, for fallback rows) output size.
func PickClass(rowFlops, estNnz, width int64) Class {
	if estNnz <= ListClassMax {
		return ListClass
	}
	if rowFlops >= denseClassCR*estNnz || estNnz >= width/bitmapScanDiv {
		return DenseClass
	}
	return HashClass
}

// ComputeEstimated multiplies an A row panel by a B column panel with
// the estimation-based symbolic elision: no exact symbolic phase runs
// up front; instead the sampled estimator sizes per-row buffers
// (fallback rows are counted exactly), one adaptive numeric pass
// accumulates directly into them, and the exact structure is read off
// the accumulators as a by-product. The returned product and Symbolic
// are bit-for-bit identical to Compute/SymbolicCompute — the Symbolic
// keeps exact-cost-model durations and is interchangeable in the plan
// cache — while the Result's simulated SymbolicSec shrinks to
// EstimatedSymbolicFraction of the exact kernel time.
func ComputeEstimated(a, b *csr.Matrix, cm CostModel, cfg EstimatorConfig) (*Result, *Symbolic, EstStats, error) {
	if a.Cols != b.Rows {
		return nil, nil, EstStats{}, fmt.Errorf("speck: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	cfg = cfg.WithDefaults()
	sym := &Symbolic{
		Rows:        a.Rows,
		ACols:       a.Cols,
		Cols:        b.Cols,
		RowFlops:    csr.RowFlops(a, b),
		UpperBounds: csr.RowUpperBounds(a, b),
	}
	est := EstimateRows(a, b, sym.UpperBounds, cfg)
	stats := EstStats{EstimatedRows: est.EstimatedRows, FallbackRows: est.FallbackRows}

	capTotal := est.CapTotal
	if est.FallbackRows > 0 {
		// Exact symbolic counting, but only for the gated rows.
		pass := NewSymbolicPass(a, b, sym.RowFlops)
		var kit Kit
		for r, fallback := range est.Fallback {
			if fallback {
				est.Caps[r] = int64(pass.Count(&kit, r))
				capTotal += est.Caps[r]
			}
		}
		kit.Release()
	}

	// One adaptive numeric pass: accumulate values directly, reading
	// the exact structure out of the flush. Work classes come from the
	// estimates; every class sums in first-touch insertion order, so
	// the bits match the exact path regardless of the class picked.
	width := int64(b.Cols)
	offs := make([]int64, a.Rows+1)
	colIDs := make([]int32, 0, capTotal)
	data := make([]float64, 0, capTotal)
	var hash *accum.Hash
	var dense *accum.Bitmap
	var list *accum.List
	for r := 0; r < a.Rows; r++ {
		offs[r+1] = offs[r]
		if sym.UpperBounds[r] == 0 {
			continue
		}
		estN := est.Est[r]
		if est.Fallback[r] {
			estN = est.Caps[r]
		}
		var acc accum.Accumulator
		switch PickClass(sym.RowFlops[r], estN, width) {
		case ListClass:
			if list == nil {
				list = accum.NewList(ListClassMax)
			}
			acc = list
		case DenseClass:
			if dense == nil {
				dense = accum.NewBitmap(b.Cols)
			}
			acc = dense
		default:
			if hash == nil {
				hash = accum.NewHash(16)
			}
			capi := est.Caps[r]
			if capi > width {
				capi = width
			}
			hash.Grow(int(capi))
			acc = hash
		}
		ac, av := a.Row(r)
		for p := range ac {
			bc, bv := b.Row(int(ac[p]))
			for q := range bc {
				acc.Add(bc[q], av[p]*bv[q])
			}
		}
		n := int64(acc.Len())
		if !est.Fallback[r] && n > est.Caps[r] {
			stats.OverflowRows++ // append below regrows past the estimate
		}
		offs[r+1] += n
		colIDs, data = acc.Flush(colIDs, data)
	}
	sym.ColIDs = colIDs
	finalizeSymbolic(sym, offs, b.Cols, cm)

	c := &csr.Matrix{
		Rows:       sym.Rows,
		Cols:       sym.Cols,
		RowOffsets: sym.RowOffsets,
		ColIDs:     sym.ColIDs,
		Data:       data,
	}
	res := resultFrom(sym, c)
	res.SymbolicSec *= EstimatedSymbolicFraction
	return res, sym, stats, nil
}
