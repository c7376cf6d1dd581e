// Package semiring generalizes SpGEMM over arbitrary semirings, the
// GraphBLAS formulation of the paper's reference [22] ("Mathematical
// foundations of the GraphBLAS"): many graph algorithms are exactly a
// sparse matrix product in which (+, x) is replaced by another
// (monoid, operator) pair — (min, +) for shortest paths, (or, and) for
// reachability, (max, min) for bottleneck paths.
//
// The numeric kernel follows the same two-phase Gustavson structure as
// the rest of the repository: a symbolic pass sizes the output (the
// structure of C is semiring-independent — it is the union of
// contributing positions), then a numeric pass accumulates with the
// semiring's Plus over its Times.
package semiring

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/accum"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
)

// Semiring is an algebraic (⊕, ⊗) pair with the ⊕-identity Zero.
// Multiply treats absent entries as Zero and never stores Zero in the
// output (the standard sparse-semiring convention).
type Semiring struct {
	// Name identifies the semiring in errors and traces.
	Name string
	// Zero is the additive identity (+0 for plus-times, +Inf for
	// min-plus, ...). Accumulation starts from Zero.
	Zero float64
	// Plus is the commutative, associative accumulator.
	Plus func(a, b float64) float64
	// Times combines one A entry with one B entry.
	Times func(a, b float64) float64
}

// PlusTimes is the ordinary arithmetic semiring (ℝ, +, x).
func PlusTimes() Semiring {
	return Semiring{
		Name:  "plus-times",
		Zero:  0,
		Plus:  func(a, b float64) float64 { return a + b },
		Times: func(a, b float64) float64 { return float64(a * b) },
	}
}

// MinPlus is the tropical semiring (ℝ ∪ {∞}, min, +): the product of
// adjacency matrices under min-plus relaxes shortest paths.
func MinPlus() Semiring {
	return Semiring{
		Name:  "min-plus",
		Zero:  math.Inf(1),
		Plus:  math.Min,
		Times: func(a, b float64) float64 { return a + b },
	}
}

// MaxMin is the bottleneck semiring ({0..}, max, min): path capacity.
func MaxMin() Semiring {
	return Semiring{
		Name:  "max-min",
		Zero:  math.Inf(-1),
		Plus:  math.Max,
		Times: math.Min,
	}
}

// OrAnd is the boolean semiring ({0,1}, or, and): reachability.
func OrAnd() Semiring {
	b := func(x float64) bool { return x != 0 }
	return Semiring{
		Name: "or-and",
		Zero: 0,
		Plus: func(a, x float64) float64 {
			if b(a) || b(x) {
				return 1
			}
			return 0
		},
		Times: func(a, x float64) float64 {
			if b(a) && b(x) {
				return 1
			}
			return 0
		},
	}
}

// Multiply computes C = A ⊗ B over the semiring with threads worker
// goroutines (0 = GOMAXPROCS). Entries equal to the semiring's Zero
// are dropped from the output. A structurally invalid operand is an
// error, found before any worker indexes by its column ids.
func Multiply(a, b *csr.Matrix, s Semiring, threads int) (*csr.Matrix, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("semiring: left operand invalid: %w", err)
	}
	if b != a {
		if err := b.Validate(); err != nil {
			return nil, fmt.Errorf("semiring: right operand invalid: %w", err)
		}
	}
	return multiply(a, b, s, threads)
}

// multiply is Multiply on valid operands.
func multiply(a, b *csr.Matrix, s Semiring, threads int) (*csr.Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("semiring: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if s.Plus == nil || s.Times == nil {
		return nil, fmt.Errorf("semiring: %q missing operators", s.Name)
	}
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}

	rowFlops := csr.RowFlops(a, b, threads)
	bounds := cpuspgemm.BalanceRows(rowFlops, threads)

	// Symbolic phase: output structure (semiring-independent).
	rowNnz := make([]int64, a.Rows)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			acc := accum.NewHash(64)
			for i := lo; i < hi; i++ {
				ac, _ := a.Row(i)
				for _, k := range ac {
					bc, _ := b.Row(int(k))
					for _, col := range bc {
						acc.AddSymbolic(col)
					}
				}
				rowNnz[i] = int64(acc.FlushSymbolic())
			}
		}(lo, hi)
	}
	wg.Wait()

	c := &csr.Matrix{Rows: a.Rows, Cols: b.Cols, RowOffsets: make([]int64, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		c.RowOffsets[i+1] = c.RowOffsets[i] + rowNnz[i]
	}
	nnz := c.RowOffsets[a.Rows]
	c.ColIDs = make([]int32, nnz)
	c.Data = make([]float64, nnz)

	// Numeric phase with a per-worker semiring accumulator.
	for w := 0; w < threads; w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			acc := newSemiringAccum(s)
			for i := lo; i < hi; i++ {
				ac, av := a.Row(i)
				for p := range ac {
					bc, bv := b.Row(int(ac[p]))
					for q := range bc {
						acc.add(bc[q], s.Times(av[p], bv[q]))
					}
				}
				off, end := c.RowOffsets[i], c.RowOffsets[i+1]
				acc.flush(c.ColIDs[off:off:end], c.Data[off:off:end])
			}
		}(lo, hi)
	}
	wg.Wait()

	// Drop entries that accumulated to the semiring's Zero (e.g. a
	// boolean OR of all-false operands cannot happen, but a min-plus
	// over empty support can't either — structural positions always
	// received at least one Times result; still, Times may yield Zero).
	return pruneZero(c, s.Zero), nil
}

// semiAccum is a hash accumulator with a custom Plus.
type semiAccum struct {
	s    Semiring
	idx  map[int32]int
	cols []int32
	vals []float64
}

func newSemiringAccum(s Semiring) *semiAccum {
	return &semiAccum{s: s, idx: make(map[int32]int, 64)}
}

func (h *semiAccum) add(col int32, v float64) {
	if i, ok := h.idx[col]; ok {
		h.vals[i] = h.s.Plus(h.vals[i], v)
		return
	}
	h.idx[col] = len(h.cols)
	h.cols = append(h.cols, col)
	h.vals = append(h.vals, v)
}

func (h *semiAccum) flush(cols []int32, vals []float64) {
	// Insertion sort by column (rows are modest); then emit.
	for i := 1; i < len(h.cols); i++ {
		c, v := h.cols[i], h.vals[i]
		j := i - 1
		for j >= 0 && h.cols[j] > c {
			h.cols[j+1], h.vals[j+1] = h.cols[j], h.vals[j]
			j--
		}
		h.cols[j+1], h.vals[j+1] = c, v
	}
	// The caller sized the row from the symbolic pass: write directly
	// into its backing storage.
	copy(cols[:len(h.cols)], h.cols)
	copy(vals[:len(h.vals)], h.vals)
	h.cols = h.cols[:0]
	h.vals = h.vals[:0]
	for k := range h.idx {
		delete(h.idx, k)
	}
}

// pruneZero removes entries equal to zero (NaN-safe: NaN never equals).
func pruneZero(m *csr.Matrix, zero float64) *csr.Matrix {
	needs := false
	for _, v := range m.Data {
		if v == zero {
			needs = true
			break
		}
	}
	if !needs {
		return m
	}
	out := &csr.Matrix{Rows: m.Rows, Cols: m.Cols, RowOffsets: make([]int64, m.Rows+1)}
	for r := 0; r < m.Rows; r++ {
		_, vals := m.Row(r)
		var n int64
		for _, v := range vals {
			if v != zero {
				n++
			}
		}
		out.RowOffsets[r+1] = out.RowOffsets[r] + n
	}
	out.ColIDs = make([]int32, out.RowOffsets[m.Rows])
	out.Data = make([]float64, out.RowOffsets[m.Rows])
	w := int64(0)
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for i := range cols {
			if vals[i] != zero {
				out.ColIDs[w] = cols[i]
				out.Data[w] = vals[i]
				w++
			}
		}
	}
	return out
}
