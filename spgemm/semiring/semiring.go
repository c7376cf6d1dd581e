// Package semiring generalizes SpGEMM over arbitrary semirings, the
// GraphBLAS formulation of the paper's reference [22] ("Mathematical
// foundations of the GraphBLAS"): many graph algorithms are exactly a
// sparse matrix product in which (+, x) is replaced by another
// (monoid, operator) pair — (min, +) for shortest paths, (or, and) for
// reachability, (max, min) for bottleneck paths.
//
// C's structure does not depend on the semiring (it is the union of
// contributing positions), so it comes from speck.Analyze, the same
// symbolic pass the planner runs; the package's own code is only the
// numeric pass, which accumulates the semiring's Plus over its Times.
package semiring

import (
	"fmt"
	"math"

	"repro/internal/accum"
	"repro/internal/csr"
	"repro/internal/parallel"
	"repro/internal/speck"
)

// Semiring is an algebraic (⊕, ⊗) pair with the ⊕-identity Zero.
// Multiply treats absent entries as Zero and never stores Zero in the
// output (the standard sparse-semiring convention).
type Semiring struct {
	// Name identifies the semiring in errors and traces.
	Name string
	// Zero is the additive identity (+0 for plus-times, +Inf for
	// min-plus, ...). A column's first product is taken as it is, not
	// ⊕-ed onto Zero.
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

// multiply is Multiply on valid operands. Each worker keeps one dense
// scratch: a column's first product is assigned and every later one
// ⊕-ed onto it in (p, q) order, then the row's values are gathered
// through its ascending column ids.
func multiply(a, b *csr.Matrix, s Semiring, threads int) (*csr.Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("semiring: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if s.Plus == nil || s.Times == nil {
		return nil, fmt.Errorf("semiring: %q missing operators", s.Name)
	}
	threads = parallel.Workers(threads)
	ra := speck.Analyze(a, b, threads)
	c := &csr.Matrix{Rows: a.Rows, Cols: b.Cols, RowOffsets: ra.RowOffsets, ColIDs: ra.ColIDs,
		Data: make([]float64, len(ra.ColIDs))}
	scratch := make([]*accum.Scratch, threads)
	parallel.ForChunksW(threads, parallel.CostBounds(ra.RowFlops, threads), func(w, lo, hi int) {
		if scratch[w] == nil {
			scratch[w] = accum.GetScratch(b.Cols)
		}
		sc := scratch[w]
		for i := lo; i < hi; i++ {
			gen := sc.NextGen()
			ac, av := a.Row(i)
			for p, k := range ac {
				bc, bv := b.Row(int(k))
				for q, col := range bc {
					if x := s.Times(av[p], bv[q]); sc.Stamp[col] != gen {
						sc.Stamp[col], sc.Vals[col] = gen, x
					} else {
						sc.Vals[col] = s.Plus(sc.Vals[col], x)
					}
				}
			}
			off, end := c.RowOffsets[i], c.RowOffsets[i+1]
			for j, col := range c.ColIDs[off:end] {
				c.Data[off+int64(j)] = sc.Vals[col]
			}
		}
	})
	for _, sc := range scratch {
		if sc != nil {
			accum.PutScratch(sc)
		}
	}
	pruneZero(c, s.Zero)
	return c, nil
}

// pruneZero drops, in place, the entries that accumulated to the
// semiring's Zero (a product of Times may itself be Zero). NaN never
// equals Zero, so it is kept.
func pruneZero(c *csr.Matrix, zero float64) {
	var w, lo int64
	for i := 0; i < c.Rows; i++ {
		hi := c.RowOffsets[i+1]
		for j := lo; j < hi; j++ {
			if c.Data[j] != zero {
				c.ColIDs[w], c.Data[w] = c.ColIDs[j], c.Data[j]
				w++
			}
		}
		lo, c.RowOffsets[i+1] = hi, w
	}
	c.ColIDs, c.Data = c.ColIDs[:w], c.Data[:w]
}
