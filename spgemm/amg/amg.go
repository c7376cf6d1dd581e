// Package amg builds algebraic-multigrid hierarchies with SpGEMM and
// solves symmetric positive-definite systems with them.
//
// AMG is the first application the paper's introduction names for
// SpGEMM: every coarse-grid operator is a Galerkin triple product
// A_c = Pᵀ·A·P, i.e. two sparse matrix-matrix multiplications. The
// package uses smoothed aggregation (strength-of-connection graph →
// greedy aggregation → Jacobi-smoothed prolongator) and accepts a
// pluggable Multiplier so the triple products can run on any engine in
// this repository — in particular the out-of-core simulated-GPU
// engine, which is how large hierarchies would be built on a real
// CPU-GPU node.
package amg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/csr"
	"repro/spgemm"
)

// Multiplier computes a sparse product C = A·B; the default is
// spgemm.Multiply, the cpu engine.
type Multiplier func(a, b *csr.Matrix) (*csr.Matrix, error)

// Options configures hierarchy construction.
type Options struct {
	// Theta is the strength-of-connection threshold: j is a strong
	// neighbor of i when |a_ij| >= Theta * sqrt(|a_ii·a_jj|).
	// Zero means 0.08.
	Theta float64
	// JacobiWeight is the prolongator-smoothing damping; zero means
	// 2/3. Negative disables smoothing (plain aggregation).
	JacobiWeight float64
	// CoarsestSize stops coarsening once a level has at most this many
	// unknowns; zero means 64.
	CoarsestSize int
	// MaxLevels bounds the hierarchy depth; zero means 12.
	MaxLevels int
	// Multiply is the SpGEMM engine for the Galerkin products; nil
	// means the multi-core CPU engine.
	Multiply Multiplier
}

func (o Options) withDefaults() Options {
	if o.Theta == 0 {
		o.Theta = 0.08
	}
	if o.JacobiWeight == 0 {
		o.JacobiWeight = 2.0 / 3.0
	}
	if o.CoarsestSize == 0 {
		o.CoarsestSize = 64
	}
	if o.MaxLevels == 0 {
		o.MaxLevels = 12
	}
	if o.Multiply == nil {
		o.Multiply = spgemm.Multiply
	}
	return o
}

// Level is one level of the hierarchy.
type Level struct {
	// A is the operator on this level.
	A *csr.Matrix
	// P and R are the prolongation and restriction operators to/from
	// the next coarser level (nil on the coarsest level).
	P, R *csr.Matrix
	// InvDiag caches 1/diag(A) for the Jacobi smoother.
	InvDiag []float64
}

// Hierarchy is a multigrid hierarchy from finest to coarsest.
type Hierarchy struct {
	Levels []Level
	opts   Options
}

// Build constructs a hierarchy for the SPD matrix a.
func Build(a *csr.Matrix, opts Options) (*Hierarchy, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("amg: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("amg: matrix invalid: %w", err)
	}
	opts = opts.withDefaults()
	h := &Hierarchy{opts: opts}
	cur := a
	for len(h.Levels) < opts.MaxLevels-1 && cur.Rows > opts.CoarsestSize {
		agg, numAgg := Aggregate(cur, opts.Theta)
		if numAgg == 0 || numAgg >= cur.Rows {
			break // coarsening stalled
		}
		p, err := Prolongator(cur, agg, numAgg, opts.JacobiWeight)
		if err != nil {
			return nil, err
		}
		r := p.Transpose()
		// Galerkin product A_c = R·(A·P): the SpGEMM workload.
		ap, err := opts.Multiply(cur, p)
		if err != nil {
			return nil, fmt.Errorf("amg: A·P on level %d: %w", len(h.Levels), err)
		}
		ac, err := opts.Multiply(r, ap)
		if err != nil {
			return nil, fmt.Errorf("amg: R·AP on level %d: %w", len(h.Levels), err)
		}
		h.Levels = append(h.Levels, Level{A: cur, P: p, R: r, InvDiag: invDiag(cur)})
		cur = ac
	}
	h.Levels = append(h.Levels, Level{A: cur, InvDiag: invDiag(cur)})
	return h, nil
}

func invDiag(a *csr.Matrix) []float64 {
	d := a.Diagonal()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v != 0 {
			inv[i] = 1 / v
		}
	}
	return inv
}

// Aggregate performs greedy standard aggregation over the strength
// graph: each unaggregated node with all strong neighbors free seeds a
// new aggregate; leftovers join a neighboring aggregate. It returns
// the aggregate id per node (-1 for isolated nodes folded into
// aggregate 0 when present) and the aggregate count.
func Aggregate(a *csr.Matrix, theta float64) ([]int32, int) {
	n := a.Rows
	diag := a.Diagonal()
	strong := func(i int, j int32, v float64) bool {
		if int(j) == i {
			return false
		}
		return math.Abs(v) >= theta*math.Sqrt(math.Abs(diag[i]*diag[j]))
	}

	agg := make([]int32, n)
	for i := range agg {
		agg[i] = -1
	}
	num := int32(0)

	// Pass 1: seed aggregates from nodes whose strong neighborhood is
	// entirely unaggregated.
	for i := 0; i < n; i++ {
		if agg[i] != -1 {
			continue
		}
		cols, vals := a.Row(i)
		free := true
		for k, j := range cols {
			if strong(i, j, vals[k]) && agg[j] != -1 {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		agg[i] = num
		for k, j := range cols {
			if strong(i, j, vals[k]) {
				agg[j] = num
			}
		}
		num++
	}

	// Pass 2: attach leftovers to a strongly connected aggregate.
	for i := 0; i < n; i++ {
		if agg[i] != -1 {
			continue
		}
		cols, vals := a.Row(i)
		for k, j := range cols {
			if strong(i, j, vals[k]) && agg[j] != -1 {
				agg[i] = agg[j]
				break
			}
		}
	}

	// Pass 3: any still-isolated node becomes its own aggregate.
	for i := 0; i < n; i++ {
		if agg[i] == -1 {
			agg[i] = num
			num++
		}
	}
	return agg, int(num)
}

// Prolongator builds the tentative piecewise-constant prolongator from
// an aggregation and smooths it with one damped-Jacobi step
// P = (I - w·D⁻¹A)·T when weight > 0.
func Prolongator(a *csr.Matrix, agg []int32, numAgg int, weight float64) (*csr.Matrix, error) {
	entries := make([]csr.Entry, 0, len(agg))
	for i, g := range agg {
		entries = append(entries, csr.Entry{Row: int32(i), Col: g, Val: 1})
	}
	t, err := csr.FromEntries(a.Rows, numAgg, entries)
	if err != nil {
		return nil, err
	}
	if weight <= 0 {
		return t, nil
	}
	// P = T - w·D⁻¹·(A·T), assembled directly to avoid an extra pass.
	at, err := spgemm.Multiply(a, t)
	if err != nil {
		return nil, err
	}
	inv := invDiag(a)
	scaled := at.Clone()
	for r := 0; r < scaled.Rows; r++ {
		lo, hi := scaled.RowOffsets[r], scaled.RowOffsets[r+1]
		for p := lo; p < hi; p++ {
			scaled.Data[p] *= -weight * inv[r]
		}
	}
	return csr.Add(t, scaled)
}

// Jacobi runs iters weighted-Jacobi smoothing steps on A x = b.
func (l *Level) Jacobi(x, b []float64, weight float64, iters int) error {
	n := l.A.Rows
	r := make([]float64, n)
	for it := 0; it < iters; it++ {
		if err := l.A.MulVec(x, r); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			x[i] += weight * l.InvDiag[i] * (b[i] - r[i])
		}
	}
	return nil
}

// VCycle performs one V-cycle on level lev for A x = b.
func (h *Hierarchy) VCycle(lev int, x, b []float64) error {
	l := &h.Levels[lev]
	if lev == len(h.Levels)-1 {
		// Coarsest: many Jacobi sweeps stand in for a direct solve.
		return l.Jacobi(x, b, 0.8, 60)
	}
	if err := l.Jacobi(x, b, 2.0/3.0, 2); err != nil {
		return err
	}
	// Residual restriction.
	n := l.A.Rows
	ax := make([]float64, n)
	if err := l.A.MulVec(x, ax); err != nil {
		return err
	}
	res := make([]float64, n)
	for i := range res {
		res[i] = b[i] - ax[i]
	}
	coarseB := make([]float64, l.R.Rows)
	if err := l.R.MulVec(res, coarseB); err != nil {
		return err
	}
	coarseX := make([]float64, l.R.Rows)
	if err := h.VCycle(lev+1, coarseX, coarseB); err != nil {
		return err
	}
	// Prolongate and correct.
	corr := make([]float64, n)
	if err := l.P.MulVec(coarseX, corr); err != nil {
		return err
	}
	for i := range corr {
		x[i] += corr[i]
	}
	return l.Jacobi(x, b, 2.0/3.0, 2)
}

// Solve runs V-cycles on A x = b until the relative residual drops
// below tol or maxCycles is reached. It returns the solution, the
// final relative residual, and the cycle count.
func (h *Hierarchy) Solve(b []float64, tol float64, maxCycles int) ([]float64, float64, int, error) {
	if len(h.Levels) == 0 {
		return nil, 0, 0, errors.New("amg: empty hierarchy")
	}
	a := h.Levels[0].A
	if len(b) != a.Rows {
		return nil, 0, 0, fmt.Errorf("amg: rhs length %d, want %d", len(b), a.Rows)
	}
	x := make([]float64, a.Rows)
	norm0 := norm2(b)
	if norm0 == 0 {
		return x, 0, 0, nil
	}
	r := make([]float64, a.Rows)
	for cycle := 1; cycle <= maxCycles; cycle++ {
		if err := h.VCycle(0, x, b); err != nil {
			return nil, 0, cycle, err
		}
		if err := a.MulVec(x, r); err != nil {
			return nil, 0, cycle, err
		}
		for i := range r {
			r[i] = b[i] - r[i]
		}
		rel := norm2(r) / norm0
		if rel < tol {
			return x, rel, cycle, nil
		}
	}
	if err := a.MulVec(x, r); err != nil {
		return nil, 0, maxCycles, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return x, norm2(r) / norm0, maxCycles, nil
}

// OperatorComplexity is the sum of all levels' nnz over the finest
// level's nnz — the standard AMG grid-quality metric.
func (h *Hierarchy) OperatorComplexity() float64 {
	if len(h.Levels) == 0 {
		return 0
	}
	var total int64
	for _, l := range h.Levels {
		total += l.A.Nnz()
	}
	return float64(total) / float64(h.Levels[0].A.Nnz())
}

func norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
