package semiring

import (
	"fmt"

	"repro/internal/csr"
)

// APSP computes all-pairs shortest path distances of a non-negative
// weighted directed graph by repeated min-plus squaring:
// D ← min(D, D ⊗ D) doubles the covered path length each iteration,
// so ⌈log2(n)⌉ products reach the fixpoint. The result stores one
// entry per reachable pair (including an explicit 0 diagonal);
// unreachable pairs are absent.
//
// threads bounds each product's parallelism (0 = GOMAXPROCS).
func APSP(adj *csr.Matrix, threads int) (*csr.Matrix, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("semiring: APSP needs a square matrix, got %dx%d", adj.Rows, adj.Cols)
	}
	if err := adj.Validate(); err != nil {
		return nil, fmt.Errorf("semiring: APSP adjacency invalid: %w", err)
	}
	n := adj.Rows
	// D0 = adj with an explicit zero diagonal. The zero diagonal makes
	// D ⊗ D include all paths of length <= 2k, not exactly 2k, and is
	// preserved by elementMin because Multiply prunes the semiring
	// zero (+Inf), never the number 0. Merging keeps the smaller weight
	// on the diagonal (0 beats any non-negative self loop).
	id := &csr.Matrix{Rows: n, Cols: n, RowOffsets: make([]int64, n+1), ColIDs: make([]int32, n), Data: make([]float64, n)}
	for i := range n {
		id.RowOffsets[i+1], id.ColIDs[i] = int64(i+1), int32(i)
	}
	d := elementMin(adj, id)

	s := MinPlus()
	for span := 1; span < n; span *= 2 {
		next, err := multiply(d, d, s, threads)
		if err != nil {
			return nil, err
		}
		// The zero diagonal already makes D⊗D monotone (paths of all
		// lengths are covered), but merging with D guards against
		// floating-point asymmetries.
		merged := elementMin(next, d)
		if csr.Equal(merged, d, 0) {
			return merged, nil // fixpoint reached early
		}
		d = merged
	}
	return d, nil
}

// elementMin merges two matrices of the same shape, taking the smaller
// value where both have an entry.
func elementMin(a, b *csr.Matrix) *csr.Matrix {
	size := max(len(a.ColIDs), len(b.ColIDs))
	m := &csr.Matrix{Rows: a.Rows, Cols: a.Cols, RowOffsets: make([]int64, a.Rows+1),
		ColIDs: make([]int32, 0, size), Data: make([]float64, 0, size)}
	emit := func(col int32, v float64) {
		m.ColIDs, m.Data = append(m.ColIDs, col), append(m.Data, v)
	}
	for r := 0; r < a.Rows; r++ {
		ac, av := a.Row(r)
		bc, bv := b.Row(r)
		i, j := 0, 0
		for i < len(ac) || j < len(bc) {
			switch {
			case j >= len(bc) || (i < len(ac) && ac[i] < bc[j]):
				emit(ac[i], av[i])
				i++
			case i >= len(ac) || bc[j] < ac[i]:
				emit(bc[j], bv[j])
				j++
			default:
				v := av[i]
				if bv[j] < v {
					v = bv[j]
				}
				emit(ac[i], v)
				i++
				j++
			}
		}
		m.RowOffsets[r+1] = int64(len(m.ColIDs))
	}
	return m
}
