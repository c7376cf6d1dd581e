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
	// zero (+Inf), never the number 0.
	diag := make([]csr.Entry, n)
	for i := range diag {
		diag[i] = csr.Entry{Row: int32(i), Col: int32(i), Val: 0}
	}
	// Merge, keeping the smaller weight on the diagonal (0 beats any
	// non-negative self loop).
	d := adj.Clone()
	id, err := csr.FromEntries(n, n, diag)
	if err != nil {
		return nil, err
	}
	d, err = elementMin(d, id)
	if err != nil {
		return nil, err
	}

	s := MinPlus()
	for span := 1; span < n; span *= 2 {
		next, err := multiply(d, d, s, threads)
		if err != nil {
			return nil, err
		}
		// The zero diagonal already makes D⊗D monotone (paths of all
		// lengths are covered), but merging with D guards against
		// floating-point asymmetries.
		merged, err := elementMin(next, d)
		if err != nil {
			return nil, err
		}
		if csr.Equal(merged, d, 0) {
			return merged, nil // fixpoint reached early
		}
		d = merged
	}
	return d, nil
}

// elementMin merges two matrices taking the smaller value where both
// have an entry.
func elementMin(a, b *csr.Matrix) (*csr.Matrix, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("semiring: elementMin dimension mismatch")
	}
	var es []csr.Entry
	for r := 0; r < a.Rows; r++ {
		ac, av := a.Row(r)
		bc, bv := b.Row(r)
		i, j := 0, 0
		for i < len(ac) || j < len(bc) {
			switch {
			case j >= len(bc) || (i < len(ac) && ac[i] < bc[j]):
				es = append(es, csr.Entry{Row: int32(r), Col: ac[i], Val: av[i]})
				i++
			case i >= len(ac) || bc[j] < ac[i]:
				es = append(es, csr.Entry{Row: int32(r), Col: bc[j], Val: bv[j]})
				j++
			default:
				v := av[i]
				if bv[j] < v {
					v = bv[j]
				}
				es = append(es, csr.Entry{Row: int32(r), Col: ac[i], Val: v})
				i++
				j++
			}
		}
	}
	return csr.FromEntries(a.Rows, a.Cols, es)
}
