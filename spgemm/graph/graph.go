// Package graph implements SpGEMM-based graph algorithms: triangle
// counting and Markov clustering (MCL).
//
// Graph analytics is the second application family the paper's
// introduction motivates; its related work highlights Markov
// clustering (Selvitopi et al. [33] optimize MCL with distributed
// SpGEMM), whose expansion step is exactly the out-of-core-sized
// product M·M this repository accelerates. Both algorithms accept a
// pluggable Multiplier so they can run on any engine; the default is
// spgemm.Multiply, the cpu engine.
package graph

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/csr"
	"repro/spgemm"
)

// Multiplier computes a sparse product C = A·B.
type Multiplier func(a, b *csr.Matrix) (*csr.Matrix, error)

// checkAdjacency rejects an adjacency matrix that is not square or not
// structurally valid, before any product or walk indexes by its column
// ids.
func checkAdjacency(adj *csr.Matrix) error {
	if adj.Rows != adj.Cols {
		return fmt.Errorf("graph: adjacency must be square, got %dx%d", adj.Rows, adj.Cols)
	}
	if err := adj.Validate(); err != nil {
		return fmt.Errorf("graph: adjacency invalid: %w", err)
	}
	return nil
}

// Triangles counts the triangles of an undirected simple graph given
// its symmetric 0/1 adjacency matrix: tri = trace-free masked sum
// sum_{(i,j) in E} (A²)_ij / 6. Each triangle {i,j,k} contributes a
// 2-path i-k-j for each of its 6 ordered edge pairs.
func Triangles(adj *csr.Matrix, mult Multiplier) (int64, error) {
	if err := checkAdjacency(adj); err != nil {
		return 0, err
	}
	if mult == nil {
		mult = spgemm.Multiply
	}
	a2, err := mult(adj, adj)
	if err != nil {
		return 0, err
	}
	// Masked sum A ∘ A²: each triangle contributes one 2-path per
	// ordered edge pair.
	masked, err := csr.Hadamard(adj, a2)
	if err != nil {
		return 0, err
	}
	return int64(masked.Sum()+0.5) / 6, nil
}

// MCLOptions configures Markov clustering.
type MCLOptions struct {
	// Inflation is the inflation exponent; zero means 2.0.
	Inflation float64
	// Prune drops entries below this value after inflation; zero means
	// 1e-4.
	Prune float64
	// MaxIters bounds the iteration count; zero means 50.
	MaxIters int
	// Tol is the convergence threshold on the largest entry change;
	// zero means 1e-6.
	Tol float64
	// Multiply is the SpGEMM engine for the expansion step (M·M).
	Multiply Multiplier
}

func (o MCLOptions) withDefaults() MCLOptions {
	if o.Inflation == 0 {
		o.Inflation = 2.0
	}
	if o.Prune == 0 {
		o.Prune = 1e-4
	}
	if o.MaxIters == 0 {
		o.MaxIters = 50
	}
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
	if o.Multiply == nil {
		o.Multiply = spgemm.Multiply
	}
	return o
}

// MCLResult reports a Markov clustering.
type MCLResult struct {
	// Labels maps each vertex to its cluster id (0..NumClusters-1).
	Labels []int
	// NumClusters is the cluster count.
	NumClusters int
	// Iters is the number of expansion/inflation iterations performed.
	Iters int
}

// MCL runs Markov clustering on a graph given by its (non-negative)
// adjacency matrix. Each iteration expands (M ← M·M, the SpGEMM), then
// inflates (entrywise power + column renormalization) and prunes.
func MCL(adj *csr.Matrix, opts MCLOptions) (*MCLResult, error) {
	if err := checkAdjacency(adj); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()

	// MCL operates on column-stochastic matrices. Work with the
	// transpose convention: keep M row-stochastic over the transposed
	// graph, which is equivalent and CSR-friendly. Add self loops
	// first (standard MCL practice).
	m, err := addSelfLoops(adj.Transpose())
	if err != nil {
		return nil, err
	}
	normalizeRows(m)

	iters := 0
	for ; iters < opts.MaxIters; iters++ {
		// Expansion: the SpGEMM step.
		next, err := opts.Multiply(m, m)
		if err != nil {
			return nil, err
		}
		// Inflation + pruning + renormalization.
		inflate(next, opts.Inflation, opts.Prune)
		normalizeRows(next)
		next = next.Prune(0) // drop the explicit zeros pruning left

		if converged(m, next, opts.Tol) {
			m = next
			iters++
			break
		}
		m = next
	}

	labels, num := interpretClusters(m)
	return &MCLResult{Labels: labels, NumClusters: num, Iters: iters}, nil
}

func addSelfLoops(a *csr.Matrix) (*csr.Matrix, error) {
	var loops []csr.Entry
	for i := 0; i < a.Rows; i++ {
		loops = append(loops, csr.Entry{Row: int32(i), Col: int32(i), Val: 1})
	}
	id, err := csr.FromEntries(a.Rows, a.Cols, loops)
	if err != nil {
		return nil, err
	}
	return csr.Add(a, id)
}

func normalizeRows(m *csr.Matrix) {
	for r := 0; r < m.Rows; r++ {
		lo, hi := m.RowOffsets[r], m.RowOffsets[r+1]
		var sum float64
		for p := lo; p < hi; p++ {
			sum += m.Data[p]
		}
		if sum == 0 {
			continue
		}
		for p := lo; p < hi; p++ {
			m.Data[p] /= sum
		}
	}
}

func inflate(m *csr.Matrix, power, prune float64) {
	for i, v := range m.Data {
		m.Data[i] = math.Pow(v, power)
		if m.Data[i] < prune {
			m.Data[i] = 0
		}
	}
}

// converged reports whether the largest entrywise difference between
// two (structurally close) iterates is below tol.
func converged(a, b *csr.Matrix, tol float64) bool {
	if a.Rows != b.Rows {
		return false
	}
	for r := 0; r < a.Rows; r++ {
		ac, av := a.Row(r)
		bc, bv := b.Row(r)
		i, j := 0, 0
		for i < len(ac) || j < len(bc) {
			switch {
			case j >= len(bc) || (i < len(ac) && ac[i] < bc[j]):
				if math.Abs(av[i]) > tol {
					return false
				}
				i++
			case i >= len(ac) || bc[j] < ac[i]:
				if math.Abs(bv[j]) > tol {
					return false
				}
				j++
			default:
				if math.Abs(av[i]-bv[j]) > tol {
					return false
				}
				i++
				j++
			}
		}
	}
	return true
}

// interpretClusters extracts clusters from a converged MCL matrix. In
// the transpose convention m = Mᵀ, row j of m holds vertex j's column
// of the standard column-stochastic M, so vertex j's attractor is the
// column index of row j's largest entry; vertices sharing an attractor
// form a cluster.
func interpretClusters(m *csr.Matrix) ([]int, int) {
	n := m.Rows
	attractor := make([]int32, n)
	for j := 0; j < n; j++ {
		attractor[j] = int32(j)
		best := 0.0
		cols, vals := m.Row(j)
		for i, c := range cols {
			if vals[i] > best {
				best = vals[i]
				attractor[j] = c
			}
		}
	}
	// Union attractors transitively (attractors attract themselves).
	labels := make([]int, n)
	ids := map[int32]int{}
	for j := 0; j < n; j++ {
		root := attractor[j]
		// Bounded walk guards against attractor cycles in
		// not-fully-converged matrices.
		for steps := 0; root != attractor[root] && steps < n; steps++ {
			root = attractor[root]
		}
		id, ok := ids[root]
		if !ok {
			id = len(ids)
			ids[root] = id
		}
		labels[j] = id
	}
	return labels, len(ids)
}

// ClusterSizes returns the cluster cardinalities, largest first.
func ClusterSizes(r *MCLResult) []int {
	sizes := make([]int, r.NumClusters)
	for _, l := range r.Labels {
		sizes[l]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}
