// Package matgen generates deterministic synthetic sparse matrices.
//
// The paper evaluates on nine large SuiteSparse matrices (Table II).
// Those inputs are proprietary-scale downloads we cannot ship, so this
// package provides generators whose products exhibit the same structure
// classes:
//
//   - RMAT power-law graphs stand in for the social-network and web
//     matrices (LiveJournal, wikipedia, uk-2002): skewed degree
//     distributions and low compression ratios (flop/nnz of A² under 3).
//   - Banded and stencil matrices stand in for the regular PDE/
//     optimization matrices (stokes, nlpkkt200): uniform rows and high
//     compression ratios (4.5-10).
//
// All generators are deterministic functions of their seed.
package matgen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/csr"
)

// RMAT generates a scale-free directed graph adjacency matrix with
// 2^scale vertices and approximately edgeFactor*2^scale edges using the
// recursive R-MAT procedure with partition probabilities (a, b, c, d),
// d = 1-a-b-c. Duplicate edges are merged (values summed then reset to
// 1); self loops are kept. Typical social-network parameters are
// a=0.57, b=0.19, c=0.19.
func RMAT(scale uint, edgeFactor int, a, b, c float64, seed int64) *csr.Matrix {
	n := 1 << scale
	mat, err := csr.FromEntries(n, n, rmatEntries(scale, edgeFactor, a, b, c, seed))
	if err != nil {
		panic(fmt.Sprintf("matgen: RMAT: %v", err))
	}
	// Merged duplicates hold counts; normalize all values to 1 so the
	// adjacency is a 0/1 matrix as in graph SpGEMM workloads.
	for i := range mat.Data {
		mat.Data[i] = 1
	}
	return mat
}

// rmatEntries draws RMAT's edges as triplets in draw order, duplicates
// included.
func rmatEntries(scale uint, edgeFactor int, a, b, c float64, seed int64) []csr.Entry {
	n := 1 << scale
	m := edgeFactor * n
	rng := rand.New(rand.NewSource(seed))
	entries := make([]csr.Entry, 0, m)
	for e := 0; e < m; e++ {
		r, cc := 0, 0
		for bit := n >> 1; bit >= 1; bit >>= 1 {
			u := rng.Float64()
			switch {
			case u < a:
				// top-left quadrant
			case u < a+b:
				cc |= bit
			case u < a+b+c:
				r |= bit
			default:
				r |= bit
				cc |= bit
			}
		}
		entries = append(entries, csr.Entry{Row: int32(r), Col: int32(cc), Val: 1})
	}
	return entries
}

// ER generates an Erdős–Rényi random matrix with the given dimensions
// where each entry is present independently with probability p, values
// uniform in (-1, 1).
func ER(rows, cols int, p float64, seed int64) *csr.Matrix {
	rng := rand.New(rand.NewSource(seed))
	// Use geometric skipping so generation is O(nnz), not O(rows*cols).
	if p <= 0 {
		m, _ := csr.FromEntries(rows, cols, nil)
		return m
	}
	// Hits ascend, so the entries arrive in CSR order; the slice is
	// sized for the expected count plus a few standard deviations.
	total := int64(rows) * int64(cols)
	expect := float64(total) * min(p, 1)
	entries := make([]csr.Entry, 0, int(expect+4*math.Sqrt(expect))+16)
	for idx := nextHit(rng, -1, p); idx < total; idx = nextHit(rng, idx, p) {
		entries = append(entries, csr.Entry{
			Row: int32(idx / int64(cols)),
			Col: int32(idx % int64(cols)),
			Val: rng.Float64()*2 - 1,
		})
	}
	m, err := csr.FromEntries(rows, cols, entries)
	if err != nil {
		panic(fmt.Sprintf("matgen: ER: %v", err))
	}
	return m
}

// nextHit advances a geometric skip sequence: given the previous hit
// index, it returns the next index that is a hit under probability p.
func nextHit(rng *rand.Rand, prev int64, p float64) int64 {
	// Geometric(p) gap, at least 1.
	u := rng.Float64()
	if u <= 0 {
		u = 1e-300
	}
	gap := int64(1)
	if p < 1 {
		gap = 1 + int64(math.Log(u)/math.Log(1-p))
	}
	return prev + gap
}

// Band generates an n x n banded matrix with the given half-bandwidth:
// row i has entries in columns [i-half, i+half] clipped to range.
// Banded matrices model the regular high-compression-ratio inputs
// (nlpkkt200-like): A² of a band has compression ratio close to the
// band width.
func Band(n, half int, seed int64) *csr.Matrix {
	rng := rand.New(rand.NewSource(seed))
	span := func(i int) (lo, hi int) { return max(0, i-half), min(n-1, i+half) }
	nnz := 0
	for i := 0; i < n; i++ {
		lo, hi := span(i)
		nnz += max(0, hi-lo+1)
	}
	m := sized(n, n, nnz)
	for i := 0; i < n; i++ {
		lo, hi := span(i)
		for j := lo; j <= hi; j++ {
			v := rng.Float64() + 0.5
			if j == i {
				v += float64(2 * half) // diagonally dominant
			}
			m.ColIDs = append(m.ColIDs, int32(j))
			m.Data = append(m.Data, v)
		}
		m.RowOffsets[i+1] = int64(len(m.ColIDs))
	}
	return m
}

// Stencil2D generates the 5-point Laplacian stencil matrix on a gx x gy
// grid (n = gx*gy rows). It models the discretized-PDE inputs such as
// stokes.
func Stencil2D(gx, gy int) *csr.Matrix {
	n := gx * gy
	nnz := 0
	if n > 0 {
		nnz = 5*n - 2*gx - 2*gy // every grid edge drops one neighbour
	}
	m := sized(n, n, nnz)
	put := func(col int, v float64) {
		m.ColIDs = append(m.ColIDs, int32(col))
		m.Data = append(m.Data, v)
	}
	// Row i's neighbours in column order: above, left, itself, right,
	// below.
	for y := 0; y < gy; y++ {
		for x := 0; x < gx; x++ {
			i := y*gx + x
			if y > 0 {
				put(i-gx, -1)
			}
			if x > 0 {
				put(i-1, -1)
			}
			put(i, 4)
			if x < gx-1 {
				put(i+1, -1)
			}
			if y < gy-1 {
				put(i+gx, -1)
			}
			m.RowOffsets[i+1] = int64(len(m.ColIDs))
		}
	}
	return m
}

// BlockDiag generates a block-diagonal matrix of nblocks dense blocks of
// size bs x bs each. Dense blocks square to dense blocks, giving a
// compression ratio of about 2*bs — useful for stressing the dense
// accumulator path.
func BlockDiag(nblocks, bs int, seed int64) *csr.Matrix {
	rng := rand.New(rand.NewSource(seed))
	n := nblocks * bs
	m := sized(n, n, n*bs)
	for i := 0; i < n; i++ {
		base := i / bs * bs
		for j := base; j < base+bs; j++ {
			m.ColIDs = append(m.ColIDs, int32(j))
			m.Data = append(m.Data, rng.Float64()+0.1)
		}
		m.RowOffsets[i+1] = int64(len(m.ColIDs))
	}
	return m
}

// sized returns an empty rows x cols matrix whose id and value arrays
// have room for exactly nnz entries, for a generator that appends its
// rows in CSR order.
func sized(rows, cols, nnz int) *csr.Matrix {
	return &csr.Matrix{
		Rows:       rows,
		Cols:       cols,
		RowOffsets: make([]int64, rows+1),
		ColIDs:     make([]int32, 0, nnz),
		Data:       make([]float64, 0, nnz),
	}
}
