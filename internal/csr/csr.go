// Package csr implements the compressed sparse row (CSR) matrix
// representation used throughout the out-of-core SpGEMM framework.
//
// A CSR matrix stores its non-zero elements row by row in three arrays:
// RowOffsets (length Rows+1), ColIDs and Data (length Nnz). Within each
// row, column identifiers are kept sorted in increasing order, matching
// the convention of the paper (Section II-A) and of spECK/Nagasaka-style
// SpGEMM implementations that the framework builds on.
//
// Index arrays use int64 so matrices whose nnz exceeds 2^31 can be
// represented (the paper points out that MKL's int32 indices cannot
// handle its large inputs).
package csr

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/parallel"
)

// Matrix is a sparse matrix in CSR form. The zero value is an empty 0x0
// matrix ready for use.
type Matrix struct {
	// Rows and Cols are the logical dimensions of the matrix.
	Rows, Cols int
	// RowOffsets has length Rows+1. Row r occupies positions
	// RowOffsets[r]..RowOffsets[r+1] (exclusive) of ColIDs and Data.
	RowOffsets []int64
	// ColIDs holds the column identifier of each non-zero, row by row,
	// sorted in increasing order within each row.
	ColIDs []int32
	// Data holds the value of each non-zero, parallel to ColIDs.
	Data []float64
}

// Nnz reports the number of stored non-zero elements.
func (m *Matrix) Nnz() int64 {
	if len(m.RowOffsets) == 0 {
		return 0
	}
	return m.RowOffsets[len(m.RowOffsets)-1]
}

// RowNnz reports the number of stored elements in row r.
func (m *Matrix) RowNnz(r int) int64 {
	return m.RowOffsets[r+1] - m.RowOffsets[r]
}

// Row returns the column ids and values of row r as sub-slices of the
// matrix storage. The caller must not modify the returned slices' length.
func (m *Matrix) Row(r int) ([]int32, []float64) {
	lo, hi := m.RowOffsets[r], m.RowOffsets[r+1]
	return m.ColIDs[lo:hi], m.Data[lo:hi]
}

// New creates an empty matrix with the given dimensions and a zero
// row-offset array.
func New(rows, cols int) *Matrix {
	return &Matrix{
		Rows:       rows,
		Cols:       cols,
		RowOffsets: make([]int64, rows+1),
	}
}

// Entry is one coordinate-format non-zero, used when building matrices
// from triplets.
type Entry struct {
	Row, Col int32
	Val      float64
}

// FromEntries builds a CSR matrix from coordinate triplets. Duplicate
// (row, col) entries are summed. The input slice is reordered in place.
// The dominant cost — sorting the triplets — runs as a parallel merge
// sort on large inputs.
func FromEntries(rows, cols int, entries []Entry) (*Matrix, error) {
	for _, e := range entries {
		if int(e.Row) < 0 || int(e.Row) >= rows || int(e.Col) < 0 || int(e.Col) >= cols {
			return nil, fmt.Errorf("csr: entry (%d,%d) outside %dx%d matrix", e.Row, e.Col, rows, cols)
		}
	}
	sortEntries(entries)
	// Merge duplicates.
	w := 0
	for i := 0; i < len(entries); i++ {
		if w > 0 && entries[w-1].Row == entries[i].Row && entries[w-1].Col == entries[i].Col {
			entries[w-1].Val += entries[i].Val
			continue
		}
		entries[w] = entries[i]
		w++
	}
	entries = entries[:w]

	m := &Matrix{
		Rows:       rows,
		Cols:       cols,
		RowOffsets: make([]int64, rows+1),
		ColIDs:     make([]int32, len(entries)),
		Data:       make([]float64, len(entries)),
	}
	counts := make([]int64, rows)
	for _, e := range entries {
		counts[e.Row]++
	}
	parallel.PrefixSum(0, m.RowOffsets, counts)
	// The deduplicated entries are already in CSR order, so entry i
	// lands at position i; the fill is an independent per-element copy.
	parallel.For(0, len(entries), parallel.Grain(len(entries), 0), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.ColIDs[i] = entries[i].Col
			m.Data[i] = entries[i].Val
		}
	})
	return m, nil
}

// sortEntriesCutoff is the size below which the triplet sort stays
// sequential; goroutine fan-out costs more than it saves there.
const sortEntriesCutoff = 1 << 14

// sortEntries orders triplets by (row, col): a parallel merge sort for
// large slices (sorted power-of-two runs, then pairwise parallel merge
// rounds), the standard library sort otherwise.
func sortEntries(entries []Entry) {
	n := len(entries)
	workers := parallel.Workers(0)
	if workers == 1 || n < sortEntriesCutoff {
		sort.Slice(entries, func(i, j int) bool { return entryLess(entries[i], entries[j]) })
		return
	}
	runs := 1
	for runs < 2*workers {
		runs <<= 1
	}
	rb := parallel.Blocks(n, runs)
	parallel.ForChunks(workers, rb, func(lo, hi int) {
		seg := entries[lo:hi]
		sort.Slice(seg, func(i, j int) bool { return entryLess(seg[i], seg[j]) })
	})
	buf := make([]Entry, n)
	src, dst := entries, buf
	for width := 1; width < runs; width *= 2 {
		type job struct{ lo, mid, hi int }
		var jobs []job
		for k := 0; k < runs; k += 2 * width {
			mid, end := k+width, k+2*width
			if mid > runs {
				mid = runs
			}
			if end > runs {
				end = runs
			}
			jobs = append(jobs, job{rb[k], rb[mid], rb[end]})
		}
		localSrc, localDst := src, dst
		parallel.For(workers, len(jobs), 1, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				mergeEntryRuns(localDst[jobs[j].lo:jobs[j].hi], localSrc[jobs[j].lo:jobs[j].mid], localSrc[jobs[j].mid:jobs[j].hi])
			}
		})
		src, dst = dst, src
	}
	if &src[0] != &entries[0] {
		copy(entries, src)
	}
}

func entryLess(a, b Entry) bool {
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	return a.Col < b.Col
}

// mergeEntryRuns merges the two sorted runs a and b into dst, whose
// length is len(a)+len(b).
func mergeEntryRuns(dst, a, b []Entry) {
	i, j := 0, 0
	for k := range dst {
		switch {
		case i >= len(a):
			dst[k] = b[j]
			j++
		case j >= len(b) || !entryLess(b[j], a[i]):
			dst[k] = a[i]
			i++
		default:
			dst[k] = b[j]
			j++
		}
	}
}

// Validate checks the structural invariants of the CSR representation:
// monotone row offsets, in-range sorted column ids, and consistent array
// lengths. It returns a descriptive error for the first violation found.
func (m *Matrix) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("csr: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowOffsets) != m.Rows+1 {
		return fmt.Errorf("csr: RowOffsets length %d, want %d", len(m.RowOffsets), m.Rows+1)
	}
	if m.RowOffsets[0] != 0 {
		return fmt.Errorf("csr: RowOffsets[0] = %d, want 0", m.RowOffsets[0])
	}
	nnz := m.RowOffsets[m.Rows]
	if int64(len(m.ColIDs)) != nnz || int64(len(m.Data)) != nnz {
		return fmt.Errorf("csr: nnz %d but len(ColIDs)=%d len(Data)=%d", nnz, len(m.ColIDs), len(m.Data))
	}
	for r := 0; r < m.Rows; r++ {
		if m.RowOffsets[r+1] < m.RowOffsets[r] {
			return fmt.Errorf("csr: RowOffsets not monotone at row %d", r)
		}
		if m.RowOffsets[r+1] > nnz {
			return fmt.Errorf("csr: RowOffsets[%d] = %d exceeds nnz %d", r+1, m.RowOffsets[r+1], nnz)
		}
		prev := int32(-1)
		for p := m.RowOffsets[r]; p < m.RowOffsets[r+1]; p++ {
			c := m.ColIDs[p]
			if int(c) < 0 || int(c) >= m.Cols {
				return fmt.Errorf("csr: row %d has column %d outside [0,%d)", r, c, m.Cols)
			}
			if c <= prev {
				return fmt.Errorf("csr: row %d columns not strictly increasing at position %d", r, p)
			}
			prev = c
		}
	}
	return nil
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{
		Rows:       m.Rows,
		Cols:       m.Cols,
		RowOffsets: append([]int64(nil), m.RowOffsets...),
		ColIDs:     append([]int32(nil), m.ColIDs...),
		Data:       append([]float64(nil), m.Data...),
	}
	return c
}

// transposeParallelCutoff is the nnz below which Transpose stays
// sequential: the counting-sort passes are too short to win back the
// per-worker histogram setup.
const transposeParallelCutoff = 1 << 15

// Transpose returns the transpose of the matrix, also in CSR form (which
// is equivalently the CSC form of the original). Large matrices use a
// parallel counting sort: each worker histograms a block of rows, the
// per-worker column counts are scanned into disjoint write cursors, and
// the scatter runs block-parallel while preserving the row order (so
// transposed rows stay sorted). The parallel path is skipped when the
// per-worker histograms would rival the matrix itself in size.
func (m *Matrix) Transpose() *Matrix {
	workers := parallel.Workers(0)
	nnz := m.Nnz()
	if workers > 1 && nnz >= transposeParallelCutoff && int64(workers)*int64(m.Cols) <= 4*nnz {
		return m.transposeParallel(workers)
	}
	t := &Matrix{
		Rows:       m.Cols,
		Cols:       m.Rows,
		RowOffsets: make([]int64, m.Cols+1),
		ColIDs:     make([]int32, nnz),
		Data:       make([]float64, nnz),
	}
	for _, c := range m.ColIDs {
		t.RowOffsets[c+1]++
	}
	for c := 0; c < m.Cols; c++ {
		t.RowOffsets[c+1] += t.RowOffsets[c]
	}
	pos := make([]int64, m.Cols)
	copy(pos, t.RowOffsets[:m.Cols])
	for r := 0; r < m.Rows; r++ {
		for p := m.RowOffsets[r]; p < m.RowOffsets[r+1]; p++ {
			c := m.ColIDs[p]
			q := pos[c]
			t.ColIDs[q] = int32(r)
			t.Data[q] = m.Data[p]
			pos[c]++
		}
	}
	return t
}

func (m *Matrix) transposeParallel(workers int) *Matrix {
	t := &Matrix{
		Rows:       m.Cols,
		Cols:       m.Rows,
		RowOffsets: make([]int64, m.Cols+1),
		ColIDs:     make([]int32, m.Nnz()),
		Data:       make([]float64, m.Nnz()),
	}
	rb := parallel.Blocks(m.Rows, workers)
	// Phase 1: per-worker column histograms over disjoint row blocks.
	counts := make([]int64, workers*m.Cols)
	parallel.Run(workers, func(w int) {
		h := counts[w*m.Cols : (w+1)*m.Cols]
		for p := m.RowOffsets[rb[w]]; p < m.RowOffsets[rb[w+1]]; p++ {
			h[m.ColIDs[p]]++
		}
	})
	// Phase 2: column totals feed the row offsets of the transpose;
	// then each histogram cell becomes its worker's write cursor for
	// that column (an exclusive scan across workers per column).
	colTotal := make([]int64, m.Cols)
	grain := parallel.Grain(m.Cols, workers)
	parallel.For(workers, m.Cols, grain, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			var s int64
			for w := 0; w < workers; w++ {
				s += counts[w*m.Cols+c]
			}
			colTotal[c] = s
		}
	})
	parallel.PrefixSum(workers, t.RowOffsets, colTotal)
	parallel.For(workers, m.Cols, grain, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			pos := t.RowOffsets[c]
			for w := 0; w < workers; w++ {
				n := counts[w*m.Cols+c]
				counts[w*m.Cols+c] = pos
				pos += n
			}
		}
	})
	// Phase 3: scatter. Each worker walks its row block in order, so
	// within every transposed row the original row ids — its column
	// ids — appear in increasing order.
	parallel.Run(workers, func(w int) {
		pos := counts[w*m.Cols : (w+1)*m.Cols]
		for r := rb[w]; r < rb[w+1]; r++ {
			for p := m.RowOffsets[r]; p < m.RowOffsets[r+1]; p++ {
				c := m.ColIDs[p]
				q := pos[c]
				t.ColIDs[q] = int32(r)
				t.Data[q] = m.Data[p]
				pos[c] = q + 1
			}
		}
	})
	return t
}

// ExtractRows returns the row panel consisting of rows [lo, hi) as an
// independent matrix with the same number of columns. This is the
// partition_rows primitive of Algorithm 3: under CSR it is a contiguous
// copy of the three arrays. An out-of-range interval is a caller-data
// failure (panel boundaries come from user-chosen panel counts), so it
// is returned as an error rather than panicking.
func (m *Matrix) ExtractRows(lo, hi int) (*Matrix, error) {
	if lo < 0 || hi > m.Rows || lo > hi {
		return nil, fmt.Errorf("csr: ExtractRows[%d,%d) outside %d rows", lo, hi, m.Rows)
	}
	base := m.RowOffsets[lo]
	p := &Matrix{
		Rows:       hi - lo,
		Cols:       m.Cols,
		RowOffsets: make([]int64, hi-lo+1),
		ColIDs:     append([]int32(nil), m.ColIDs[base:m.RowOffsets[hi]]...),
		Data:       append([]float64(nil), m.Data[base:m.RowOffsets[hi]]...),
	}
	for r := lo; r <= hi; r++ {
		p.RowOffsets[r-lo] = m.RowOffsets[r] - base
	}
	return p, nil
}

// Equal reports whether the two matrices have identical structure and
// values equal within the absolute-or-relative tolerance tol.
func Equal(a, b *Matrix, tol float64) bool {
	return Diff(a, b, tol) == ""
}

// Diff compares two matrices and returns a human-readable description of
// the first discrepancy, or "" if they are equal within tol.
func Diff(a, b *Matrix, tol float64) string {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Sprintf("dimensions %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for r := 0; r < a.Rows; r++ {
		if a.RowNnz(r) != b.RowNnz(r) {
			return fmt.Sprintf("row %d nnz %d vs %d", r, a.RowNnz(r), b.RowNnz(r))
		}
		ac, av := a.Row(r)
		bc, bv := b.Row(r)
		for i := range ac {
			if ac[i] != bc[i] {
				return fmt.Sprintf("row %d position %d column %d vs %d", r, i, ac[i], bc[i])
			}
			d := math.Abs(av[i] - bv[i])
			if d > tol && d > tol*math.Max(math.Abs(av[i]), math.Abs(bv[i])) {
				return fmt.Sprintf("row %d col %d value %g vs %g", r, ac[i], av[i], bv[i])
			}
		}
	}
	return ""
}

// Add returns A + B for two matrices of identical dimensions.
func Add(a, b *Matrix) (*Matrix, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, errors.New("csr: Add dimension mismatch")
	}
	out := &Matrix{Rows: a.Rows, Cols: a.Cols, RowOffsets: make([]int64, a.Rows+1)}
	// Two passes: count, then fill.
	for r := 0; r < a.Rows; r++ {
		out.RowOffsets[r+1] = out.RowOffsets[r] + int64(mergedRowLen(a, b, r))
	}
	out.ColIDs = make([]int32, out.RowOffsets[a.Rows])
	out.Data = make([]float64, out.RowOffsets[a.Rows])
	for r := 0; r < a.Rows; r++ {
		ac, av := a.Row(r)
		bc, bv := b.Row(r)
		w := out.RowOffsets[r]
		i, j := 0, 0
		for i < len(ac) || j < len(bc) {
			switch {
			case j >= len(bc) || (i < len(ac) && ac[i] < bc[j]):
				out.ColIDs[w], out.Data[w] = ac[i], av[i]
				i++
			case i >= len(ac) || bc[j] < ac[i]:
				out.ColIDs[w], out.Data[w] = bc[j], bv[j]
				j++
			default:
				out.ColIDs[w], out.Data[w] = ac[i], av[i]+bv[j]
				i++
				j++
			}
			w++
		}
	}
	return out, nil
}

func mergedRowLen(a, b *Matrix, r int) int {
	ac, _ := a.Row(r)
	bc, _ := b.Row(r)
	n, i, j := 0, 0, 0
	for i < len(ac) || j < len(bc) {
		switch {
		case j >= len(bc) || (i < len(ac) && ac[i] < bc[j]):
			i++
		case i >= len(ac) || bc[j] < ac[i]:
			j++
		default:
			i++
			j++
		}
		n++
	}
	return n
}

// Scale multiplies every stored value by s, in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Bytes reports the storage footprint of the matrix in bytes using the
// framework's on-device layout: 8 bytes per row offset, 4 per column id,
// 8 per value. This is the quantity whose transfer the out-of-core
// framework schedules.
func (m *Matrix) Bytes() int64 {
	return int64(len(m.RowOffsets))*8 + int64(len(m.ColIDs))*4 + int64(len(m.Data))*8
}

// MaxRowNnz returns the largest per-row non-zero count.
func (m *Matrix) MaxRowNnz() int64 {
	var mx int64
	for r := 0; r < m.Rows; r++ {
		if n := m.RowNnz(r); n > mx {
			mx = n
		}
	}
	return mx
}
