// Package partition splits the input matrices of an out-of-core SpGEMM
// into panels, following Section III-D of the paper.
//
// Matrix A is split into row panels — trivial under CSR, since each
// row's storage is contiguous: a row panel is a view, its own rebased
// row offsets over A's column ids and values. Matrix B is split into
// column panels, which is harder because CSR gives no direct access to
// columns. Two implementations of the B partitioner are provided:
//
//   - ColPanels: the paper's optimization. An auxiliary col_offset array
//     remembers, per row, where the previous panel's scan stopped;
//     because column ids are sorted within a row, each panel's elements
//     are a contiguous segment, so the whole partitioning is O(nnz).
//     Its panels carry B's values, for callers that multiply them.
//   - ColPanelsParallel: a row-parallel prefix-sum formulation of the
//     same idea that copies structure only, for callers that size and
//     schedule chunks from panels but compute the product from whole
//     operands (the out-of-core engine).
//
// Column panels store local column ids (rebased so the panel's first
// column is 0) plus the global offset, so downstream dense accumulators
// can be sized to the panel width.
package partition

import (
	"fmt"

	"repro/internal/csr"
	"repro/internal/parallel"
)

// RowPanel is a contiguous range of rows of A.
type RowPanel struct {
	// Start and End give the global row range [Start, End).
	Start, End int
	// M is the panel contents; M.Rows == End-Start.
	M *csr.Matrix
}

// ColPanel is a contiguous range of columns of B with local column ids.
type ColPanel struct {
	// Start and End give the global column range [Start, End).
	Start, End int
	// M is the panel contents with column ids rebased by -Start;
	// M.Cols == End-Start.
	M *csr.Matrix
}

// Bounds returns num+1 even boundaries over extent.
func Bounds(extent, num int) []int {
	b := make([]int, num+1)
	for i := 0; i <= num; i++ {
		b[i] = i * extent / num
	}
	return b
}

// RowPanels partitions A into num contiguous row panels of
// near-equal row counts (partition_rows of Algorithm 3). Each panel's
// column ids and values are a reslice of A's, not a copy: only its row
// offsets, rebased to start at 0, are its own.
func RowPanels(a *csr.Matrix, num int) ([]RowPanel, error) {
	if num < 1 || num > max(1, a.Rows) {
		return nil, fmt.Errorf("partition: %d row panels for %d rows", num, a.Rows)
	}
	b := Bounds(a.Rows, num)
	out := make([]RowPanel, num)
	for i := 0; i < num; i++ {
		lo, hi := b[i], b[i+1]
		base, end := a.RowOffsets[lo], a.RowOffsets[hi]
		m := &csr.Matrix{Rows: hi - lo, Cols: a.Cols, RowOffsets: make([]int64, hi-lo+1),
			ColIDs: a.ColIDs[base:end:end], Data: a.Data[base:end:end]}
		for r := lo; r <= hi; r++ {
			m.RowOffsets[r-lo] = a.RowOffsets[r] - base
		}
		out[i] = RowPanel{Start: lo, End: hi, M: m}
	}
	return out, nil
}

// ColPanels partitions B into num column panels using the paper's
// col_offset optimization: each row is scanned exactly once across all
// panels, resuming where the previous panel stopped.
func ColPanels(b *csr.Matrix, num int) ([]ColPanel, error) {
	if err := checkColArgs(b, num); err != nil {
		return nil, err
	}
	bounds := Bounds(b.Cols, num)
	// col_offset[r]: earliest location in ColIDs/Data where elements for
	// row r and the current panel can start.
	colOffset := make([]int64, b.Rows)
	for r := 0; r < b.Rows; r++ {
		colOffset[r] = b.RowOffsets[r]
	}
	out := make([]ColPanel, num)
	for p := 0; p < num; p++ {
		startCol, endCol := int32(bounds[p]), int32(bounds[p+1])
		pm := &csr.Matrix{Rows: b.Rows, Cols: int(endCol - startCol), RowOffsets: make([]int64, b.Rows+1)}
		// Stage 1: advance each row's offset to find this panel's
		// contiguous segment; record segment lengths.
		segEnd := make([]int64, b.Rows)
		for r := 0; r < b.Rows; r++ {
			q := colOffset[r]
			for q < b.RowOffsets[r+1] && b.ColIDs[q] < endCol {
				q++
			}
			segEnd[r] = q
			pm.RowOffsets[r+1] = pm.RowOffsets[r] + (q - colOffset[r])
		}
		// Stage 2: allocate and copy the contiguous segments.
		nnz := pm.RowOffsets[b.Rows]
		pm.ColIDs = make([]int32, nnz)
		pm.Data = make([]float64, nnz)
		for r := 0; r < b.Rows; r++ {
			w := pm.RowOffsets[r]
			for q := colOffset[r]; q < segEnd[r]; q++ {
				pm.ColIDs[w] = b.ColIDs[q] - startCol
				pm.Data[w] = b.Data[q]
				w++
			}
			colOffset[r] = segEnd[r]
		}
		out[p] = ColPanel{Start: int(startCol), End: int(endCol), M: pm}
	}
	return out, nil
}

// ColPanelsParallel is the row-parallel prefix-sum formulation, for the
// structure only: its panels carry row offsets and rebased column ids
// and no values (M.Data is nil). threads workers (parallel.Run) split
// the rows, each computing all its rows' per-panel segment boundaries in
// a single sweep; per-panel row offsets then come from prefix sums, and
// the same workers fill every panel's ids for their rows.
func ColPanelsParallel(b *csr.Matrix, num, threads int) ([]ColPanel, error) {
	if err := checkColArgs(b, num); err != nil {
		return nil, err
	}
	threads = max(threads, 1)
	bounds, rowBounds := Bounds(b.Cols, num), Bounds(b.Rows, threads)

	// seg[p][r] = index into ColIDs where row r's segment for panel p
	// ends (its start is the previous panel's end, or the row's start).
	seg := make([][]int64, num)
	for p := range seg {
		seg[p] = make([]int64, b.Rows)
	}
	segStart := func(p, r int) int64 {
		if p == 0 {
			return b.RowOffsets[r]
		}
		return seg[p-1][r]
	}
	parallel.Run(threads, func(w int) {
		for r := rowBounds[w]; r < rowBounds[w+1]; r++ {
			q := b.RowOffsets[r]
			for p := 0; p < num; p++ {
				endCol := int32(bounds[p+1])
				for q < b.RowOffsets[r+1] && b.ColIDs[q] < endCol {
					q++
				}
				seg[p][r] = q
			}
		}
	})

	out := make([]ColPanel, num)
	for p := range out {
		pm := &csr.Matrix{Rows: b.Rows, Cols: bounds[p+1] - bounds[p], RowOffsets: make([]int64, b.Rows+1)}
		for r := 0; r < b.Rows; r++ {
			pm.RowOffsets[r+1] = pm.RowOffsets[r] + (seg[p][r] - segStart(p, r))
		}
		pm.ColIDs = make([]int32, pm.RowOffsets[b.Rows])
		out[p] = ColPanel{Start: bounds[p], End: bounds[p+1], M: pm}
	}
	parallel.Run(threads, func(w int) {
		for p, cp := range out {
			startCol, pm := int32(cp.Start), cp.M
			for r := rowBounds[w]; r < rowBounds[w+1]; r++ {
				ids := pm.ColIDs[pm.RowOffsets[r]:pm.RowOffsets[r+1]]
				for i, col := range b.ColIDs[segStart(p, r):seg[p][r]] {
					ids[i] = col - startCol
				}
			}
		}
	})
	return out, nil
}

func checkColArgs(b *csr.Matrix, num int) error {
	if num < 1 || num > max(1, b.Cols) {
		return fmt.Errorf("partition: %d column panels for %d columns", num, b.Cols)
	}
	return nil
}
