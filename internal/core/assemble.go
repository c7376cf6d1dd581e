package core

import (
	"fmt"

	"repro/internal/csr"
	"repro/internal/parallel"
)

// Assemble returns the product once every chunk is marked done. There
// is nothing to merge: each chunk was computed into its own windows of
// the matrix the engine has held since the first one. A run with a
// chunk still missing returns no matrix.
func (e *Engine) Assemble() (*csr.Matrix, error) {
	for id, ok := range e.prod.done {
		if !ok {
			return nil, fmt.Errorf("core: chunk %d of %d missing", id, e.NumChunks())
		}
	}
	return e.product(), nil
}

// AssembleChunks builds the final rows x cols matrix from a grid of
// separately computed chunk matrices, as distributed SUMMA's blocks are
// (the out-of-core engines compute in place). chunk(r,c) returns the
// chunk of row panel r and column panel c (panel-local columns);
// rowStart and colStart give the global offsets of each panel.
//
// Both passes run row-parallel on the shared runtime: every output row
// is owned by exactly one goroutine (its chunks cover disjoint column
// ranges), and the row-offset array comes from a parallel prefix sum.
func AssembleChunks(rows, cols, numRow, numCol int,
	chunk func(r, c int) *csr.Matrix,
	rowStart func(r int) int,
	colStart func(c int) int) (*csr.Matrix, error) {

	out := &csr.Matrix{Rows: rows, Cols: cols, RowOffsets: make([]int64, rows+1)}

	// Resolve the grid once so the parallel passes index slices instead
	// of calling back per row, and map each global row to its panel.
	grid := make([]*csr.Matrix, numRow*numCol)
	for r := 0; r < numRow; r++ {
		for c := 0; c < numCol; c++ {
			grid[r*numCol+c] = chunk(r, c)
		}
	}
	offs := make([]int32, numCol)
	for c := 0; c < numCol; c++ {
		offs[c] = int32(colStart(c))
	}
	panelOf := make([]int32, rows)
	for r := 0; r < numRow; r++ {
		for i := rowStart(r); i < rowEnd(r, numRow, rows, rowStart); i++ {
			panelOf[i] = int32(r)
		}
	}

	grain := parallel.Grain(rows, 0)

	// Pass 1: row sizes (each row sums its chunk-row lengths across the
	// column panels), then a parallel prefix sum for the offsets.
	rowNnz := make([]int64, rows)
	parallel.For(0, rows, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := int(panelOf[i])
			lr := i - rowStart(r)
			var n int64
			for c := 0; c < numCol; c++ {
				if m := grid[r*numCol+c]; lr < m.Rows {
					n += m.RowNnz(lr)
				}
			}
			rowNnz[i] = n
		}
	})
	parallel.PrefixSum(0, out.RowOffsets, rowNnz)
	nnz := out.RowOffsets[rows]
	out.ColIDs = make([]int32, nnz)
	out.Data = make([]float64, nnz)

	// Pass 2: fill, walking column panels in order so each row stays
	// sorted; rows are independent, so the loop is parallel.
	parallel.For(0, rows, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := int(panelOf[i])
			lr := i - rowStart(r)
			w := out.RowOffsets[i]
			for c := 0; c < numCol; c++ {
				m := grid[r*numCol+c]
				if lr >= m.Rows {
					continue
				}
				off := offs[c]
				gc, gv := m.Row(lr)
				for j := range gc {
					out.ColIDs[w] = gc[j] + off
					out.Data[w] = gv[j]
					w++
				}
			}
		}
	})
	return out, nil
}

func rowEnd(r, numRow, rows int, rowStart func(int) int) int {
	if r+1 < numRow {
		return rowStart(r + 1)
	}
	return rows
}
