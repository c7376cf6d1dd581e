package csr

import "repro/internal/parallel"

// Flops reports the number of floating-point operations required to
// compute A·B with Gustavson's algorithm, counting a multiply-add as two
// flops as the paper does (Table II: "a multiply-add counts as 2 flops").
// It is the sum over all non-zeros A[i][k] of 2*nnz(B[k][*]), in one
// serial pass over A's column ids that allocates nothing: it runs on its
// caller's goroutine, within whatever thread bound the caller has.
func Flops(a, b *Matrix) int64 {
	offs := b.RowOffsets
	var total int64
	for _, k := range a.ColIDs {
		total += offs[k+1] - offs[k]
	}
	return 2 * total
}

// RowFlops returns, for every row i of A, the number of flops needed to
// compute row i of A·B. This is the "row analysis" quantity of the
// framework's first GPU stage (Figure 3), used for load balancing and
// for the hybrid work distribution. It feeds every engine's scheduler,
// so the scan itself is row-parallel, on workers goroutines (0 means
// GOMAXPROCS): the bound of the job it serves. Like Flops it reads B's
// row offsets directly, with no per-B-row count array.
func RowFlops(a, b *Matrix, workers int) []int64 {
	out := make([]int64, a.Rows)
	aOffs, ids, bOffs := a.RowOffsets, a.ColIDs, b.RowOffsets
	parallel.For(workers, a.Rows, parallel.Grain(a.Rows, workers), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var f int64
			for _, k := range ids[aOffs[i]:aOffs[i+1]] {
				f += bOffs[k+1] - bOffs[k]
			}
			out[i] = 2 * f
		}
	})
	return out
}

// RowUpperBounds returns, for every row of A, the worst-case number of
// non-zeros in the corresponding row of A·B: the sum of nnz(B[k][*])
// over the non-zeros A[i][k]. The paper (Section IV-B) discusses — and
// rejects — sizing device allocations from these bounds because the gap
// between the bound and the observed nnz can be very large; we keep them
// for hash-table sizing and for the upper-bound ablation.
func RowUpperBounds(a, b *Matrix) []int64 {
	out := RowFlops(a, b, 0)
	for i := range out {
		out[i] /= 2
	}
	return out
}
