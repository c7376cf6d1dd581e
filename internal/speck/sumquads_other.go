//go:build !amd64

package speck

// sumQuads leaves every column of a group to sumColumns' loop on
// platforms without the SSE2 kernel (sumquads_amd64.s).
func sumQuads(av, bv []float64, m int, outs *[groupRows][]float64) (done int, nan bool) {
	return 0, false
}

// useAVX2 and useAVX512 are always false: there is no AVX2 or AVX-512
// body here.
var useAVX2, useAVX512 = false, false
