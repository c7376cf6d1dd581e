//go:build !amd64

package speck

import "math"

// sumRun is the run body on platforms without the assembly bodies
// (sumquads_amd64.s): the same run of groups, each column summed by this
// loop — Σ_p x_r,p · B[p][q] from -0.0 in p order, every product rounded —
// returning the index of the first group whose sums hold a NaN, or
// len(run).
func sumRun(aData, bData, wData []float64, aOffs, wOffs []int64, stride int, run []span) (nan int) {
	negZero := math.Copysign(0, -1)
	for k := range run {
		sp := &run[k]
		n, m := int(sp.n), int(sp.m)
		// Four slices of one length: the inner loop indexes them unchecked and
		// keeps their bases and its counters in registers.
		x0s := aData[aOffs[sp.lo]:][:GroupRows*n]
		x1s, x2s, x3s := x0s[n : 2*n][:n], x0s[2*n : 3*n][:n], x0s[3*n:][:n]
		x0s = x0s[:n]
		bv := bData[sp.at:][:n*m]
		at := sp.lo * stride
		out0, out1 := wData[wOffs[at]:][:m], wData[wOffs[at+stride]:][:m]
		out2, out3 := wData[wOffs[at+2*stride]:][:m], wData[wOffs[at+3*stride]:][:m]
		isNaN := false
		for q := range m {
			s0, s1, s2, s3 := negZero, negZero, negZero, negZero
			j := q
			for p, x := range x0s {
				v := bv[j]
				j += m
				s0 += float64(x * v)
				s1 += float64(x1s[p] * v)
				s2 += float64(x2s[p] * v)
				s3 += float64(x3s[p] * v)
			}
			out0[q], out1[q], out2[q], out3[q] = s0, s1, s2, s3
			isNaN = isNaN || s0 != s0 || s1 != s1 || s2 != s2 || s3 != s3
		}
		if isNaN {
			return k
		}
	}
	return len(run)
}

// useAVX2 and useAVX512 are always false: there is no AVX2 or AVX-512
// body here.
var useAVX2, useAVX512 = false, false
