package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; xs need not be sorted and is
// not modified. An empty slice yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile
// exactly as Python's statistics.quantiles(xs, n=4) computes them
// (exclusive method), because that is how the benchmark contract
// measures run-to-run spread. A single value is returned three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if len(xs) == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	ld, m := len(s), len(s)+1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(2), at(3)
}

// selfTimes turns the medians of one operation replayed at
// successively deeper entry points (outermost first) into per-layer
// self times: each layer keeps what the next one down does not cover,
// the innermost keeps everything. The self times sum to levels[0].
func selfTimes(levels []float64) []float64 {
	out := make([]float64, len(levels))
	for i := range levels {
		out[i] = levels[i]
		if i+1 < len(levels) {
			out[i] -= levels[i+1]
		}
	}
	return out
}

// reconcileGap is |end-to-end median - sum of layer self times| as a
// share of the end-to-end median.
func reconcileGap(opP50 float64, self []float64) float64 {
	var sum float64
	for _, v := range self {
		sum += v
	}
	return math.Abs(opP50-sum) / opP50
}

func sum(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}
