package speck

// sumQuads computes columns [0, done) of a group (sumColumns), done =
// m rounded down to a multiple of four: av holds the four rows'
// multipliers row after row (n each), bv the block's n × m values row by
// row, and row r's value for column q goes to outs[r][q]. Four columns of
// the four rows are eight SSE2 registers of two lanes; each lane sums its
// products from -0.0 in p order with MULPD/ADDPD, which round every lane
// as MULSD/ADDSD do — and as the compiled Go loops do at any GOAMD64
// level, Go fusing no x*y + z on amd64 (DESIGN.md §13) — so the values
// are sumColumns' loop's bit for bit but NaN payloads. nan reports a NaN
// among them. The caller guarantees
// len(av) = 4n with n ≥ 1, len(bv) = n·m and len(outs[r]) = m.
//
//go:noescape
func sumQuads(av, bv []float64, m int, outs *[groupRows][]float64) (done int, nan bool)
