package speck

// sumQuads computes columns [0, done) of a group (sumColumns), done =
// m rounded down to a multiple of four: av holds the four rows'
// multipliers row after row (n each), bv the block's n × m values row by
// row, and row r's value for column q goes to outs[r][q]. Four columns of
// the four rows are eight SSE2 registers of two lanes, or, where useAVX2
// is set, four AVX2 registers of four; each lane sums its products from
// -0.0 in p order with MULPD/ADDPD (VMULPD/VADDPD), which round every
// lane as MULSD/ADDSD do — and as the compiled Go loops do, every product
// being rounded explicitly (DESIGN.md §13) — so the values are
// sumColumns' loop's bit for bit but NaN payloads. nan reports a NaN
// among them. The caller guarantees
// len(av) = 4n with n ≥ 1, len(bv) = n·m and len(outs[r]) = m.
//
//go:noescape
func sumQuads(av, bv []float64, m int, outs *[groupRows][]float64) (done int, nan bool)

// useAVX2 selects sumQuads' AVX2 body. It is set once, before any kernel
// runs, where the CPU has AVX2 and the OS saves its registers.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU and the OS support AVX2.
func hasAVX2() bool
