package speck

// sumRun is the run body on amd64: it computes run's groups into wData,
// one after another, and returns the index of the first whose sums hold
// a NaN — that group's windows then hold values no caller keeps — or
// len(run). Group sp's rows' multipliers are aData[aOffs[sp.lo]:] row
// after row (sp.n each), its block's values bData[sp.at:] (sp.n × sp.m,
// row by row), and row r's value for column q goes to
// wData[wOffs[(sp.lo+r)·stride] + q]: Σ_p x_r,p · B[p][q], summed from
// -0.0 in p order. Columns go four at a time in eight SSE2 registers of
// two lanes, or, where useAVX2 is set, four AVX2 registers of four;
// where useAVX512 is set, sixteen columns at a time are eight AVX-512
// registers of eight lanes, then eight columns four such registers, and
// the AVX2 body takes the quads left; fewer than four columns left go
// one at a time (MULSD/ADDSD). Every lane rounds as MULSD/ADDSD do — and
// as the compiled Go loops do, every product being rounded explicitly
// (DESIGN.md §13) — so the values are the stamped body's bit for bit but
// NaN payloads.
//
// It indexes its arguments unchecked: the caller (groupRun) guarantees
// that every group's multipliers, block and windows lie inside aData,
// bData and wData, and that aOffs and wOffs hold the indices it reads.
//
//go:noescape
func sumRun(aData, bData, wData []float64, aOffs, wOffs []int64, stride int, run []span) (nan int)

// useAVX2 and useAVX512 select sumRun's body: the AVX-512 one where
// useAVX512 is set, else the AVX2 one where useAVX2 is, else the SSE2
// one. They are set once, before any kernel runs, to the widest body the
// CPU and the OS support; only tests and benchmarks change them (UseBody).
var (
	useAVX2   = hasAVX2()
	useAVX512 = useAVX2 && hasAVX512()
)

// xcr0 reports the register states the OS saves (XGETBV), or 0 where the
// CPU has no CPUID leaf 7, or lacks AVX or OSXSAVE (CPUID leaf 1).
func xcr0() uint32 {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c, _ := cpuid(1, 0)
	const avxOSXSAVE = 1<<28 | 1<<27
	if maxLeaf < 7 || c&avxOSXSAVE != avxOSXSAVE {
		return 0
	}
	return xgetbv()
}

// hasAVX2 reports whether the CPU has AVX2 (CPUID leaf 7) and the OS
// saves the XMM and YMM state (XCR0 bits 1 and 2).
func hasAVX2() bool {
	const xmmYMM = 1<<2 | 1<<1
	_, b, _, _ := cpuid(7, 0)
	return xcr0()&xmmYMM == xmmYMM && b&(1<<5) != 0
}

// hasAVX512 reports whether the CPU has AVX-512F (CPUID leaf 7) and the
// OS saves the XMM, YMM, opmask and ZMM state (XCR0 bits 1, 2, 5, 6, 7).
func hasAVX512() bool {
	const zmm = 1<<7 | 1<<6 | 1<<5 | 1<<2 | 1<<1
	_, b, _, _ := cpuid(7, 0)
	return xcr0()&zmm == zmm && b&(1<<16) != 0
}

// cpuid returns CPUID's EAX, EBX, ECX and EDX for leaf eax, subleaf ecx.
func cpuid(eax, ecx uint32) (a, b, c, d uint32)

// xgetbv returns XCR0's low half. Only where CPUID leaf 1 reports OSXSAVE.
func xgetbv() uint32
