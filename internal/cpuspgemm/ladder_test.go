package cpuspgemm

import (
	"testing"

	"repro/internal/csr"
	"repro/internal/matgen"
	"repro/internal/speck"
)

// rung is one operand pair of the ladder.
type rung struct {
	name string
	a, b *csr.Matrix
}

// ladderRungs are the five operand shapes of bench's lib_cold_ladder
// (bench/workloads.go), on seeds of their own, so a kernel change can be
// cross-checked in process against the parent commit's test binary:
//
//	go test ./internal/cpuspgemm -run '^$' -bench Ladder -cpu 1
func ladderRungs() []rung {
	const width = 1 << 14
	er := matgen.ER(width, width, 6.0/width, 902)
	erTop, _ := er.ExtractRows(0, 1<<11)
	band := matgen.Band(17<<12, 8, 905)
	bandTop, _ := band.ExtractRows(0, 1<<12)
	rmat := matgen.RMAT(11, 8, 0.57, 0.19, 0.19, 901)
	stencil := matgen.Stencil2D(128, 128)
	return []rung{
		{"rmat", rmat, rmat},
		{"er", erTop, er},
		{"tallskinny", matgen.ER(1<<11, 1<<9, 6.0/(1<<9), 903), matgen.ER(1<<9, width, 6.0/width, 904)},
		{"band_wide", bandTop, band},
		{"stencil", stencil, stencil},
	}
}

// wideRungs are products of a B wider than the bitmap tier (2^20
// columns), which no workload multiplies: wide_er and wide_long,
// ER(2^11 × 2^14) · ER(2^14 × 2^22) at 6 and at 32 entries a row (short
// rows that miss every column window; rows of one product per summary
// word), and wide_band and wide_rmat, band_wide's and rmat's operands with
// B padded to 2^21 columns (rows inside a window). speck's
// BenchmarkAnalyze walks the same four.
func wideRungs() []rung {
	er := func(perRow float64) (*csr.Matrix, *csr.Matrix) {
		return matgen.ER(1<<11, 1<<14, perRow/(1<<14), 909), matgen.ER(1<<14, 1<<22, perRow/(1<<22), 910)
	}
	pad := func(m *csr.Matrix) *csr.Matrix { p := *m; p.Cols = 1 << 21; return &p }
	erA, erB := er(6)
	longA, longB := er(32)
	var band, rmat rung
	for _, r := range ladderRungs() {
		switch r.name {
		case "band_wide":
			band = rung{"wide_band", r.a, pad(r.b)}
		case "rmat":
			rmat = rung{"wide_rmat", r.a, pad(r.b)}
		}
	}
	return []rung{{"wide_er", erA, erB}, {"wide_long", longA, longB}, band, rmat}
}

// BenchmarkLadder times a cold Multiply, a warm Numeric and a bound warm
// replay (NumericScheduled on the schedule a plan cache keeps for operands
// with records) per rung; the same three for er4096, ER(4096, 6/4096)²,
// the shape of serve_payload_cold's product; and the same three of the
// block-diagonal shapes the warm workloads replay (cluster_batch_chain's
// BlockDiag(256, 32), serve_small_warm's BlockDiag(512, 8)), every row of
// which a cold product (Kit.ComputeGroups) and a replay (NumericRows)
// compute in groups whose B rows are a block; their bound replays also
// run under each of the groups' bodies (speck.UseBody) the host has, as
// bound/<shape>/<body>; and a cold Multiply of each wide rung
// (wideRungs), as cold/wide_<name>. Both replays
// write into one value array of nnz(C) made before the timer starts, as
// a plan-cache replay writes into a spare, so they time no allocation
// and no zeroing of C.
func BenchmarkLadder(b *testing.B) {
	opts := Options{Threads: 1}
	warm := func(b *testing.B, x, y *csr.Matrix, bound bool) {
		_, sym, err := MultiplyPlanned(x, y, opts)
		if err != nil {
			b.Fatal(err)
		}
		var sched *speck.Schedule
		if bound {
			sched = sym.Schedule(x, y)
		}
		dst := make([]float64, sym.RowOffsets[sym.Rows])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NumericScheduled(sym, sched, dst, x, y, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	er4096 := matgen.ER(1<<12, 1<<12, 6.0/(1<<12), 908)
	block32, block8 := matgen.BlockDiag(256, 32, 906), matgen.BlockDiag(512, 8, 907)
	cold := func(b *testing.B, r rung) {
		for i := 0; i < b.N; i++ {
			if _, err := Multiply(r.a, r.b, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	rungs := append(ladderRungs(), rung{"er4096", er4096, er4096}, rung{"block32", block32, block32}, rung{"block8", block8, block8})
	for _, r := range rungs {
		block := r.name == "block32" || r.name == "block8"
		b.Run("cold/"+r.name, func(b *testing.B) { cold(b, r) })
		b.Run("warm/"+r.name, func(b *testing.B) { warm(b, r.a, r.b, false) })
		b.Run("bound/"+r.name, func(b *testing.B) { warm(b, r.a, r.b, true) })
		if block {
			for _, body := range []string{"sse2", "avx2", "avx512"} {
				b.Run("bound/"+r.name+"/"+body, func(b *testing.B) {
					restore, err := speck.UseBody(body)
					if err != nil {
						b.Skip(err)
					}
					defer restore()
					warm(b, r.a, r.b, true)
				})
			}
		}
	}
	for _, r := range wideRungs() {
		b.Run("cold/"+r.name, func(b *testing.B) { cold(b, r) })
	}
}
