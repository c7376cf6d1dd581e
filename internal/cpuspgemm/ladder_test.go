package cpuspgemm

import (
	"testing"

	"repro/internal/csr"
	"repro/internal/matgen"
)

// ladderRungs are the five operand shapes of bench's lib_cold_ladder
// (bench/workloads.go), on seeds of their own, so a kernel change can be
// cross-checked in process against the parent commit's test binary:
//
//	go test ./internal/cpuspgemm -run '^$' -bench Ladder -cpu 1
func ladderRungs() []struct {
	name string
	a, b *csr.Matrix
} {
	const width = 1 << 14
	er := matgen.ER(width, width, 6.0/width, 902)
	erTop, _ := er.ExtractRows(0, 1<<11)
	band := matgen.Band(17<<12, 8, 905)
	bandTop, _ := band.ExtractRows(0, 1<<12)
	rmat := matgen.RMAT(11, 8, 0.57, 0.19, 0.19, 901)
	stencil := matgen.Stencil2D(128, 128)
	return []struct {
		name string
		a, b *csr.Matrix
	}{
		{"rmat", rmat, rmat},
		{"er", erTop, er},
		{"tallskinny", matgen.ER(1<<11, 1<<9, 6.0/(1<<9), 903), matgen.ER(1<<9, width, 6.0/width, 904)},
		{"band_wide", bandTop, band},
		{"stencil", stencil, stencil},
	}
}

// BenchmarkLadder times a cold Multiply and a warm Numeric per rung, and
// a warm Numeric of the block-diagonal shapes the warm workloads replay
// (cluster_batch_chain's BlockDiag(256, 32), serve_small_warm's
// BlockDiag(512, 8)), every row of which NumericRows computes in groups
// whose B rows are a block.
func BenchmarkLadder(b *testing.B) {
	opts := Options{Threads: 1}
	warm := func(b *testing.B, x, y *csr.Matrix) {
		_, sym, err := MultiplyPlanned(x, y, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Numeric(sym, x, y, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, r := range ladderRungs() {
		b.Run("cold/"+r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Multiply(r.a, r.b, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("warm/"+r.name, func(b *testing.B) { warm(b, r.a, r.b) })
	}
	block32, block8 := matgen.BlockDiag(256, 32, 906), matgen.BlockDiag(512, 8, 907)
	b.Run("warm/block32", func(b *testing.B) { warm(b, block32, block32) })
	b.Run("warm/block8", func(b *testing.B) { warm(b, block8, block8) })
}
