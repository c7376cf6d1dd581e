package matgen

import (
	"math/rand"
	"testing"

	"repro/internal/csr"
)

// built keeps the last benchmarked matrix reachable, so the compiler
// cannot drop the call that builds it.
var built *csr.Matrix

// BenchmarkFromEntries times csr.FromEntries on 2^18 triplets in three
// orders: ascending (how ER hands them over), every row's columns
// shuffled (how Sequential's map-order rows arrive), and RMAT's draw
// order with its duplicates.
func BenchmarkFromEntries(b *testing.B) {
	er := ER(1<<12, 1<<12, 64.0/(1<<12), 1)
	ascending := make([]csr.Entry, 0, er.Nnz())
	for r := 0; r < er.Rows; r++ {
		cols, vals := er.Row(r)
		for k, c := range cols {
			ascending = append(ascending, csr.Entry{Row: int32(r), Col: c, Val: vals[k]})
		}
	}
	shuffled := append([]csr.Entry(nil), ascending...)
	rng := rand.New(rand.NewSource(2))
	for r := 0; r < er.Rows; r++ {
		row := shuffled[er.RowOffsets[r]:er.RowOffsets[r+1]]
		rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
	}
	inputs := []struct {
		name    string
		n       int
		entries []csr.Entry
	}{
		{"ascending", er.Rows, ascending},
		{"shuffled-rows", er.Rows, shuffled},
		{"rmat", 1 << 14, rmatEntries(14, 16, 0.57, 0.19, 0.19, 3)},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := csr.FromEntries(in.n, in.n, in.entries)
				if err != nil {
					b.Fatal(err)
				}
				built = m
			}
			b.ReportMetric(float64(len(in.entries))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mentries/s")
		})
	}
}

// BenchmarkGenerate times each benchmark workload's generator set (the
// sizes of bench/workloads.go, fixed seeds) and reports the generated
// non-zeros per second, the in-process twin of matgen.medges_per_s.
func BenchmarkGenerate(b *testing.B) {
	sets := []struct {
		name string
		gens []func() *csr.Matrix
	}{
		{"lib_cold_ladder", []func() *csr.Matrix{
			func() *csr.Matrix { return RMAT(11, 8, 0.57, 0.19, 0.19, 1) },
			func() *csr.Matrix { return ER(1<<14, 1<<14, 6.0/(1<<14), 2) },
			func() *csr.Matrix { return ER(1<<11, 1<<9, 6.0/(1<<9), 3) },
			func() *csr.Matrix { return ER(1<<9, 1<<14, 6.0/(1<<14), 4) },
			func() *csr.Matrix { return Band(17<<12, 8, 5) },
			func() *csr.Matrix { return Stencil2D(128, 128) },
		}},
		{"lib_hybrid_ooc", []func() *csr.Matrix{
			func() *csr.Matrix { return RMAT(10, 24, 0.57, 0.19, 0.19, 1) },
		}},
		{"serve_small_warm", repeat(4, func(i int) *csr.Matrix { return BlockDiag(512-4*i, 8, int64(i)) })},
		{"serve_payload_cold", repeat(16, func(i int) *csr.Matrix { return ER(1<<12, 1<<12, 6.0/(1<<12), int64(i)) })},
		{"cluster_batch_chain", repeat(6, func(i int) *csr.Matrix { return BlockDiag(256-i, 32, int64(i)) })},
	}
	for _, set := range sets {
		b.Run(set.name, func(b *testing.B) {
			var edges int64
			for i := 0; i < b.N; i++ {
				for _, g := range set.gens {
					edges += g().Nnz()
				}
			}
			b.ReportMetric(float64(edges)/b.Elapsed().Seconds()/1e6, "Medges/s")
		})
	}
}

func repeat(n int, gen func(i int) *csr.Matrix) []func() *csr.Matrix {
	gens := make([]func() *csr.Matrix, n)
	for i := range gens {
		gens[i] = func() *csr.Matrix { return gen(i) }
	}
	return gens
}
