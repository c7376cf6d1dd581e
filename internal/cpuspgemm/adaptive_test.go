package cpuspgemm

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/csr"
	"repro/internal/matgen"
	"repro/internal/parallel"
	"repro/internal/speck"
)

func requireBitsEqual(t *testing.T, got, want *csr.Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if !reflect.DeepEqual(got.RowOffsets, want.RowOffsets) {
		t.Fatalf("%s: RowOffsets differ", label)
	}
	if !reflect.DeepEqual(got.ColIDs, want.ColIDs) {
		t.Fatalf("%s: ColIDs differ", label)
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: Data[%d] bits differ", label, i)
		}
	}
}

// TestAdaptivePropertyBitIdentical is the kernel's property test:
// across matrix families and thread counts, Multiply (per-row adaptive
// kernels, dynamic scheduling) must be bit-identical — structure and
// values — to Sequential, the one reference.
func TestAdaptivePropertyBitIdentical(t *testing.T) {
	for mname, a := range families() {
		want, err := Sequential(a, a)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 4, 8} {
			got, err := Multiply(a, a, Options{Threads: threads})
			if err != nil {
				t.Fatalf("%s/threads=%d: %v", mname, threads, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s/threads=%d: invalid product: %v", mname, threads, err)
			}
			requireBitsEqual(t, got, want, mname)
		}
	}
}

// TestAdaptiveClassStats checks the per-class instrumentation: every
// flop-bearing row lands in exactly one class, and patterns engineered
// for specific kernels actually reach them.
func TestAdaptiveClassStats(t *testing.T) {
	// Hash-class rows (sparse output, low revisit rate) against a
	// clustered B take the compressed-segment kernel: a very sparse ER
	// times a band gives each product row a few 29-column runs — high
	// segment compression, ~2 products per output column.
	n := 1 << 15
	er := matgen.ER(n, n, 3.0/float64(n), 9)
	band := matgen.Band(n, 14, 10)
	var stats ClassStats
	if _, err := Multiply(er, band, Options{ClassStats: &stats}); err != nil {
		t.Fatal(err)
	}
	var totalRows int64
	for _, c := range stats.Classes {
		totalRows += c.Rows
	}
	if totalRows == 0 || totalRows > int64(er.Rows) {
		t.Fatalf("class rows sum %d outside (0, %d]", totalRows, er.Rows)
	}
	if stats.Classes[speck.KindCSeg].Rows == 0 {
		t.Fatalf("clustered multiply used no cseg rows: %+v", stats)
	}

	// A skewed RMAT square mixes tiny and heavy rows: the list class
	// must see some rows.
	rmat := matgen.RMAT(10, 8, 0.57, 0.19, 0.19, 71)
	stats = ClassStats{}
	if _, err := Multiply(rmat, rmat, Options{ClassStats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.Classes[speck.KindList].Rows == 0 {
		t.Fatalf("rmat multiply used no list rows: %+v", stats)
	}
	if names := stats.Names(); names[speck.KindCSeg] != "cseg" || names[speck.KindList] != "list" {
		t.Fatalf("class names = %v", names)
	}
}

// TestClassStatsTotalsMatchLabels: ClassStats' per-kind rows, flops and
// output non-zeros are the tally of each flop-bearing row's
// speck.PickKind label — from its expected output size and, when the
// multiply does at least two flops per non-zero of B, B's
// segment-compression ratio — with and without a compressed B, on one
// worker and on four.
func TestClassStatsTotalsMatchLabels(t *testing.T) {
	n := 1 << 12
	er, band := matgen.ER(n, n, 3.0/float64(n), 9), matgen.Band(n, 14, 10)
	rmat := matgen.RMAT(10, 8, 0.57, 0.19, 0.19, 71)
	sparse := matgen.ER(n, n, 0.5/float64(n), 11)
	var compressed [2]bool
	for name, ops := range map[string][2]*csr.Matrix{
		"er-band": {er, band}, "rmat": {rmat, rmat}, "uncompressed": {sparse, sparse},
	} {
		a, b := ops[0], ops[1]
		rf := csr.RowFlops(a, b, 1)
		var flops int64
		for _, f := range rf {
			flops += f
		}
		ratio, width := 1.0, int64(b.Cols)
		if flops >= 2*int64(len(b.ColIDs)) {
			ratio = csr.Compress(b).Ratio()
			compressed[1] = true
		} else {
			compressed[0] = true
		}
		c, err := Sequential(a, b)
		if err != nil {
			t.Fatal(err)
		}
		var want [speck.NumKinds]ClassStat
		for i, f := range rf {
			if f == 0 {
				continue
			}
			k := &want[speck.PickKind(f, speck.ExpectedDistinct(width, f/2), width, ratio)]
			k.Rows++
			k.Flops += f
			k.Nnz += c.RowNnz(i)
		}
		for _, threads := range []int{1, 4} {
			var stats ClassStats
			if _, err := Multiply(a, b, Options{Threads: threads, ClassStats: &stats}); err != nil {
				t.Fatal(err)
			}
			for k, got := range stats.Classes {
				if w := want[k]; got.Rows != w.Rows || got.Flops != w.Flops || got.Nnz != w.Nnz {
					t.Fatalf("%s, %d threads: %s class (rows %d, flops %d, nnz %d), labels tally (%d, %d, %d)",
						name, threads, speck.Kind(k), got.Rows, got.Flops, got.Nnz, w.Rows, w.Flops, w.Nnz)
				}
			}
		}
	}
	if !compressed[0] || !compressed[1] {
		t.Fatalf("cases without and with a compressed B: %v, want both", compressed)
	}
}

// padCols returns m on a panel of cols columns, the added ones empty:
// the same product structure on whichever route b.Cols selects.
func padCols(m *csr.Matrix, cols int) *csr.Matrix {
	p := *m
	p.Cols = cols
	return &p
}

// spreadCols returns m with every column id multiplied by stride, on a
// panel stride times as wide: the same structure, its columns stride
// apart, so that a short row of two or more columns misses every window.
func spreadCols(m *csr.Matrix, stride int) *csr.Matrix {
	p := *m
	p.ColIDs = make([]int32, len(m.ColIDs))
	for j, c := range m.ColIDs {
		p.ColIDs[j] = c * int32(stride)
	}
	p.Cols = m.Cols * stride
	return &p
}

// TestAdaptiveChunkLogAndWorkers checks the scheduled-speedup plumbing
// and holds the scheduler's scaling floors with B on the bitmap tier and
// padded past it (wider than 2^20 columns): ChunkWorkers cuts N-worker
// granularity while running serially (so every logged duration is a true
// single-thread measurement, on any machine), every row appears in
// exactly one chunk of the pass, and the logged durations replayed
// through ListSchedule at N equal workers reach a work-weighted
// sum/makespan of at least 2.5 at 4 workers and 4.0 at 8 (1 means no
// overlap, N perfect balance). Best of three logs, since scheduler noise
// only ever inflates a chunk's time.
func TestAdaptiveChunkLogAndWorkers(t *testing.T) {
	a := matgen.RMAT(12, 16, 0.6, 0.19, 0.19, 7)
	for _, b := range []*csr.Matrix{a, padCols(a, 1<<20+64)} {
		for _, tc := range []struct {
			workers int
			floor   float64
		}{{4, 2.5}, {8, 4.0}} {
			best := 0.0
			for rep := 0; rep < 3; rep++ {
				var log ChunkLog
				if _, err := Multiply(a, b, Options{Threads: 1, ChunkWorkers: tc.workers, ChunkLog: &log}); err != nil {
					t.Fatal(err)
				}
				spans := log.Symbolic
				if len(spans) < tc.workers {
					t.Fatalf("only %d chunks logged with ChunkWorkers=%d", len(spans), tc.workers)
				}
				covered := make([]int, a.Rows)
				durations := make([]float64, 0, len(spans))
				var sum float64
				for _, s := range spans {
					if s.Seconds < 0 {
						t.Fatalf("negative duration %v", s.Seconds)
					}
					durations = append(durations, s.Seconds)
					sum += s.Seconds
					for i := s.Lo; i < s.Hi; i++ {
						covered[i]++
					}
				}
				for i, c := range covered {
					if c != 1 {
						t.Fatalf("row %d covered %d times", i, c)
					}
				}
				mk := parallel.ListSchedule(durations, tc.workers)
				if mk > sum || mk < sum/float64(tc.workers) {
					t.Fatalf("makespan %v outside [sum/%d, sum] = [%v, %v]", mk, tc.workers, sum/float64(tc.workers), sum)
				}
				best = max(best, sum/mk)
			}
			t.Logf("B %d columns, %d workers: scheduled speedup %.2f (floor %.1f)", b.Cols, tc.workers, best, tc.floor)
			if best < tc.floor {
				t.Fatalf("B %d columns, %d workers: scheduled speedup %.2f below floor %.1f", b.Cols, tc.workers, best, tc.floor)
			}
		}
	}
}

// TestAdaptiveCancel checks cancellation still propagates through the
// adaptive pipeline, with B on the bitmap tier and past it: before the
// first chunk, and in the middle of the pass.
func TestAdaptiveCancel(t *testing.T) {
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 13)
	for _, b := range []*csr.Matrix{a, padCols(a, 1<<20+1)} {
		for _, after := range []int64{0, 3} {
			var polls atomic.Int64
			cancel := func() bool { return polls.Add(1) > after }
			_, err := Multiply(a, b, Options{Threads: 2, ChunkWorkers: 8, Cancel: cancel})
			if err != ErrCanceled {
				t.Fatalf("B %d columns, canceled after %d polls: err = %v, want ErrCanceled", b.Cols, after, err)
			}
		}
	}
}
