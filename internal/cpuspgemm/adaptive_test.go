package cpuspgemm

import (
	"math"
	"reflect"
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

// TestAdaptiveChunkLogAndWorkers checks the scheduled-speedup plumbing
// and holds the scheduler's scaling floors: ChunkWorkers cuts N-worker
// granularity while running serially (so every logged duration is a
// true single-thread measurement, on any machine), every row appears in
// exactly one chunk per phase, and the logged durations replayed through
// ListSchedule at N equal workers reach a work-weighted sum/makespan of
// at least 2.5 at 4 workers and 4.0 at 8 (1 means no overlap, N perfect
// balance). Best of three logs, since scheduler noise only ever inflates
// a chunk's time.
func TestAdaptiveChunkLogAndWorkers(t *testing.T) {
	a := matgen.RMAT(12, 16, 0.6, 0.19, 0.19, 7)
	for _, tc := range []struct {
		workers int
		floor   float64
	}{{4, 2.5}, {8, 4.0}} {
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			var log ChunkLog
			if _, err := Multiply(a, a, Options{Threads: 1, ChunkWorkers: tc.workers, ChunkLog: &log}); err != nil {
				t.Fatal(err)
			}
			var sum, makespan float64
			for phase, spans := range map[string][]ChunkSpan{"symbolic": log.Symbolic, "numeric": log.Numeric} {
				if len(spans) < tc.workers {
					t.Fatalf("%s: only %d chunks logged with ChunkWorkers=%d", phase, len(spans), tc.workers)
				}
				covered := make([]int, a.Rows)
				durations := make([]float64, 0, len(spans))
				var phaseSum float64
				for _, s := range spans {
					if s.Seconds < 0 {
						t.Fatalf("%s: negative duration %v", phase, s.Seconds)
					}
					durations = append(durations, s.Seconds)
					phaseSum += s.Seconds
					for i := s.Lo; i < s.Hi; i++ {
						covered[i]++
					}
				}
				for i, c := range covered {
					if c != 1 {
						t.Fatalf("%s: row %d covered %d times", phase, i, c)
					}
				}
				mk := parallel.ListSchedule(durations, tc.workers)
				if mk > phaseSum || mk < phaseSum/float64(tc.workers) {
					t.Fatalf("%s: makespan %v outside [sum/%d, sum] = [%v, %v]",
						phase, mk, tc.workers, phaseSum/float64(tc.workers), phaseSum)
				}
				sum += phaseSum
				makespan += mk
			}
			best = max(best, sum/makespan)
		}
		t.Logf("%d workers: scheduled speedup %.2f (floor %.1f)", tc.workers, best, tc.floor)
		if best < tc.floor {
			t.Fatalf("%d workers: scheduled speedup %.2f below floor %.1f", tc.workers, best, tc.floor)
		}
	}
}

// TestAdaptiveCancel checks cancellation still propagates through the
// adaptive pipeline.
func TestAdaptiveCancel(t *testing.T) {
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 13)
	_, err := Multiply(a, a, Options{Threads: 2, Cancel: func() bool { return true }})
	if err != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
