package cpuspgemm

import (
	"math"
	"reflect"
	"testing"
	"time"

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

// TestAdaptivePropertyBitIdentical is the adaptive exact path's
// property test: across matrix families and thread counts, Multiply
// (per-row adaptive kernels, dynamic scheduling) must be bit-identical
// — structure and values — to MultiplyStatic, the seed's uniform-hash
// static-schedule pipeline kept unchanged as the reference.
func TestAdaptivePropertyBitIdentical(t *testing.T) {
	for mname, a := range families() {
		want, err := MultiplyStatic(a, a, Options{Method: Hash, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 4, 8} {
			got, err := Multiply(a, a, Options{Method: Hash, Threads: threads})
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
	if _, err := Multiply(er, band, Options{Method: Hash, ClassStats: &stats}); err != nil {
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
	if _, err := Multiply(rmat, rmat, Options{Method: Hash, ClassStats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.Classes[speck.KindList].Rows == 0 {
		t.Fatalf("rmat multiply used no list rows: %+v", stats)
	}
	if names := stats.Names(); names[speck.KindCSeg] != "cseg" || names[speck.KindList] != "list" {
		t.Fatalf("class names = %v", names)
	}
}

// TestAdaptiveChunkLogAndWorkers checks the scheduled-speedup plumbing:
// ChunkWorkers cuts N-worker granularity while running serially, every
// row appears in exactly one chunk per phase, and the logged durations
// replay through ListSchedule to a sane makespan.
func TestAdaptiveChunkLogAndWorkers(t *testing.T) {
	a := matgen.RMAT(10, 8, 0.57, 0.19, 0.19, 71)
	var log ChunkLog
	if _, err := Multiply(a, a, Options{Method: Hash, Threads: 1, ChunkWorkers: 4, ChunkLog: &log}); err != nil {
		t.Fatal(err)
	}
	for phase, spans := range map[string][]ChunkSpan{"symbolic": log.Symbolic, "numeric": log.Numeric} {
		if len(spans) < 4 {
			t.Fatalf("%s: only %d chunks logged with ChunkWorkers=4", phase, len(spans))
		}
		covered := make([]int, a.Rows)
		durations := make([]float64, 0, len(spans))
		for _, s := range spans {
			if s.Seconds < 0 {
				t.Fatalf("%s: negative duration %v", phase, s.Seconds)
			}
			durations = append(durations, s.Seconds)
			for i := s.Lo; i < s.Hi; i++ {
				covered[i]++
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("%s: row %d covered %d times", phase, i, c)
			}
		}
		var sum float64
		for _, d := range durations {
			sum += d
		}
		if mk := parallel.ListSchedule(durations, 4); mk > sum || mk < sum/4 {
			t.Fatalf("%s: makespan %v outside [sum/4, sum] = [%v, %v]", phase, mk, sum/4, sum)
		}
	}
}

// TestAdaptiveCancel checks cancellation still propagates through the
// adaptive pipeline.
func TestAdaptiveCancel(t *testing.T) {
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 13)
	_, err := Multiply(a, a, Options{Method: Hash, Threads: 2, Cancel: func() bool { return true }})
	if err != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestDynamicNeverLosesToStatic is the regression test for the
// speedup_hash_vs_static < 1 finding this PR fixes: the dynamic
// scheduler's only per-chunk overhead is now the atomic claim (see the
// oversample comment in internal/parallel), so Multiply must not lose
// measurably to the static-schedule MultiplyStatic ablation. Timing
// on shared CI hosts is noisy, so it takes the best of 5 runs per
// engine and allows a 1.25x band before failing.
func TestDynamicNeverLosesToStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	a := matgen.RMAT(11, 8, 0.57, 0.19, 0.19, 29)
	best := func(fn func() error) float64 {
		b := 1e18
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			if err := fn(); err != nil {
				t.Fatal(err)
			}
			if s := time.Since(t0).Seconds(); s < b {
				b = s
			}
		}
		return b
	}
	dyn := best(func() error {
		_, err := Multiply(a, a, Options{Method: Hash, Threads: 2})
		return err
	})
	static := best(func() error {
		_, err := MultiplyStatic(a, a, Options{Method: Hash, Threads: 2})
		return err
	})
	ratio := dyn / static
	t.Logf("dynamic %.4fs static %.4fs ratio %.3f", dyn, static, ratio)
	if ratio > 1.25 {
		t.Fatalf("dynamic scheduler lost to static ablation: ratio %.3f > 1.25", ratio)
	}
}
