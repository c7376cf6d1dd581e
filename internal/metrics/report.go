package metrics

// Report is the common statistics interface every engine returns: one
// shape for the out-of-core GPU stats, the hybrid split, the
// multi-GPU schedule and the distributed SUMMA run, so callers (CLI,
// experiment harness, benchmarks) read one vocabulary instead of four
// struct layouts.
//
// Seconds is the run's makespan in the engine's own time domain
// (simulated seconds for device engines, wall seconds for real-CPU
// engines); Throughput is FlopCount/Seconds/1e9 — the paper's GFLOPS
// definition. Counters returns the flat key/value view (see the
// Counter* constants) whose totals reconcile with the run's trace.
type Report interface {
	// Seconds is the makespan of the run.
	Seconds() float64
	// FlopCount is the multiply-add flop count (x2) of the product.
	FlopCount() int64
	// Throughput is FlopCount/Seconds in GFLOPS.
	Throughput() float64
	// OutputNnz is the number of non-zeros of the product.
	OutputNnz() int64
	// Counters is the flat key/value snapshot of the run's counters.
	Counters() map[string]int64
}

// Totals is the part of a run's statistics every engine reports and the
// four Report methods read; an engine's Stats embeds it and adds its own
// Counters.
type Totals struct {
	// TotalSec is the makespan in the engine's time domain.
	TotalSec float64
	// Flops is the multiply-add flop count (x2) of the whole product.
	Flops int64
	// GFLOPS is Flops / TotalSec / 1e9.
	GFLOPS float64
	// NnzC is the number of non-zeros of the product.
	NnzC int64
}

// NewTotals fills in GFLOPS, the paper's definition: all flops over the
// whole makespan (zero for an instantaneous run).
func NewTotals(sec float64, flops, nnzC int64) Totals {
	t := Totals{TotalSec: sec, Flops: flops, NnzC: nnzC}
	if sec > 0 {
		t.GFLOPS = float64(flops) / sec / 1e9
	}
	return t
}

// Seconds returns the makespan; part of Report.
func (t Totals) Seconds() float64 { return t.TotalSec }

// FlopCount returns the multiply-add flop count (x2) of the product.
func (t Totals) FlopCount() int64 { return t.Flops }

// Throughput returns the run's GFLOPS.
func (t Totals) Throughput() float64 { return t.GFLOPS }

// OutputNnz returns the product's non-zero count.
func (t Totals) OutputNnz() int64 { return t.NnzC }
