// Package exp is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (Section V) on the synthetic
// suite and the simulated CPU-GPU node.
//
// Each experiment returns a Table whose rows mirror the series the
// paper plots; cmd/spgemm-bench prints them and bench_test.go reports
// their headline numbers as benchmark metrics. EXPERIMENTS.md records
// the paper-vs-measured comparison.
package exp

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/gpusim"
	"repro/internal/matgen"
	"repro/internal/multigpu"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes carries the paper's expected band for quick comparison.
	Notes []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV renders the table as RFC-4180-ish CSV (the header row first);
// cmd/spgemm-bench -csv writes one file per experiment for plotting.
func (t *Table) CSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := fmt.Fprint(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			if _, err := fmt.Fprint(w, c); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintln(w)
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Run is one suite matrix prepared for experiments: the generated
// matrix, its exact product (ground truth for calibration-free
// metrics), the chunk grid and the scaled device memory.
type Run struct {
	Entry matgen.SuiteEntry
	A     *csr.Matrix
	C     *csr.Matrix // A², computed once with the multicore CPU engine
	Flops int64
	// GridR and GridC give the chunk grid used for this matrix (the
	// paper likewise tunes the chunk size per matrix).
	GridR, GridC int
	// DevMem is the scaled device memory: large enough for the async
	// double-buffered pipeline, small enough that the full output
	// cannot reside on the device.
	DevMem int64
}

// CR returns the measured compression ratio flop(A²)/nnz(A²). Note the
// scale difference with the paper's Table II: with flops counted as 2
// per multiply-add, a collision-free product has ratio exactly 2, so
// our values sit near 2x the paper's (see EXPERIMENTS.md).
func (r *Run) CR() float64 {
	return float64(r.Flops) / float64(r.C.Nnz())
}

// Cfg returns the device configuration for this run.
func (r *Run) Cfg() gpusim.DeviceConfig {
	return gpusim.ScaledV100Config(r.DevMem)
}

// CoreOpts returns the grid portion of the core options.
func (r *Run) CoreOpts() core.Options {
	return core.Options{RowPanels: r.GridR, ColPanels: r.GridC}
}

// HybridOpts returns the paper's CPU-GPU node on the run's grid — the
// out-of-core driver with one GPU beside the CPU worker — scheduling
// chunks flop-sorted or (Figure 9's "default implementation") row-major.
func (r *Run) HybridOpts(reorder bool) multigpu.Options {
	opts := multigpu.Options{Core: r.CoreOpts(), NumGPUs: 1, UseCPU: true}
	opts.Core.Reorder = reorder
	return opts
}

var (
	suiteOnce sync.Once
	suiteRuns []*Run
	suiteErr  error
)

// Suite prepares (once per process) the nine matrices with their grids
// and device memory. The preparation multiplies each matrix once on
// the real multicore CPU engine to obtain exact output sizes.
func Suite() ([]*Run, error) {
	suiteOnce.Do(func() {
		for _, e := range matgen.Suite() {
			r, err := prepare(e)
			if err != nil {
				suiteErr = fmt.Errorf("exp: prepare %s: %w", e.Abbr, err)
				return
			}
			suiteRuns = append(suiteRuns, r)
		}
	})
	return suiteRuns, suiteErr
}

// MustSuite is Suite for benchmarks, panicking on failure.
func MustSuite() []*Run {
	rs, err := Suite()
	if err != nil {
		panic(err)
	}
	return rs
}

// SuiteRun returns one prepared matrix by abbreviation.
func SuiteRun(abbr string) (*Run, error) {
	rs, err := Suite()
	if err != nil {
		return nil, err
	}
	for _, r := range rs {
		if r.Entry.Abbr == abbr {
			return r, nil
		}
	}
	return nil, fmt.Errorf("exp: no suite matrix %q", abbr)
}

// RecomputeProduct runs the full multiplication of one suite matrix on
// the real multi-core CPU engine (the benchmark harness measures its
// wall time).
func RecomputeProduct(r *Run) (*csr.Matrix, error) {
	return cpuspgemm.Multiply(r.A, r.A, cpuspgemm.Options{})
}

func prepare(e matgen.SuiteEntry) (*Run, error) {
	a := e.Gen()
	c, err := cpuspgemm.Multiply(a, a, cpuspgemm.Options{})
	if err != nil {
		return nil, err
	}
	r := &Run{Entry: e, A: a, C: c, Flops: csr.Flops(a, a)}
	// Chunk grids: skewed graph matrices use a finer grid (their chunk
	// sizes vary wildly); regular matrices a coarser one. This plays
	// the role of the paper's per-matrix chunk-size tuning.
	if e.Class == "rmat" {
		r.GridR, r.GridC = 4, 4
	} else {
		// Band matrices concentrate work in near-diagonal chunks, so a
		// finer grid keeps per-chunk granularity comparable; nlp (the
		// largest, highest-ratio input) gets the finest grid, mirroring
		// the paper's per-matrix chunk-size tuning.
		r.GridR, r.GridC = 6, 5
		if e.Abbr == "nlp" {
			r.GridR, r.GridC = 8, 6
		}
	}
	// Device memory: 60% of the output footprint (so the product is
	// genuinely out-of-core) plus room for inputs and workspace.
	out := c.Bytes()
	r.DevMem = out*6/10 + 2*a.Bytes()
	return r, nil
}
