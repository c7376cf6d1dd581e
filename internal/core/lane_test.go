package core_test

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/matgen"
	"repro/internal/metrics"
	"repro/internal/multigpu"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/speck"
)

// settleGoroutines is the root package's leak-audit poll (audit_test.go),
// which a test file of another package cannot import: it waits until the
// goroutine count drops to the baseline or five seconds pass, and
// returns the final count.
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// corruptAnalyses returns copies of A·A's row analysis whose structure
// is wrong in one row, each as the whole-row arithmetic reads it: "count"
// drops a column from the row, "panel" moves one of its ids across the
// boundary between the first two of cols column panels — the row keeps
// its size, so only its exact column set shows the move.
func corruptAnalyses(t *testing.T, a *csr.Matrix, cols int) map[string]*speck.RowAnalysis {
	t.Helper()
	ra := speck.Analyze(a, a, 1)
	clone := func() *speck.RowAnalysis {
		c := *ra
		c.RowOffsets, c.ColIDs = slices.Clone(ra.RowOffsets), slices.Clone(ra.ColIDs)
		return &c
	}
	bound := int32(partition.Bounds(a.Cols, cols)[1])
	out := map[string]*speck.RowAnalysis{}
	for i := 0; i < a.Rows && len(out) < 2; i++ {
		lo, hi := ra.RowOffsets[i], ra.RowOffsets[i+1]
		if _, ok := out["count"]; !ok && hi > lo {
			c := clone()
			c.ColIDs = slices.Delete(c.ColIDs, int(lo), int(lo+1))
			for r := i + 1; r <= a.Rows; r++ {
				c.RowOffsets[r]--
			}
			out["count"] = c
		}
		// The row's last id left of the boundary, when the boundary
		// itself is not among its ids.
		row := ra.ColIDs[lo:hi]
		j, found := slices.BinarySearch(row, bound)
		if _, ok := out["panel"]; !ok && !found && j > 0 {
			c := clone()
			c.ColIDs[lo+int64(j)-1] = bound
			out["panel"] = c
		}
	}
	if len(out) != 2 {
		t.Fatalf("no row to corrupt both ways: built %d of 2 analyses", len(out))
	}
	return out
}

// TestLaneErrorEndsRun: C's arithmetic runs on the run's host lanes,
// beside the simulation, from the analysis the engine is handed, so the
// schedule has moved on by the time a row fails. The failure must still
// end the run: with the handed analysis wrong in one row — a column
// missing, or one moved across a column-panel boundary, which only the
// row's exact column set shows — both device pipelines and the CPU
// worker (HostChunk) hand out no matrix, report the kernel's
// *speck.StructureError, and leave no lane goroutine behind.
func TestLaneErrorEndsRun(t *testing.T) {
	a := matgen.RMAT(8, 8, 0.57, 0.19, 0.19, 41)
	baseline := runtime.NumGoroutine()
	for name, ra := range corruptAnalyses(t, a, 3) {
		for _, worker := range []string{"sync", "async", "cpu"} {
			env := sim.NewEnv()
			eng, err := core.NewEngine(gpusim.NewDevice(env, gpusim.ScaledV100Config(64<<20)), a, a,
				core.Options{RowPanels: 4, ColPanels: 3, Async: worker == "async", Analysis: ra}, 2)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]int, eng.NumChunks())
			for id := range ids {
				ids[id] = id
			}
			env.Spawn(worker, func(p *sim.Proc) {
				if worker != "cpu" {
					eng.ProcessChunks(p, ids)
					return
				}
				for _, id := range ids {
					if eng.HostChunk(p, id, "chunk", 1e-3) != nil {
						return
					}
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			c, err := eng.Assemble()
			var se *speck.StructureError
			if c != nil || !errors.As(err, &se) {
				t.Fatalf("%s/%s: Assemble returned matrix %v, err %v; want no matrix and a *speck.StructureError", name, worker, c != nil, err)
			}
			if !errors.As(eng.Err(), &se) {
				t.Fatalf("%s/%s: engine error %v, want the lane's *speck.StructureError", name, worker, eng.Err())
			}
			eng.Teardown()
		}
	}
	if n := settleGoroutines(baseline); n > baseline {
		t.Fatalf("goroutines leaked across lane-failed runs: baseline %d, now %d", baseline, n)
	}
}

// TestComputedOnceAcrossRecovery: a chunk that falls back to the CPU
// worker or fails over to another GPU is not computed again — C's rows
// are computed once, on the host lanes, whatever the schedule did. In
// the setups of hybrid.TestFallbackOverwritesWindows and
// multigpu.TestFailoverOverwritesWindows, the run's rows counter is A's
// rows and the product equals a fault-free run's.
func TestComputedOnceAcrossRecovery(t *testing.T) {
	for _, tc := range []struct {
		name    string
		a       *csr.Matrix
		cfg     gpusim.DeviceConfig
		opts    multigpu.Options
		faults  faults.Config
		retries int
	}{
		{"fallback", matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 52), gpusim.ScaledV100Config(256 << 20),
			multigpu.Options{Core: core.Options{RowPanels: 4, ColPanels: 3, Async: true, Reorder: true}, NumGPUs: 1, UseCPU: true},
			faults.Config{Seed: 3, TransferRate: 0.05, KernelRate: 0.05}, -1},
		{"failover-loss", matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 65), gpusim.ScaledV100Config(64 << 20),
			multigpu.Options{Core: core.Options{RowPanels: 4, ColPanels: 3, Async: true}, NumGPUs: 2, UseCPU: true},
			faults.Config{Seed: 5, LossAfterOps: 30}, 0},
		{"failover-transient", matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 65), gpusim.ScaledV100Config(64 << 20),
			multigpu.Options{Core: core.Options{RowPanels: 4, ColPanels: 3, Async: true}, NumGPUs: 2, UseCPU: true},
			faults.Config{Seed: 2, TransferRate: 0.05, KernelRate: 0.05}, -1},
	} {
		want, _, err := multigpu.Run(tc.a, tc.a, tc.cfg, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		tc.opts.Core.Faults, tc.opts.Core.ChunkRetries = tc.faults, tc.retries
		tc.opts.Core.Metrics = metrics.New()
		got, st, err := multigpu.Run(tc.a, tc.a, tc.cfg, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.Failovers < 1 {
			t.Fatalf("%s: no chunk failed over or fell back; the case must exercise recovery", tc.name)
		}
		if rows := tc.opts.Core.Metrics.Counter(metrics.CounterRows); rows != int64(tc.a.Rows) {
			t.Fatalf("%s: after %d failovers (%d to the CPU) the lanes computed %d rows, want A's %d",
				tc.name, st.Failovers, st.FallbackChunks, rows, tc.a.Rows)
		}
		if !csr.Equal(got, want, 0) {
			t.Fatalf("%s: %s", tc.name, csr.Diff(got, want, 0))
		}
	}
}

// TestFailedScheduleStopsArithmetic: a run the simulation fails — a
// chunk stranded on a lost device with no CPU worker to adopt it, or the
// simulated deadline passed — returns no matrix and the simulation's
// error, even when C's arithmetic fails too (its analysis is wrong in a
// row), and stops that arithmetic: no lane goroutine outlives the run.
func TestFailedScheduleStopsArithmetic(t *testing.T) {
	a := matgen.RMAT(10, 16, 0.57, 0.19, 0.19, 41)
	baseline := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		core core.Options
		want error
	}{
		{"stranded", core.Options{Faults: faults.Config{Seed: 5, LossAfterOps: 10}}, faults.ErrDeviceLost},
		{"deadline", core.Options{DeadlineSec: 1e-6}, faults.ErrDeadline},
	} {
		for name, ra := range map[string]*speck.RowAnalysis{"exact": nil, "corrupt": corruptAnalyses(t, a, 3)["count"]} {
			opts := tc.core
			opts.RowPanels, opts.ColPanels, opts.Async, opts.Analysis = 4, 3, true, ra
			c, _, err := multigpu.Run(a, a, gpusim.ScaledV100Config(64<<20), multigpu.Options{Core: opts})
			var se *speck.StructureError
			if c != nil || !errors.Is(err, tc.want) || errors.As(err, &se) || errors.Is(err, cpuspgemm.ErrCanceled) {
				t.Fatalf("%s/%s: Run returned matrix %v, err %v; want no matrix and %v alone", tc.name, name, c != nil, err, tc.want)
			}
		}
	}
	if n := settleGoroutines(baseline); n > baseline {
		t.Fatalf("goroutines leaked across failed runs: baseline %d, now %d", baseline, n)
	}
}
