package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/matgen"
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

// TestLaneErrorEndsRun: every chunk's arithmetic is a job on the run's
// pool of host lanes, beside the simulation, so the schedule has moved on
// by the time a chunk's arithmetic fails. The failure must still end the
// run: with one window of the heaviest chunk cut short by a corrupted
// split entry, both device pipelines and the CPU worker (HostChunk) hand
// out no matrix, report the kernel's *speck.StructureError, and leave no
// lane goroutine behind.
func TestLaneErrorEndsRun(t *testing.T) {
	a := matgen.RMAT(8, 8, 0.57, 0.19, 0.19, 41)
	baseline := runtime.NumGoroutine()
	for _, worker := range []string{"sync", "async", "cpu"} {
		env := sim.NewEnv()
		eng, err := NewEngine(gpusim.NewDevice(env, gpusim.ScaledV100Config(64<<20)), a, a,
			Options{RowPanels: 4, ColPanels: 3, Async: worker == "async"}, 2)
		if err != nil {
			t.Fatal(err)
		}
		eng.product()
		flops, heavy := eng.ChunkFlops(), 0
		for id, f := range flops {
			if f > flops[heavy] {
				heavy = id
			}
		}
		rp, _ := eng.chunkPanels(heavy)
		w, nc := eng.window(heavy), len(eng.ColPanels)
		row := 0
		for w.RowNnz(row) == 0 {
			row++
		}
		eng.plan.split[(rp.Start+row)*nc+heavy%nc+1]--

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
			t.Fatalf("%s: Assemble returned matrix %v, err %v; want no matrix and a *speck.StructureError", worker, c != nil, err)
		}
		if !errors.As(eng.Err(), &se) {
			t.Fatalf("%s: engine error %v, want the lane's *speck.StructureError", worker, eng.Err())
		}
		eng.Teardown()
	}
	if n := settleGoroutines(baseline); n > baseline {
		t.Fatalf("goroutines leaked across lane-failed runs: baseline %d, now %d", baseline, n)
	}
}
