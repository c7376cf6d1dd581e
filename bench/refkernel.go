package main

import (
	"math/rand"
	"sync"
	"time"
)

// The host-speed reference. The boxes this benchmark runs on are small
// shared VMs whose effective speed moves by 20-40 % over seconds to
// minutes (measured: the same single-threaded product had a p50 of
// 73 ms in one 12 s block and 97 ms in another of the same process,
// with no page faults and no system time to show for it). Wall-clock
// medians of ten runs then spread by 15-20 % of their median, wider
// than any regression bound worth having.
//
// So the timed window is cut into short slices, and between slices,
// while every client is idle, one goroutine runs a fixed kernel whose
// cost reacts to the host the way the system under test does: a
// scatter-accumulate over a table that does not fit the private caches
// (integer index loads, floating-point multiply-adds, dependent memory
// traffic). A slice's host factor is its neighbouring reference times
// over the nominal one, and every latency of the slice is divided by it.
// The reference is this file's code, not the repository's, so a change
// to the system under test cannot move it.

const (
	// refNominalMs is the reference time end-to-end metrics are
	// normalised to: about what one kernel run takes, caches cold after
	// a slice of load, on the 2-vCPU box this was calibrated on in its
	// usual state (4.5-6.5 ms). It is a unit, not a measurement:
	// changing it rescales every end-to-end metric.
	refNominalMs = 5.0
	// sliceDur is how long clients run between two reference samples.
	sliceDur = 250 * time.Millisecond
	// refRuns is the number of kernel runs per reference sample. It is
	// part of the unit: the first run after a slice of load finds its
	// table evicted from the private caches and the second does not, so
	// samples of another length would not compare.
	refRuns = 2
)

// refKernel is the fixed reference work: 2 passes of 2^18 random
// scatter-accumulates into a 4 MiB table, on one goroutine per client
// of the workload at once, so that a two-client workload is normalised
// by the speed of both processors it uses.
type refKernel struct {
	lanes []refLane
}

type refLane struct {
	idx []int32
	val []float64
	acc []float64
}

func newRefKernel(clients int) *refKernel {
	k := &refKernel{lanes: make([]refLane, clients)}
	for l := range k.lanes {
		rng := rand.New(rand.NewSource(42 + int64(l)))
		lane := refLane{idx: make([]int32, 1<<18), val: make([]float64, 1<<18), acc: make([]float64, 1<<19)}
		for i := range lane.idx {
			lane.idx[i] = int32(rng.Intn(len(lane.acc)))
			lane.val[i] = rng.Float64()
		}
		k.lanes[l] = lane
	}
	return k
}

func (l *refLane) run() float64 {
	t0 := time.Now()
	for pass := 0; pass < 2; pass++ {
		for i, ix := range l.idx {
			l.acc[ix] += l.val[i] * 1.0001
		}
	}
	return float64(time.Since(t0)) / 1e6
}

// sampleMs runs the kernel refRuns times on every lane concurrently and
// returns the mean wall time of one run in ms.
func (k *refKernel) sampleMs() float64 {
	times := make([]float64, len(k.lanes))
	var wg sync.WaitGroup
	for l := range k.lanes {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := 0; i < refRuns; i++ {
				times[l] += k.lanes[l].run()
			}
		}(l)
	}
	wg.Wait()
	return sum(times) / float64(refRuns*len(k.lanes))
}

// hostFactor converts the reference times on either side of a measured
// interval into the slowdown of the host against the nominal one.
func hostFactor(beforeMs, afterMs float64) float64 {
	return (beforeMs + afterMs) / 2 / refNominalMs
}
