package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// driveResult is what a set of closed-loop callers measured.
type driveResult struct {
	latMs []float64 // successful operations only, as measured
	// hostFactor is the host factor of the slice each sample ran in
	// (refkernel.go); filled by slicedRun only.
	hostFactor []float64
	attempted  int
	failed     int
	engineSec  float64 // summed over successful operations
	elapsed    time.Duration
	firstErr   error
}

// normMs returns every latency of a sliced run over its slice's host
// factor: the figures end-to-end metrics are made of.
func (r *driveResult) normMs() []float64 {
	out := make([]float64, len(r.latMs))
	for i, l := range r.latMs {
		out[i] = l / r.hostFactor[i]
	}
	return out
}

// driver holds the per-client operation counters of one instance, so
// the warm-up, the timed window and each replayed level continue the
// same input cycle instead of restarting it.
type driver struct {
	inst   *instance
	iters  []int // per client: operations (cycles through the levels) done
	cursor []int // per client: next level of the current cycle
	opSeq  atomic.Int64
}

func newDriver(inst *instance) *driver {
	return &driver{inst: inst, iters: make([]int, inst.clients), cursor: make([]int, inst.clients)}
}

// drive runs the given entry points from every client in a closed
// loop — each client issues its next call only when the previous one
// has returned — until dur has passed. With several entry points each
// client cycles through them on the same input (resuming where the
// previous drive stopped), so drift of the host lands on all of them
// alike. A call's latency is its wall time, or the duration it reports;
// its check runs after the latency clock has stopped. A failed call
// contributes no sample.
func (d *driver) drive(levels []level, dur time.Duration, tr *tracer) []driveResult {
	clients := d.inst.clients
	parts := make([][]driveResult, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		parts[k] = make([]driveResult, len(levels))
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Since(start) < dur {
				li := d.cursor[k]
				lv, p := levels[li], &parts[k][li]
				c := &opCtx{client: k, iter: d.iters[k], tr: tr, op: d.opSeq.Add(1)}
				c.root = tr.begin(lv.name, -1, c.op, k)
				t0 := time.Now()
				res, err := lv.call(c)
				lat := time.Since(t0)
				tr.end(c.root)
				if res.dur > 0 {
					lat = res.dur
				}
				if err == nil && res.check != nil {
					err = res.check()
				}
				if d.cursor[k] = li + 1; d.cursor[k] == len(levels) {
					d.cursor[k] = 0
					d.iters[k]++
				}
				p.attempted++
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				p.latMs = append(p.latMs, float64(lat)/1e6)
				p.engineSec += res.engineSec
			}
		}(k)
	}
	wg.Wait()
	out := make([]driveResult, len(levels))
	elapsed := time.Since(start)
	for li := range out {
		out[li].elapsed = elapsed
		for k := range parts {
			out[li].merge(parts[k][li])
		}
	}
	return out
}

// merge folds another result of the same entry point into r.
func (r *driveResult) merge(o driveResult) {
	r.latMs = append(r.latMs, o.latMs...)
	r.hostFactor = append(r.hostFactor, o.hostFactor...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.engineSec += o.engineSec
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// driveOp drives the workload's operation alone, unsliced (warm-up).
func (d *driver) driveOp(w workload, dur time.Duration) driveResult {
	d.cursor = make([]int, d.inst.clients)
	return d.drive([]level{{name: w.name, call: d.inst.op}}, dur, nil)[0]
}

// slicedResult is a run cut into slices of sliceDur with a host-speed
// reference sample between them (see refkernel.go).
type slicedResult struct {
	levels     []driveResult // per entry point, pooled over the slices
	factors    []float64     // per slice
	busySec    float64       // what the slices took
	nominalSec float64       // what they would have taken on the nominal host
}

// slicedRun drives the entry points for at least dur and until each has
// minSamples successes, but never longer than maxDur.
func (d *driver) slicedRun(levels []level, dur, maxDur time.Duration, minSamples int, ref *refKernel, tr *tracer) slicedResult {
	d.cursor = make([]int, d.inst.clients)
	out := slicedResult{levels: make([]driveResult, len(levels))}
	enough := func() bool {
		for _, lv := range out.levels {
			if len(lv.latMs) < minSamples {
				return false
			}
		}
		return true
	}
	start := time.Now()
	refBefore := ref.sampleMs()
	for el := time.Duration(0); el < dur || (!enough() && el < maxDur); el = time.Since(start) {
		res := d.drive(levels, sliceDur, tr)
		refAfter := ref.sampleMs()
		f := hostFactor(refBefore, refAfter)
		refBefore = refAfter
		out.factors = append(out.factors, f)
		for li := range res {
			res[li].hostFactor = make([]float64, len(res[li].latMs))
			for i := range res[li].hostFactor {
				res[li].hostFactor[i] = f
			}
			out.levels[li].merge(res[li])
		}
		out.busySec += res[0].elapsed.Seconds()
		out.nominalSec += res[0].elapsed.Seconds() / f
	}
	return out
}

// memSnapshot is the part of runtime.MemStats the runtime.* metrics
// are derived from.
type memSnapshot struct {
	totalAlloc uint64
	pauseNs    uint64
	heapInuse  uint64
}

func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{totalAlloc: ms.TotalAlloc, pauseNs: ms.PauseTotalNs, heapInuse: ms.HeapInuse}
}

// roundStats is one round of a workload: its set-up and its timed
// window, each as measured and with the host factor it is normalised by.
type roundStats struct {
	setupSec    float64 // 0 for a window that reuses an instance already set up
	setupFactor float64
	ops         int     // successful timed operations
	busySec     float64 // the window's slices, as measured
	nominalSec  float64 // the same, each over its slice's host factor
}

// windowStats accumulates one workload's rounds. It keeps what was
// measured plus the host factors (see refkernel.go); the normalised
// end-to-end metrics and the as-measured figures are both derived from
// it in metrics.go.
type windowStats struct {
	name string
	// The latest set-up, until the window that follows it closes its round.
	pendingSetupSec    float64
	pendingSetupFactor float64
	rounds             []roundStats
	op                 driveResult // the timed operations, pooled over the rounds
	sliceFactors       []float64   // host factor of every slice
	allocBytes         uint64
	gcPauseNs          uint64
	heapInuse          uint64 // largest value seen at a window end
	counters           map[string]int64
	fingerprint        uint64
	refHash            uint64
	flopsPerOp         float64
}

// busySec is the measured length of all timed windows.
func (s *windowStats) busySec() float64 {
	var t float64
	for _, r := range s.rounds {
		t += r.busySec
	}
	return t
}

func counterDelta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// roundPlan is what startRound needs to set a workload up.
type roundPlan struct {
	seed      int64
	warmup    time.Duration
	fullCheck bool // check references against cpuspgemm.Sequential
	ref       *refKernel
}

// startRound performs set-up -> verify -> warm-up of one round. The
// instance stays open for the caller's timed window (and, in the traced
// run, the replay of deeper levels) and must be closed by it.
func startRound(w workload, p roundPlan, st *windowStats) (*instance, *driver, error) {
	clients := w.clients()
	refBefore := p.ref.sampleMs()
	t0 := time.Now()
	in, err := w.gen(p.seed)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
	}
	inst, err := w.setup(in, clients)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	st.pendingSetupSec = time.Since(t0).Seconds()
	st.pendingSetupFactor = hostFactor(refBefore, p.ref.sampleMs())
	if err := inst.verify(p.fullCheck); err != nil {
		inst.close()
		return nil, nil, &verificationError{fmt.Errorf("%s: %w", w.name, err)}
	}
	if h := inst.refFingerprint(); st.refHash == 0 {
		st.refHash = h
	} else if h != st.refHash {
		inst.close()
		return nil, nil, &verificationError{fmt.Errorf("%s: references of this round differ from the first round's", w.name)}
	}
	st.fingerprint, st.flopsPerOp = in.fingerprint(), inst.flopsPerOp
	d := newDriver(inst)
	if warm := d.driveOp(w, p.warmup); warm.failed > 0 {
		inst.close()
		return nil, nil, &verificationError{fmt.Errorf("%s: warm-up: %d of %d operations failed: %w", w.name, warm.failed, warm.attempted, warm.firstErr)}
	}
	return inst, d, nil
}

// timedWindow runs one timed window of the workload's operation and
// folds it into st. A window that has fewer than minGood successful
// operations when its time is up (the host can run at half speed for
// minutes) goes on until it has them, for at most three times its
// length.
func timedWindow(w workload, inst *instance, d *driver, window time.Duration, minGood int, ref *refKernel, tr *tracer, st *windowStats) {
	var before map[string]int64
	if inst.counters != nil {
		before = inst.counters()
	}
	runtime.GC()
	m0 := readMem()
	run := d.slicedRun([]level{{name: w.name, call: inst.op}}, window, 3*window, minGood, ref, tr)
	m1 := readMem()
	res := run.levels[0]
	st.op.merge(res)
	st.sliceFactors = append(st.sliceFactors, run.factors...)
	round := roundStats{ops: len(res.latMs), busySec: run.busySec, nominalSec: run.nominalSec}
	if st.pendingSetupSec > 0 {
		// The two reference samples around a set-up scatter more than the
		// set-up does, so it is normalised by the median over them and the
		// slices of the window that follows it within seconds.
		round.setupSec = st.pendingSetupSec
		round.setupFactor = median(append([]float64{st.pendingSetupFactor}, run.factors...))
		st.pendingSetupSec = 0
	}
	st.rounds = append(st.rounds, round)
	st.allocBytes += m1.totalAlloc - m0.totalAlloc
	st.gcPauseNs += m1.pauseNs - m0.pauseNs
	if m1.heapInuse > st.heapInuse {
		st.heapInuse = m1.heapInuse
	}
	if inst.counters != nil {
		if st.counters == nil {
			st.counters = map[string]int64{}
		}
		for k, v := range counterDelta(before, inst.counters()) {
			st.counters[k] += v
		}
	}
}

// verificationError marks a wrong output (as opposed to a broken
// environment); both end the run with a non-zero exit.
type verificationError struct{ err error }

func (e *verificationError) Error() string { return "verification: " + e.err.Error() }
func (e *verificationError) Unwrap() error { return e.err }

// measure is the untraced run: rounds interleaved rounds over the
// selected workloads, in fixed order, each round a fresh set-up. Each
// window aims at its share of minSamples.
func measure(selected []workload, seed int64, rounds int, warmup, window time.Duration, minSamples int) ([]*windowStats, error) {
	stats := make([]*windowStats, len(selected))
	for i, w := range selected {
		stats[i] = &windowStats{name: w.name}
	}
	for r := 0; r < rounds; r++ {
		for i, w := range selected {
			ref := newRefKernel(w.clients())
			inst, d, err := startRound(w, roundPlan{seed: seed, warmup: warmup, fullCheck: r == 0, ref: ref}, stats[i])
			if err != nil {
				return nil, err
			}
			timedWindow(w, inst, d, window, (minSamples+rounds-1)/rounds, ref, nil, stats[i])
			inst.close()
			runtime.GC()
		}
	}
	return stats, nil
}
