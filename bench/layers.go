package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/accum"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/metrics"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// The traced run. Every layer is measured from outside: the operation
// of each workload is replayed at successively deeper public entry
// points under the workload's own client count, a span is recorded
// around every call, and a layer's self time is the median at its entry
// point minus the median one level down. Layers no workload reaches
// through a ladder (accumulators, fingerprints, JSON, generators, the
// simulated device's counts) are probed by direct calls.

const (
	// ladderDur and levelMinSamples bound one workload's replay: at
	// least that long and that many samples at every entry point.
	ladderDur       = 500 * time.Millisecond
	levelMinSamples = 10
	// probeDur and probeMinReps bound one direct-call probe.
	probeDur     = 120 * time.Millisecond
	probeMinReps = 5
)

// layerRun collects the per-layer metrics of one traced invocation.
type layerRun struct {
	tr      *tracer
	values  map[string]float64
	notes   []string
	inputs  map[string]*inputSet // each workload's generated matrices, for the probes
	genEdge int64
	genSec  float64
}

// replayLadder replays a set-up workload's operation and every deeper
// level, interleaved and sliced like a timed window, and returns the
// median latency in ms at each entry point, outermost first: as
// measured (what the per-layer metrics are made of) and host-normalised
// (what can be held against the untraced window's figure).
func (lr *layerRun) replayLadder(w workload, inst *instance, d *driver, ref *refKernel) (raw, norm []float64, top driveResult, err error) {
	levels := append([]level{{name: w.name, call: inst.op}}, inst.ladder...)
	run := d.slicedRun(levels, ladderDur, 8*ladderDur+2*time.Second, levelMinSamples, ref, lr.tr)
	raw, norm = make([]float64, len(levels)), make([]float64, len(levels))
	for i, res := range run.levels {
		if res.failed > 0 {
			err := fmt.Errorf("%s: level %s: %w", w.name, levels[i].name, res.firstErr)
			if i == 0 {
				err = &verificationError{err}
			}
			return nil, nil, run.levels[0], err
		}
		raw[i], norm[i] = median(res.latMs), median(res.normMs())
	}
	return raw, norm, run.levels[0], nil
}

// spanMedianMs is the median duration of the named spans.
func (lr *layerRun) spanMedianMs(name string) float64 { return median(lr.tr.durationsMs(name)) }

// timeMedianNs calls fn until both probeDur has passed and
// probeMinReps calls were made, and returns the median call time in ns.
func timeMedianNs(fn func()) float64 {
	var ds []float64
	start := time.Now()
	for len(ds) < probeMinReps || time.Since(start) < probeDur {
		t0 := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t0)))
	}
	return median(ds)
}

// fromLadders turns each workload's level medians into the named
// self-time metrics.
func (lr *layerRun) fromLadders(meds map[string][]float64) error {
	v := lr.values

	small := selfTimes(meds["serve_small_warm"]) // http, server, engine, numeric
	v["apiv1.http_hop_ms"] = small[0]
	v["serve.admit_self_ms"] = small[1]
	v["spgemm.plan_hit_self_ms"] = small[2]

	chain := selfTimes(meds["cluster_batch_chain"]) // coordinator, replica socket, SubmitBatch, node seconds
	v["cluster.hop_ms"] = chain[0]
	v["serve.batch_self_ms"] = chain[2]

	hyb := meds["lib_hybrid_ooc"] // engine, host-side parts
	v["core.sim_self_ms"] = hyb[0] - hyb[1]
	v["spgemm.plan_grid_ms"] = lr.spanMedianMs("spgemm.Plan")
	v["partition.col_panels_ms"] = lr.spanMedianMs("partition.ColPanels")
	v["core.assemble_ms"] = lr.spanMedianMs("core.AssembleChunks")
	g, err := newHybridGrid(nil, lr.inputs["lib_hybrid_ooc"].mats[0])
	if err != nil {
		return err
	}
	v["speck.compute_ns_per_product"] = lr.spanMedianMs("speck.Compute") * 1e6 / float64(g.gpuProducts)
	return nil
}

// kernelProbes measures the cpuspgemm layer on the five ladder rungs.
func (lr *layerRun) kernelProbes(rungs []rung, streamGBPerS float64) error {
	v := lr.values
	var total cpuspgemm.ClassStats
	names := total.Names()
	cover := make([]float64, len(names)) // the class's largest share of any rung's phase time
	var coldSec, computedBytes float64
	for _, r := range rungs {
		products := float64(r.ref.flops / 2)
		coldMs := lr.spanMedianMs("cpuspgemm.MultiplyPlanned:" + r.name)
		v["cpuspgemm.cold_ns_per_product."+r.name] = coldMs * 1e6 / products
		coldSec += coldMs / 1e3
		// Computed, not measured, traffic of the two-phase row-row
		// algorithm: A read in both phases, one B column id per product
		// in the symbolic phase and a column id plus a value in the
		// numeric phase, C written once.
		computedBytes += 2*float64(r.a.Bytes()) + products*(4+12) + float64(r.ref.c.Bytes())

		_, sym, err := cpuspgemm.MultiplyPlanned(r.a, r.b, cpuspgemm.Options{Threads: 1})
		if err != nil {
			return err
		}
		warmNs := timeMedianNs(func() {
			_, err = cpuspgemm.Numeric(sym, r.a, r.b, cpuspgemm.Options{Threads: 1})
		})
		if err != nil {
			return err
		}
		v["cpuspgemm.warm_ns_per_product."+r.name] = warmNs / products

		// One instrumented pass per rung: symbolic rows carry flops,
		// numeric rows carry nnz, so the two phases are reported apart.
		var cs cpuspgemm.ClassStats
		if _, err := cpuspgemm.Multiply(r.a, r.b, cpuspgemm.Options{Threads: 1, ClassStats: &cs}); err != nil {
			return err
		}
		var symNs, numNs int64
		for _, c := range cs.Classes {
			symNs += c.SymbolicNs
			numNs += c.NumericNs
		}
		for k, c := range cs.Classes {
			t := &total.Classes[k]
			t.Rows += c.Rows
			t.Flops += c.Flops
			t.Nnz += c.Nnz
			t.SymbolicNs += c.SymbolicNs
			t.NumericNs += c.NumericNs
			cover[k] = math.Max(cover[k], math.Max(ratio(float64(c.SymbolicNs), float64(symNs)), ratio(float64(c.NumericNs), float64(numNs))))
		}
	}
	var allNs int64
	for _, c := range total.Classes {
		allNs += c.SymbolicNs + c.NumericNs
	}
	for k, name := range names {
		c := total.Classes[k]
		v["cpuspgemm.symbolic_ns_per_product."+name] = ratio(float64(c.SymbolicNs), float64(c.Flops/2))
		v["cpuspgemm.numeric_ns_per_nnz."+name] = ratio(float64(c.NumericNs), float64(c.Nnz))
		v["cpuspgemm.class_time_share."+name] = ratio(float64(c.SymbolicNs+c.NumericNs), float64(allNs))
		if cover[k] < 0.1 {
			lr.notes = append(lr.notes, fmt.Sprintf("self-check: kernel class %s stays under 10 %% of every rung's phase time (%.3f): the ladder no longer exercises it", name, cover[k]))
		}
	}
	v["cpuspgemm.class_cover_min_share"] = slices.Min(cover)
	v["cpuspgemm.computed_gb_per_s"] = computedBytes / coldSec / 1e9
	v["cpuspgemm.stream_share"] = v["cpuspgemm.computed_gb_per_s"] / streamGBPerS
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// accumProbes times 256 Adds onto 64 distinct columns plus the Flush,
// per accumulator, through the public methods.
func (lr *layerRun) accumProbes() {
	const width, distinct, adds = 4096, 64, 256
	accs := []struct {
		name string
		acc  accum.Accumulator
	}{
		{"list", accum.NewList(distinct)},
		{"hash", accum.NewHash(distinct)},
		{"bitmap", accum.NewBitmap(width)},
		{"cseg", accum.NewCSeg(distinct)},
		{"dense", accum.NewDense(width)},
	}
	cols := make([]int32, 0, distinct)
	vals := make([]float64, 0, distinct)
	for _, a := range accs {
		const batch = 200 // one Add x256 + Flush is ~1 us: time batches
		ns := timeMedianNs(func() {
			for b := 0; b < batch; b++ {
				for j := 0; j < adds; j++ {
					a.acc.Add(int32((j%distinct)*61), 1.5)
				}
				cols, vals = a.acc.Flush(cols[:0], vals[:0])
			}
		})
		lr.values["accum.add_flush_ns."+a.name] = ns / batch
	}
}

// csrProbes times the O(nnz) scans a request pays per operand, on the
// widest ladder input (2.2 M non-zeros, 27 MB: beyond L2).
func (lr *layerRun) csrProbes(top, band *spgemm.Matrix) error {
	gb := float64(band.Bytes()) / 1e9
	var sink uint64
	ns := timeMedianNs(func() { sink += csr.Fingerprint(band) + csr.FingerprintValues(band) })
	lr.values["csr.fingerprint_gb_per_s"] = gb / (ns / 1e9)
	var err error
	ns = timeMedianNs(func() { err = band.Validate() })
	if err != nil {
		return err
	}
	lr.values["csr.validate_gb_per_s"] = gb / (ns / 1e9)
	ns = timeMedianNs(func() { sink += uint64(csr.Flops(top, band)) })
	lr.values["csr.flops_scan_ns_per_nnz"] = ns / float64(top.Nnz())
	spinSink += sink
	return nil
}

// wireProbes times the JSON payload path on one payload product and
// the store's put on one payload input.
func (lr *layerRun) wireProbes(in *spgemm.Matrix) error {
	ref, err := localProduct(in, in)
	if err != nil {
		return err
	}
	var buf []byte
	ns := timeMedianNs(func() { buf, err = json.Marshal(apiv1.MatrixDataFrom(ref.c)) })
	if err != nil {
		return err
	}
	mb := float64(len(buf)) / 1e6
	lr.values["apiv1.encode_mb_per_s"] = mb / (ns / 1e9)
	ns = timeMedianNs(func() {
		var d apiv1.MatrixData
		if err = json.Unmarshal(buf, &d); err == nil {
			_, err = d.Matrix()
		}
	})
	if err != nil {
		return err
	}
	lr.values["apiv1.decode_mb_per_s"] = mb / (ns / 1e9)

	rep := newReplica()
	defer rep.close()
	var putNs []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		h, err := rep.srv.StoreMatrix(in)
		putNs = append(putNs, float64(time.Since(t0)))
		if err != nil {
			return err
		}
		rep.srv.DeleteMatrix(h) // so the next put is not a dedup hit
	}
	lr.values["serve.store_put_ms"] = median(putNs) / 1e6
	return nil
}

// engineProbes covers the spgemm facade: admission's cost estimate,
// the collector's overhead, and the simulated engines' counts.
func (lr *layerRun) engineProbes(small, rmat, hybridIn *spgemm.Matrix) error {
	v := lr.values
	var err error
	ns := timeMedianNs(func() { _, err = spgemm.EstimateCost("cpu", small, small, &spgemm.RunOptions{Threads: 1}) })
	if err != nil {
		return err
	}
	v["spgemm.estimate_cost_ms"] = ns / 1e6

	// Collector on vs off, alternating so drift hits both sides.
	cpu := mustEngine("cpu")
	var with, without []float64
	for i := 0; i < 9; i++ {
		for _, col := range []*spgemm.Collector{nil, spgemm.NewCollector()} {
			t0 := time.Now()
			if _, _, err := cpu.Run(rmat, rmat, &spgemm.RunOptions{Threads: 1, Metrics: col}); err != nil {
				return err
			}
			if col == nil {
				without = append(without, float64(time.Since(t0)))
			} else {
				with = append(with, float64(time.Since(t0)))
			}
		}
	}
	v["metrics.collector_overhead_share"] = median(with)/median(without) - 1

	// Simulated quantities repeat exactly for one input; they guard the
	// paper reproduction and must not move unless a change says so.
	reports := map[string]spgemm.Report{}
	for _, name := range []string{"hybrid", "gpu", "gpu-sync"} {
		_, rep, err := mustEngine(name).Run(hybridIn, hybridIn, hybridOpts())
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		reports[name] = rep
	}
	hs, ok := reports["hybrid"].(spgemm.HybridStats)
	if !ok {
		return fmt.Errorf("hybrid engine returned %T, not spgemm.HybridStats", reports["hybrid"])
	}
	gs, ok := reports["gpu"].(spgemm.Stats)
	if !ok {
		return fmt.Errorf("gpu engine returned %T, not spgemm.Stats", reports["gpu"])
	}
	v["hybrid.sim_gflops"] = hs.GFLOPS
	v["hybrid.gpu_flop_share"] = ratio(float64(hs.GPUFlops), float64(hs.GPUFlops+hs.CPUFlops))
	v["core.sim_transfer_fraction"] = gs.TransferFraction
	v["core.sim_async_speedup"] = reports["gpu-sync"].Seconds() / gs.TotalSec
	v["core.chunks"] = float64(hs.Chunks)
	v["gpusim.bytes_h2d_per_op"] = float64(hs.BytesH2D)
	v["gpusim.bytes_d2h_per_op"] = float64(hs.BytesD2H)
	return nil
}

// workloadDiagnostics derives the per-workload metrics from the target
// workload's untraced and traced windows.
func (lr *layerRun) workloadDiagnostics(w workload, untraced, traced *windowStats, normLevels []float64) {
	// Everything per-layer is as measured on this host (the end-to-end
	// metrics of the untraced run are host-normalised; bench.host_factor
	// is the factor between the two for this window).
	v := lr.values
	v["bench.op_p50_raw_ms"] = median(untraced.op.latMs)
	v["bench.host_factor"] = median(untraced.sliceFactors)
	v["bench.samples"] = float64(len(untraced.op.latMs))
	v["bench.flops_per_op"] = untraced.flopsPerOp
	v["bench.fail_share"] = ratio(float64(untraced.op.failed+traced.op.failed), float64(untraced.op.attempted+traced.op.attempted))
	// The two windows and the replay run minutes apart on a host whose
	// speed drifts, so these two ratios compare host-normalised medians.
	norm50 := median(untraced.op.normMs())
	v["bench.trace_overhead_share"] = median(traced.op.normMs())/norm50 - 1
	self := selfTimes(normLevels)
	gap := reconcileGap(norm50, self)
	v["bench.reconcile_gap_share"] = gap
	if gap > 0.15 {
		lr.notes = append(lr.notes, fmt.Sprintf("self-check: %s layer self times sum to %.3f ms against op_p50_ms %.3f, both host-normalised (gap %.1f %% > 15 %%)", w.name, sum(self), norm50, gap*100))
	}

	v["runtime.alloc_mb_per_op"] = ratio(float64(untraced.allocBytes)/1e6, float64(len(untraced.op.latMs)))
	v["runtime.gc_pause_ms_per_s"] = ratio(float64(untraced.gcPauseNs)/1e6, untraced.busySec())
	v["runtime.peak_heap_mb"] = float64(untraced.heapInuse) / 1e6

	// Library workloads have no serving layer: all time is engine time,
	// there is no plan cache and nothing can be shed.
	v["serve.engine_share"], v["serve.plan_cache_hit_rate"], v["serve.shed_share"] = 1, 0, 0
	if w.http {
		c := untraced.counters
		v["serve.engine_share"] = untraced.op.engineSec * 1e3 / sum(untraced.op.latMs)
		hits := c[metrics.CounterPlanCacheHits]
		v["serve.plan_cache_hit_rate"] = ratio(float64(hits), float64(hits+c[metrics.CounterPlanCacheMisses]))
		shed := c[metrics.CounterServeRejectedOverload] + c[metrics.CounterServeRejectedQueue] + c[metrics.CounterServeRejectedDraining]
		v["serve.shed_share"] = ratio(float64(shed), float64(shed+c[metrics.CounterServeAccepted]+c[metrics.CounterServeBatchesAccepted]))
	}
}

// traceRun is the traced invocation for one target workload: its
// untraced and traced windows, every workload's ladder, and the
// direct-call probes.
func traceRun(target workload, seed int64, window, warmup time.Duration, host *hostInfo) (*layerRun, *windowStats, error) {
	lr := &layerRun{tr: newTracer(), values: map[string]float64{}, inputs: map[string]*inputSet{}}
	ref := newRefKernel(target.clients())
	meds := map[string][]float64{}
	untraced := &windowStats{name: target.name}
	traced := &windowStats{name: target.name}

	for _, w := range workloads {
		isTarget := w.name == target.name
		st := &windowStats{name: w.name}
		plan := roundPlan{seed: seed, warmup: warmup / 2, fullCheck: isTarget, ref: ref}
		if isTarget {
			st, plan.warmup = untraced, warmup
		}
		inst, d, err := startRound(w, plan, st)
		if err != nil {
			return nil, nil, err
		}
		if isTarget {
			timedWindow(w, inst, d, window, 0, ref, nil, untraced)
			traced.flopsPerOp = untraced.flopsPerOp
			timedWindow(w, inst, d, window, 0, ref, lr.tr, traced)
			if failed := untraced.op.failed + traced.op.failed; failed > 0 {
				inst.close()
				return nil, nil, &verificationError{fmt.Errorf("%s: %d operations failed: %w", w.name, failed, firstError(untraced.op.firstErr, traced.op.firstErr))}
			}
		}
		// Counter-derived layer metrics come from the replay's level 0,
		// the only level that goes through every counter's owner; the
		// deeper levels of those two workloads bypass them.
		var before map[string]int64
		if inst.counters != nil {
			before = inst.counters()
		}
		m, normLevels, top, err := lr.replayLadder(w, inst, d, ref)
		if err == nil && inst.counters != nil {
			lr.counterMetrics(w.name, counterDelta(before, inst.counters()), top.attempted)
		}
		inst.close()
		runtime.GC()
		if err != nil {
			return nil, nil, err
		}
		meds[w.name] = m
		lr.notes = append(lr.notes, ladderNote(w, inst, m))
		lr.inputs[w.name] = inst.in
		lr.genEdge += inst.in.edges()
		lr.genSec += inst.in.sec
		if isTarget {
			lr.workloadDiagnostics(w, untraced, traced, normLevels)
		}
	}
	if err := lr.fromLadders(meds); err != nil {
		return nil, nil, fmt.Errorf("hybrid grid: %w", err)
	}
	lr.values["matgen.medges_per_s"] = float64(lr.genEdge) / 1e6 / lr.genSec

	rungs := lr.inputs["lib_cold_ladder"].rungs
	if err := lr.kernelProbes(rungs, host.StreamGBPerS); err != nil {
		return nil, nil, fmt.Errorf("kernel probes: %w", err)
	}
	lr.accumProbes()
	if err := lr.csrProbes(rungs[3].a, rungs[3].b); err != nil {
		return nil, nil, fmt.Errorf("csr probes: %w", err)
	}
	if err := lr.wireProbes(lr.inputs["serve_payload_cold"].mats[0]); err != nil {
		return nil, nil, fmt.Errorf("wire probes: %w", err)
	}
	if err := lr.engineProbes(lr.inputs["serve_small_warm"].mats[0], rungs[0].a, lr.inputs["lib_hybrid_ooc"].mats[0]); err != nil {
		return nil, nil, fmt.Errorf("engine probes: %w", err)
	}
	lr.values["host.stream_gb_per_s"] = host.StreamGBPerS
	lr.values["host.spin_ns_per_iter"] = host.SpinNsPerIterStart
	for name, val := range lr.values {
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return nil, nil, fmt.Errorf("per-layer metric %s is %v", name, val)
		}
	}
	return lr, untraced, nil
}

// counterMetrics derives the layer metrics that come from serving
// counters over ops operations of the named workload.
func (lr *layerRun) counterMetrics(name string, delta map[string]int64, ops int) {
	switch name {
	case "serve_payload_cold":
		lr.values["apiv1.wire_bytes_per_op"] = ratio(float64(delta[counterWireBytes]), float64(ops))
	case "cluster_batch_chain":
		req := float64(delta[metrics.CounterClusterRequests])
		failovers := delta[metrics.CounterClusterFailovers]
		lr.values["cluster.owner_route_share"] = ratio(req-float64(failovers), req)
		lr.values["cluster.retries_per_op"] = ratio(float64(failovers+delta[metrics.CounterClusterRetries]+delta[metrics.CounterClusterSpillReuploadBatch]), req)
	}
}

func firstError(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// ladderNote renders one workload's entry-point medians for the table.
func ladderNote(w workload, inst *instance, meds []float64) string {
	s := fmt.Sprintf("ladder %s (p50 ms, %d caller(s)): op %.3f", w.name, inst.clients, meds[0])
	for i, lv := range inst.ladder {
		s += fmt.Sprintf(" > %s %.3f", lv.name, meds[i+1])
	}
	return s
}
