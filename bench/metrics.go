package main

// metricDef names one metric of the record. BENCHMARK.json lists the
// same names, units, directions and bounds; bench_test.go keeps the two
// in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression
	// (per-layer metrics have none).
	Bound float64
}

// endToEnd are the metrics a user of the system sees, reported for
// every workload by the untraced run.
var endToEnd = []metricDef{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// failShareBound is fail_share's bound, absolute rather than relative:
// the metric is 0 on a healthy run, so it is kept out of endToEnd (the
// driver's contract wants metrics that are never 0) and carried by the
// attempted/failed counts instead. -compare still judges it.
const failShareBound = 0.001

var (
	classSuffixes = []string{"list", "hash", "dense", "cseg"}
	accumSuffixes = []string{"list", "hash", "bitmap", "cseg", "dense"}
)

func family(prefix, unit, better string, suffixes []string) []metricDef {
	out := make([]metricDef, len(suffixes))
	for i, s := range suffixes {
		out[i] = metricDef{Name: prefix + "." + s, Unit: unit, Better: better}
	}
	return out
}

// perLayer are the single-layer metrics of the traced run, named after
// the package they measure.
var perLayer = concat(
	family("cpuspgemm.cold_ns_per_product", "ns", "lower", rungNames),
	family("cpuspgemm.warm_ns_per_product", "ns", "lower", rungNames),
	family("cpuspgemm.symbolic_ns_per_product", "ns", "lower", classSuffixes),
	family("cpuspgemm.numeric_ns_per_nnz", "ns", "lower", classSuffixes),
	family("cpuspgemm.class_time_share", "ratio", "lower", classSuffixes),
	[]metricDef{
		{Name: "cpuspgemm.class_cover_min_share", Unit: "ratio", Better: "higher"},
		{Name: "cpuspgemm.computed_gb_per_s", Unit: "GB/s", Better: "higher"},
		{Name: "cpuspgemm.stream_share", Unit: "ratio", Better: "higher"},
	},
	family("accum.add_flush_ns", "ns", "lower", accumSuffixes),
	[]metricDef{
		{Name: "csr.fingerprint_gb_per_s", Unit: "GB/s", Better: "higher"},
		{Name: "csr.validate_gb_per_s", Unit: "GB/s", Better: "higher"},
		{Name: "csr.flops_scan_ns_per_nnz", Unit: "ns", Better: "lower"},
		{Name: "spgemm.plan_hit_self_ms", Unit: "ms", Better: "lower"},
		{Name: "spgemm.estimate_cost_ms", Unit: "ms", Better: "lower"},
		{Name: "spgemm.plan_grid_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.admit_self_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.batch_self_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.store_put_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.engine_share", Unit: "ratio", Better: "higher"},
		{Name: "serve.plan_cache_hit_rate", Unit: "ratio", Better: "higher"},
		{Name: "serve.shed_share", Unit: "ratio", Better: "lower"},
		{Name: "apiv1.http_hop_ms", Unit: "ms", Better: "lower"},
		{Name: "apiv1.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
		{Name: "apiv1.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
		{Name: "apiv1.wire_bytes_per_op", Unit: "bytes", Better: "lower"},
		{Name: "cluster.hop_ms", Unit: "ms", Better: "lower"},
		{Name: "cluster.owner_route_share", Unit: "ratio", Better: "higher"},
		{Name: "cluster.retries_per_op", Unit: "count", Better: "lower"},
		{Name: "partition.col_panels_ms", Unit: "ms", Better: "lower"},
		{Name: "speck.compute_ns_per_product", Unit: "ns", Better: "lower"},
		{Name: "core.assemble_ms", Unit: "ms", Better: "lower"},
		{Name: "core.sim_self_ms", Unit: "ms", Better: "lower"},
		{Name: "hybrid.sim_gflops", Unit: "GFLOPS", Better: "higher"},
		{Name: "hybrid.gpu_flop_share", Unit: "ratio", Better: "higher"},
		{Name: "core.sim_transfer_fraction", Unit: "ratio", Better: "lower"},
		{Name: "core.sim_async_speedup", Unit: "ratio", Better: "higher"},
		{Name: "core.chunks", Unit: "count", Better: "lower"},
		{Name: "gpusim.bytes_h2d_per_op", Unit: "bytes", Better: "lower"},
		{Name: "gpusim.bytes_d2h_per_op", Unit: "bytes", Better: "lower"},
		{Name: "matgen.medges_per_s", Unit: "1/s", Better: "higher"},
		{Name: "metrics.collector_overhead_share", Unit: "ratio", Better: "lower"},
		{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower"},
		{Name: "runtime.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
		{Name: "runtime.peak_heap_mb", Unit: "MB", Better: "lower"},
		{Name: "host.stream_gb_per_s", Unit: "GB/s", Better: "higher"},
		{Name: "host.spin_ns_per_iter", Unit: "ns", Better: "lower"},
		{Name: "bench.op_p50_raw_ms", Unit: "ms", Better: "lower"},
		{Name: "bench.host_factor", Unit: "ratio", Better: "lower"},
		{Name: "bench.samples", Unit: "count", Better: "higher"},
		{Name: "bench.flops_per_op", Unit: "count", Better: "higher"},
		{Name: "bench.fail_share", Unit: "ratio", Better: "lower"},
		{Name: "bench.reconcile_gap_share", Unit: "ratio", Better: "lower"},
		{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	},
)

func concat(parts ...[]metricDef) []metricDef {
	var out []metricDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndValues derives the end-to-end metrics of one workload from
// its accumulated rounds. All four are host-normalised (refkernel.go):
// every measured time is divided by the host factor recorded beside it.
func endToEndValues(s *windowStats) map[string]float64 {
	norm := s.op.normMs()
	var opsPerS, setupS []float64
	for _, r := range s.rounds {
		opsPerS = append(opsPerS, float64(r.ops)/r.nominalSec)
		setupS = append(setupS, r.setupSec/r.setupFactor)
	}
	return map[string]float64{
		"op_p50_ms": median(norm),
		"op_p90_ms": percentile(norm, 0.9),
		"ops_per_s": median(opsPerS),
		"setup_s":   median(setupS),
	}
}

// asMeasured is the same without the host factors: what this host
// delivered.
func asMeasured(s *windowStats) map[string]float64 {
	var setupS []float64
	for _, r := range s.rounds {
		setupS = append(setupS, r.setupSec)
	}
	return map[string]float64{
		"op_p50_ms":   median(s.op.latMs),
		"op_p90_ms":   percentile(s.op.latMs, 0.9),
		"ops_per_s":   float64(len(s.op.latMs)) / s.busySec(),
		"setup_s":     median(setupS),
		"host_factor": median(s.sliceFactors),
	}
}

func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
