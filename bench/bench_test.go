package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/spgemm"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestStatsArithmetic(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7, 2, 10, 4, 8, 6} // 1..10 shuffled
	if got := median(xs); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(xs, 0.9); !near(got, 9.1) {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	if got := percentile([]float64{4}, 0.9); got != 4 {
		t.Errorf("p90 of one value = %v, want 4", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	if q1, q2, q3 = quartiles([]float64{40, 10, 20}); q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("quartiles of three = %v %v %v, want 10 20 40", q1, q2, q3)
	}

	// Round medians: ops_per_s and setup_s are medians over rounds. Every
	// measured time is divided by the host factor recorded beside it: a
	// host at half speed (factor 2) reports half the measured times.
	twos := []float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}
	st := &windowStats{
		rounds: []roundStats{
			{setupSec: 1.0, setupFactor: 2, ops: 10, busySec: 2, nominalSec: 1},
			{setupSec: 0.2, setupFactor: 2, ops: 30, busySec: 2, nominalSec: 1},
			{setupSec: 0.6, setupFactor: 2, ops: 20, busySec: 2, nominalSec: 1},
		},
		op:           driveResult{latMs: xs, hostFactor: twos},
		sliceFactors: []float64{2, 2, 2},
	}
	e := endToEndValues(st)
	if e["ops_per_s"] != 20 || e["setup_s"] != 0.3 || !near(e["op_p50_ms"], 2.75) || !near(e["op_p90_ms"], 4.55) {
		t.Errorf("endToEndValues = %v", e)
	}
	m := asMeasured(st)
	if !near(m["ops_per_s"], 10.0/6) || m["setup_s"] != 0.6 || !near(m["op_p50_ms"], 5.5) || !near(m["op_p90_ms"], 9.1) || m["host_factor"] != 2 {
		t.Errorf("asMeasured = %v", m)
	}

	// Self times telescope: each layer keeps what the next does not cover.
	self := selfTimes([]float64{10, 7, 4, 1})
	want := []float64{3, 3, 3, 1}
	for i := range want {
		if !near(self[i], want[i]) {
			t.Errorf("selfTimes[%d] = %v, want %v", i, self[i], want[i])
		}
	}
	if gap := reconcileGap(12.5, self); !near(gap, 0.2) {
		t.Errorf("reconcileGap = %v, want 0.2", gap)
	}
}

func TestJudge(t *testing.T) {
	a := []float64{100, 101, 99, 100}
	cases := []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{103, 104, 102, 103}, "lower", verdictSame},
		{"worse", []float64{120, 121, 119, 120}, "lower", verdictWorse},
		{"better", []float64{80, 81, 79, 80}, "lower", verdictBetter},
		{"higher is better", []float64{120, 121, 119, 120}, "higher", verdictBetter},
		{"lower throughput is worse", []float64{80, 81, 79, 80}, "higher", verdictWorse},
		{"spread wider than the bound", []float64{80, 140, 100, 160}, "lower", verdictUnresolved},
	}
	for _, c := range cases {
		if got, _ := judge(a, c.b, c.better, 0.10, false); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// fail_share is judged on an absolute bound, from a zero baseline.
	if got, _ := judge([]float64{0, 0, 0}, []float64{0.01, 0.01, 0.01}, "lower", failShareBound, true); got != verdictWorse {
		t.Errorf("fail_share 0 -> 0.01: verdict %s, want worse", got)
	}
	if got, _ := judge([]float64{0, 0, 0}, []float64{0, 0, 0}, "lower", failShareBound, true); got != verdictSame {
		t.Errorf("fail_share 0 -> 0: verdict %s, want same", got)
	}
}

// firstProductFlops sums the flops of multiplying each generated matrix
// (or rung pair) once: a seed-determined count.
func firstProductFlops(in *inputSet) int64 {
	var n int64
	if len(in.rungs) > 0 {
		for _, r := range in.rungs {
			n += spgemm.Flops(r.a, r.b)
		}
		return n
	}
	for _, m := range in.mats {
		n += spgemm.Flops(m, m)
	}
	return n
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := w.gen(7)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, _ := w.gen(7)
		c, _ := w.gen(8)
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("%s: the same seed gave different input fingerprints", w.name)
		}
		if firstProductFlops(a) != firstProductFlops(b) {
			t.Errorf("%s: the same seed gave different flop counts", w.name)
		}
		if a.fingerprint() == c.fingerprint() {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w.name)
		}
	}
}

// TestCorruptedProductIsCaught flips one value of an otherwise correct
// product and expects the bit-identity check, the content-handle check
// and the runner's failure accounting to notice.
func TestCorruptedProductIsCaught(t *testing.T) {
	a := spgemm.ER(300, 300, 0.03, 5)
	ref, err := localProduct(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := againstSequential(a, a, ref); err != nil {
		t.Fatalf("correct reference rejected: %v", err)
	}
	if err := ref.same(ref.c); err != nil {
		t.Fatalf("correct product rejected: %v", err)
	}
	bad := ref.c.Clone()
	bad.Data[len(bad.Data)/2] += 1e-12
	if err := ref.same(bad); err == nil {
		t.Error("a product with one perturbed value passed the bit-identity check")
	}
	if err := againstSequential(a, a, newProduct(a, a, bad)); err != nil {
		t.Logf("(1e-12 is inside the 1e-9 tolerance against Sequential, as intended: %v)", err)
	}
	gross := ref.c.Clone()
	gross.Data[0] += 1
	if err := againstSequential(a, a, newProduct(a, a, gross)); err == nil {
		t.Error("a reference off by 1 passed the check against cpuspgemm.Sequential")
	}
	badRef := newProduct(a, a, bad)
	if badRef.handle == ref.handle {
		t.Error("a perturbed product kept the reference's content handle")
	}

	// Through the runner: every operation returns the corrupted product,
	// so every one must count as failed and none may leave a sample.
	inst := &instance{clients: 1, op: func(*opCtx) (opResult, error) {
		return opResult{check: func() error { return ref.same(bad) }}, nil
	}}
	res := newDriver(inst).driveOp(workload{name: "corrupt"}, 20*time.Millisecond)
	if res.attempted == 0 || res.failed != res.attempted || len(res.latMs) != 0 {
		t.Errorf("attempted=%d failed=%d samples=%d, want all failed and no samples", res.attempted, res.failed, len(res.latMs))
	}
	st := &windowStats{}
	timedWindow(workload{name: "corrupt"}, inst, newDriver(inst), 20*time.Millisecond, 0, newRefKernel(1), nil, st)
	if st.op.attempted == 0 || st.op.failed != st.op.attempted || len(st.op.latMs) != 0 {
		t.Errorf("window accounting: attempted=%d failed=%d samples=%d, want all failed and no samples", st.op.attempted, st.op.failed, len(st.op.latMs))
	}
	var verr *verificationError
	if err := validate([]*windowStats{st}, 0); !errors.As(err, &verr) {
		t.Errorf("a window of failed operations must end the run with a verification error, got %v", err)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metric
// catalogue in metrics.go in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.name)
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their why differs)", i, bj.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			unique(d.Name)
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound differs from the program's %v or is outside (0, 0.25]", d.Name, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
}

// TestSmokeAllWorkloads runs every workload end to end for one short
// round: servers on real sockets, verification against
// cpuspgemm.Sequential, and every end-to-end metric positive.
func TestSmokeAllWorkloads(t *testing.T) {
	// One 250 ms slice per workload; the sample-count rule is relaxed
	// through the struct field only the tests can reach.
	res, final, err := run(config{workload: "all", seed: 3, seconds: 0.25, rounds: 1, warmup: 50 * time.Millisecond, minSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !final.Correct || final.Failed != 0 || final.Attempted == 0 {
		t.Errorf("final line: %+v", final)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workload results, want %d", len(res.Workloads), len(workloads))
	}
	for _, w := range res.Workloads {
		if w.Failed != 0 || w.Samples == 0 || w.FlopsPerOp <= 0 {
			t.Errorf("%s: failed=%d samples=%d flops_per_op=%v", w.Name, w.Failed, w.Samples, w.FlopsPerOp)
		}
		for _, d := range endToEnd {
			if v := w.Metrics[d.Name]; !(v.Value > 0) || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", w.Name, d.Name, v)
			}
		}
	}
	if res.Host.NumCPU < 1 || res.Host.SpinNsPerIterStart <= 0 || res.Host.SpinNsPerIterEnd <= 0 {
		t.Errorf("host info incomplete: %+v", res.Host)
	}

}

// TestTooFewSamplesIsInvalid holds the rule that makes op_p90_ms valid:
// the command line always runs with 100, and a workload with fewer
// pooled samples is an invalid run, not a verification error.
func TestTooFewSamplesIsInvalid(t *testing.T) {
	if n := defaultConfig().minSamples; n != 100 {
		t.Errorf("default minSamples = %d, want 100 (ten samples beyond p90)", n)
	}
	few := &windowStats{name: "few", op: driveResult{latMs: make([]float64, 99), attempted: 99}}
	err := validate([]*windowStats{few}, 100)
	var verr *verificationError
	if err == nil || errors.As(err, &verr) {
		t.Errorf("99 samples must be an invalid run (and not a verification error), got %v", err)
	}
	few.op.latMs = make([]float64, 100)
	if err := validate([]*windowStats{few}, 100); err != nil {
		t.Errorf("100 samples rejected: %v", err)
	}
}

// TestSmokeTracedRun reports every per-layer metric as a finite number.
// It replays all five ladders and takes ~25 s, so -short skips it.
func TestSmokeTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run takes ~25 s")
	}
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.seconds, cfg.warmup, cfg.trace = "serve_small_warm", 3, 1, 50*time.Millisecond, 1
	res, final, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Correct || final.Failed != 0 {
		t.Errorf("final line: correct=%v failed=%d", final.Correct, final.Failed)
	}
	for _, d := range perLayer {
		v, ok := final.Metrics[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
			t.Errorf("%s = %+v (present %v)", d.Name, v, ok)
		}
	}
	if len(final.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, want %d", len(final.Metrics), len(perLayer))
	}
	if res.Host.StreamGBPerS <= 0 {
		t.Errorf("traced run did not calibrate stream bandwidth")
	}
}
