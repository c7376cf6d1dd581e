package spgemm

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/metrics"
)

// runOptsFor returns RunOptions that exercise each engine's machinery
// on a small matrix: a small device so the gpu engines go out-of-core,
// two GPUs for multigpu, a 2x2 grid for summa.
func runOptsFor(name string) *RunOptions {
	cfg := V100WithMemory(8 << 20)
	o := &RunOptions{Device: &cfg}
	switch name {
	case "multigpu":
		o.NumGPUs = 2
		o.UseCPU = true
	case "summa":
		o.SUMMA = SUMMAConfig{Q: 2, Pipelined: true}
	}
	return o
}

func TestEngineRegistry(t *testing.T) {
	names := Engines()
	want := []string{"auto", "cpu", "gpu", "gpu-sync", "hybrid", "multigpu", "summa"}
	if len(names) != len(want) {
		t.Fatalf("Engines() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Engines() = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		e, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != n {
			t.Fatalf("ByName(%q).Name() = %q", n, e.Name())
		}
		if e.Describe() == "" {
			t.Fatalf("engine %q has no description", n)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted an unknown engine")
	}
}

// TestEveryEngineRunsAndReports is the registry's contract test: every
// registered engine computes the exact product and returns a Report
// whose core quantities are consistent with it.
func TestEveryEngineRunsAndReports(t *testing.T) {
	a := RMAT(9, 8, 0.57, 0.19, 0.19, 11)
	ref, err := Multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Engines() {
		name := name
		t.Run(name, func(t *testing.T) {
			eng, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c, rep, err := eng.Run(a, a, runOptsFor(name))
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(c, ref, 1e-9) {
				t.Fatal("product differs from the CPU reference")
			}
			if rep == nil {
				t.Fatal("nil Report")
			}
			if rep.OutputNnz() != c.Nnz() {
				t.Fatalf("OutputNnz %d != nnz(C) %d", rep.OutputNnz(), c.Nnz())
			}
			if rep.FlopCount() <= 0 || rep.Seconds() <= 0 || rep.Throughput() <= 0 {
				t.Fatalf("degenerate report: flops=%d sec=%g gflops=%g",
					rep.FlopCount(), rep.Seconds(), rep.Throughput())
			}
			counters := rep.Counters()
			if counters[metrics.CounterNnzC] != c.Nnz() {
				t.Fatalf("counter nnz_c %d != nnz(C) %d", counters[metrics.CounterNnzC], c.Nnz())
			}
			if counters[metrics.CounterFlops] != rep.FlopCount() {
				t.Fatalf("counter flops %d != FlopCount %d", counters[metrics.CounterFlops], rep.FlopCount())
			}
		})
	}
}

// TestEngineCorruptInputRejected closes the validation hole: every
// engine, including multigpu and summa, must reject structurally
// corrupt operands at the API boundary.
func TestEngineCorruptInputRejected(t *testing.T) {
	a := Band(64, 2, 17)
	corrupt := a.Clone()
	corrupt.ColIDs[0] = 9999 // out of range
	for _, name := range Engines() {
		name := name
		t.Run(name, func(t *testing.T) {
			eng, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := eng.Run(corrupt, a, runOptsFor(name)); err == nil {
				t.Fatal("corrupt left operand accepted")
			}
			if _, _, err := eng.Run(a, corrupt, runOptsFor(name)); err == nil {
				t.Fatal("corrupt right operand accepted")
			}
		})
	}
}

// TestCounterParityAcrossSyncModes checks the counter semantics are
// mode-independent: the synchronous baseline and the asynchronous
// pipeline move the same payloads and do the same arithmetic, so their
// counters must agree exactly.
func TestCounterParityAcrossSyncModes(t *testing.T) {
	a := RMAT(9, 8, 0.57, 0.19, 0.19, 23)
	snapshots := map[string]map[string]int64{}
	for _, name := range []string{"gpu", "gpu-sync"} {
		eng, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		o := runOptsFor(name)
		o.Core = OutOfCoreOptions{RowPanels: 3, ColPanels: 3}
		o.Metrics = NewCollector()
		_, rep, err := eng.Run(a, a, o)
		if err != nil {
			t.Fatal(err)
		}
		snapshots[name] = rep.Counters()
		// The collector saw the same counters the report carries.
		for k, v := range rep.Counters() {
			if got := o.Metrics.Counter(k); got != v {
				t.Fatalf("%s: collector counter %s = %d, report says %d", name, k, got, v)
			}
		}
	}
	async, sync := snapshots["gpu"], snapshots["gpu-sync"]
	for _, k := range []string{
		metrics.CounterFlops, metrics.CounterNnzC, metrics.CounterChunks,
		metrics.CounterBytesH2D, metrics.CounterBytesD2H,
	} {
		if async[k] != sync[k] {
			t.Errorf("counter %s differs across modes: async %d, sync %d", k, async[k], sync[k])
		}
	}
}

// TestHybridTraceReconciles is the acceptance test of the metrics
// layer: a hybrid run's Chrome trace must be loadable (well-formed
// trace-event JSON) and its per-phase totals must reconcile with the
// collector and the engine Report within rounding.
func TestHybridTraceReconciles(t *testing.T) {
	a := RMAT(9, 8, 0.57, 0.19, 0.19, 31)
	eng, err := ByName("hybrid")
	if err != nil {
		t.Fatal(err)
	}
	o := runOptsFor("hybrid")
	o.Metrics = NewCollector()
	_, rep, err := eng.Run(a, a, o)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := o.Metrics.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.Unit == "" || len(doc.TraceEvents) == 0 {
		t.Fatal("trace missing displayTimeUnit or events")
	}

	// Shape: every event has the mandatory trace-event fields; complete
	// events carry non-negative timestamps and durations.
	simDurUs := 0.0 // total busy µs in the simulated domain (pid 1)
	var counterArgs map[string]any
	sawX := false
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if _, ok := ev["name"].(string); !ok || ph == "" {
			t.Fatalf("event missing name/ph: %v", ev)
		}
		pid, ok := ev["pid"].(float64)
		if !ok || (pid != 1 && pid != 2) {
			t.Fatalf("event with bad pid: %v", ev)
		}
		switch ph {
		case "X":
			sawX = true
			ts, tok := ev["ts"].(float64)
			dur, dok := ev["dur"].(float64)
			if !tok || !dok || ts < 0 || dur < 0 {
				t.Fatalf("complete event with bad ts/dur: %v", ev)
			}
			if pid == 1 {
				simDurUs += dur
			}
		case "I":
			if args, ok := ev["args"].(map[string]any); ok {
				counterArgs = args
			}
		}
	}
	if !sawX {
		t.Fatal("trace has no complete events")
	}

	// Reconcile: total simulated busy time in the trace equals the
	// collector's span totals (ns -> µs within rounding).
	var busyNs int64
	for _, s := range o.Metrics.Spans() {
		if s.Domain == metrics.Sim {
			busyNs += s.Dur()
		}
	}
	if got, want := simDurUs, float64(busyNs)/1e3; math.Abs(got-want) > 1e-3+1e-9*want {
		t.Fatalf("trace busy %.3fus != collector busy %.3fus", got, want)
	}

	// Reconcile: the report's duration matches the simulated makespan.
	makespan := float64(o.Metrics.Makespan(metrics.Sim))
	if sec := rep.Seconds() * 1e9; math.Abs(sec-makespan) > 0.01*sec {
		t.Fatalf("report %.0fns vs sim makespan %.0fns", sec, makespan)
	}

	// Reconcile: the counters instant event matches the report.
	if counterArgs == nil {
		t.Fatal("trace has no counters event")
	}
	for k, v := range rep.Counters() {
		got, ok := counterArgs[k].(float64)
		if !ok || int64(got) != v {
			t.Fatalf("trace counter %s = %v, report says %d", k, counterArgs[k], v)
		}
	}
}

// TestNilRunOptions checks that a nil *RunOptions means defaults.
func TestNilRunOptions(t *testing.T) {
	a := Band(64, 2, 5)
	eng, err := ByName("cpu")
	if err != nil {
		t.Fatal(err)
	}
	c, rep, err := eng.Run(a, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OutputNnz() != c.Nnz() {
		t.Fatal("report/nnz mismatch with nil options")
	}
}
