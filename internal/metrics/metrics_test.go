package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	c.Add("x", 1)
	c.Set("y", 2)
	c.SimSpan("kernel", "k", 0, 10)
	c.AddSpan(Span{})
	c.StartWall("cpu", "phase")() // stop func of nil collector
	c.ImportSim([]sim.Span{{Lane: "h2d"}})
	if c.Counter("x") != 0 || c.Spans() != nil || c.Counters() != nil || c.Snapshot() != nil {
		t.Fatal("nil collector returned data")
	}
	if c.LaneBusy(Sim, "kernel") != 0 || c.Makespan(Sim) != 0 {
		t.Fatal("nil collector accounted time")
	}
	tr := c.BuildChromeTrace()
	if len(tr.TraceEvents) != 0 {
		t.Fatal("nil collector built trace events")
	}
}

func TestCountersAndSpans(t *testing.T) {
	c := New()
	c.Add(CounterFlops, 100)
	c.Add(CounterFlops, 23)
	c.Set(CounterChunks, 4)
	if got := c.Counter(CounterFlops); got != 123 {
		t.Fatalf("flops counter = %d, want 123", got)
	}
	c.SimSpan("kernel", "numeric c0", 0, 1000)
	c.SimSpan("kernel", "numeric c1", 1500, 2000)
	c.SimSpan("d2h", "output c0", 500, 2500)
	if got := c.LaneBusy(Sim, "kernel"); got != 1500 {
		t.Fatalf("kernel busy = %d, want 1500", got)
	}
	if got := c.Makespan(Sim); got != 2500 {
		t.Fatalf("makespan = %d, want 2500", got)
	}

	snap := c.Snapshot()
	for key, want := range map[string]int64{
		CounterFlops:         123,
		CounterChunks:        4,
		"sim.kernel_busy_ns": 1500,
		"sim.d2h_busy_ns":    2000,
		"sim.makespan_ns":    2500,
	} {
		if snap[key] != want {
			t.Errorf("snapshot[%q] = %d, want %d", key, snap[key], want)
		}
	}
	keys := SnapshotKeys(snap)
	if !sort_IsSorted(keys) {
		t.Fatalf("snapshot keys not sorted: %v", keys)
	}
}

func sort_IsSorted(keys []string) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}

func TestWallSpans(t *testing.T) {
	c := New()
	stop := c.StartWall("cpu", "numeric phase")
	stop()
	spans := c.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Domain != Wall || s.Lane != "cpu" || s.End < s.Start {
		t.Fatalf("bad wall span %+v", s)
	}
}

// TestConcurrentRecording drives counters and spans from many
// goroutines; `go test -race ./internal/metrics/...` is the check the
// CI pins.
func TestConcurrentRecording(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	const workers, iters = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Add(CounterFlops, 2)
				c.SimSpan("kernel", "k", int64(i), int64(i+1))
				if i%16 == 0 {
					stop := c.StartWall("cpu", "chunk")
					stop()
					_ = c.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Counter(CounterFlops); got != workers*iters*2 {
		t.Fatalf("flops = %d, want %d", got, workers*iters*2)
	}
	spans := c.Spans()
	wallSpans := 0
	simSpans := 0
	for _, s := range spans {
		switch s.Domain {
		case Wall:
			wallSpans++
		case Sim:
			simSpans++
		}
	}
	if simSpans != workers*iters {
		t.Fatalf("sim spans = %d, want %d", simSpans, workers*iters)
	}
	if wallSpans != workers*((iters+15)/16) {
		t.Fatalf("wall spans = %d, want %d", wallSpans, workers*((iters+15)/16))
	}
}

func TestChromeTraceShape(t *testing.T) {
	c := New()
	c.SimSpan("kernel", "numeric c0", 0, 2000)
	c.SimSpan("d2h", "output c0", 1000, 3000)
	stop := c.StartWall("host", "assemble")
	stop()
	c.Add(CounterFlops, 42)

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	// Decode generically, as chrome://tracing would: a JSON object with
	// a traceEvents array whose events carry name/ph/ts/pid/tid.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	var complete, meta int
	for _, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event missing %q: %v", field, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			complete++
			if ev["dur"].(float64) < 0 {
				t.Fatalf("negative duration: %v", ev)
			}
		case "M":
			meta++
		}
	}
	if complete != 3 {
		t.Fatalf("complete events = %d, want 3", complete)
	}
	if meta < 2 {
		t.Fatalf("metadata events = %d, want >= 2 (process + thread names)", meta)
	}
	if !strings.Contains(buf.String(), "\"counters\"") {
		t.Fatal("counters summary event missing")
	}

	// Sim and wall spans must land in different Chrome processes.
	pids := map[any]bool{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			pids[ev["pid"]] = true
		}
	}
	if len(pids) != 2 {
		t.Fatalf("expected 2 trace processes (sim + wall), got %d", len(pids))
	}
}

// TestChromeTraceReconciles checks the acceptance property at the unit
// level: per-phase totals computed from the exported trace match the
// collector's own accounting within rounding (ns -> µs floats).
func TestChromeTraceReconciles(t *testing.T) {
	c := New()
	c.SimSpan("kernel", "numeric c0", 0, 1_000_000)
	c.SimSpan("kernel", "symbolic c1", 2_000_000, 2_700_000)
	c.SimSpan("d2h", "output c0", 500_000, 4_000_000)
	tr := c.BuildChromeTrace()
	var kernelUS, d2hUS float64
	for _, ev := range tr.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		switch ev.Cat {
		case "kernel":
			kernelUS += ev.Dur
		case "d2h":
			d2hUS += ev.Dur
		}
	}
	if want := float64(c.LaneBusy(Sim, "kernel")) / 1e3; !approxEqual(kernelUS, want) {
		t.Fatalf("kernel trace total %.3fµs != collector %.3fµs", kernelUS, want)
	}
	if want := float64(c.LaneBusy(Sim, "d2h")) / 1e3; !approxEqual(d2hUS, want) {
		t.Fatalf("d2h trace total %.3fµs != collector %.3fµs", d2hUS, want)
	}
}

func approxEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*(1+b)
}

func TestGanttAndUtilizations(t *testing.T) {
	spans := []Span{
		{Domain: Sim, Lane: "kernel", Label: "k", Start: 0, End: 50},
		{Domain: Sim, Lane: "d2h", Label: "t", Start: 50, End: 100},
	}
	g := Gantt(spans, 10)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt lines = %d, want 3:\n%s", len(lines), g)
	}
	if !strings.HasPrefix(lines[0], "d2h") || !strings.HasPrefix(lines[1], "kernel") {
		t.Fatalf("lanes not sorted:\n%s", g)
	}
	// kernel occupies the first half, d2h the second.
	if !strings.Contains(lines[1], "#####.....") {
		t.Fatalf("kernel row wrong:\n%s", g)
	}
	if !strings.Contains(lines[0], ".....#####") {
		t.Fatalf("d2h row wrong:\n%s", g)
	}

	us := Utilizations(spans)
	if len(us) != 2 {
		t.Fatalf("utilizations = %d, want 2", len(us))
	}
	for _, u := range us {
		if u.BusyNs != 50 || u.Fraction != 0.5 {
			t.Fatalf("bad utilization %+v", u)
		}
	}
	// A lane's busy time sums its spans.
	us = Utilizations(append(spans, Span{Domain: Sim, Lane: "kernel", Label: "k2", Start: 75, End: 100}))
	if u := us[1]; u.Lane != "kernel" || u.BusyNs != 75 || u.Fraction != 0.75 {
		t.Fatalf("kernel utilization over two spans: %+v", u)
	}
	if Gantt(nil, 10) != "(empty timeline)\n" {
		t.Fatal("empty gantt")
	}
}

func TestImportSim(t *testing.T) {
	c := New()
	c.ImportSim([]sim.Span{
		{Lane: "h2d", Label: "A panel c0", Start: 0, End: 100},
		{Lane: "kernel", Label: "numeric c0", Start: 100, End: 300},
	})
	if got := c.LaneBusy(Sim, "kernel"); got != 200 {
		t.Fatalf("kernel busy = %d, want 200", got)
	}
	c.StartWall("host", "assemble")()
	fs := c.SpansIn(Sim)
	if len(fs) != 2 || fs[0].Domain != Sim || fs[1].Label != "numeric c0" || fs[1].Dur() != 200 {
		t.Fatalf("SpansIn(Sim) wrong: %+v", fs)
	}
	if ws := c.SpansIn(Wall); len(ws) != 1 || ws[0].Label != "assemble" {
		t.Fatalf("SpansIn(Wall) wrong: %+v", ws)
	}
}
