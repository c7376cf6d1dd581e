package core_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/metrics"
)

// laneOrder returns the labels of one lane's spans in start-time order.
func laneOrder(tl []metrics.Span, lane string) []string {
	var spans []metrics.Span
	for _, s := range tl {
		if s.Lane == lane {
			spans = append(spans, s)
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Label
	}
	return out
}

// overlap reports the total time during which both lanes were busy
// simultaneously — the quantity asynchronous execution maximizes.
func overlap(tl []metrics.Span, laneA, laneB string) int64 {
	var as, bs []metrics.Span
	for _, s := range tl {
		switch s.Lane {
		case laneA:
			as = append(as, s)
		case laneB:
			bs = append(bs, s)
		}
	}
	var total int64
	for _, a := range as {
		for _, b := range bs {
			if lo, hi := max(a.Start, b.Start), min(a.End, b.End); hi > lo {
				total += hi - lo
			}
		}
	}
	return total
}

func sampleTimeline() []metrics.Span {
	return []metrics.Span{
		{Domain: metrics.Sim, Start: 0, End: 1e9, Lane: "kernel", Label: "k0"},
		{Domain: metrics.Sim, Start: 1e9, End: 3e9, Lane: "d2h", Label: "t0"},
		{Domain: metrics.Sim, Start: 2e9, End: 3e9, Lane: "kernel", Label: "k1"},
	}
}

func TestLaneOrder(t *testing.T) {
	order := laneOrder(sampleTimeline(), "kernel")
	if len(order) != 2 || order[0] != "k0" || order[1] != "k1" {
		t.Fatalf("order = %v", order)
	}
}

func TestOverlap(t *testing.T) {
	// kernel k1 [2,3] overlaps d2h t0 [1,3] for 1s.
	if got := overlap(sampleTimeline(), "kernel", "d2h"); got != 1e9 {
		t.Fatalf("overlap = %v", got)
	}
	if got := overlap(sampleTimeline(), "kernel", "nothing"); got != 0 {
		t.Fatalf("overlap with empty lane = %v", got)
	}
}

// TestAsyncScheduleMatchesFigure6 is the schedule-correctness test of
// the asynchronous pipeline: on the device-to-host engine, chunk i's
// row-info transfer must be followed by chunk i-1's first output
// portion, then chunk i's nnz info, then chunk i-1's second portion —
// the numbered order of the paper's Figure 6.
func TestAsyncScheduleMatchesFigure6(t *testing.T) {
	a := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 55)
	_, tl := timeline(t, a, a, testCfg(64<<20), core.Options{RowPanels: 1, ColPanels: 3, Async: true})
	got := laneOrder(tl, "d2h")
	want := []string{
		"row info c0",
		"nnz info c0",
		"row info c1",
		"output p1 c0", // overlaps symbolic of c1
		"nnz info c1",
		"output p2 c0", // overlaps numeric of c1
		"row info c2",
		"output p1 c1",
		"nnz info c2",
		"output p2 c1",
		"output p1 c2",
		"output p2 c2",
	}
	if len(got) != len(want) {
		t.Fatalf("d2h schedule has %d transfers, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("d2h schedule position %d = %q, want %q\nfull: %v", i, got[i], want[i], got)
		}
	}
}

// TestAsyncOverlapExceedsSync verifies the async pipeline actually
// overlaps kernels with device-to-host transfers while the synchronous
// baseline does not.
func TestAsyncOverlapExceedsSync(t *testing.T) {
	a := matgen.RMAT(10, 10, 0.57, 0.19, 0.19, 56)
	cfg := testCfg(128 << 20)
	_, syncTl := timeline(t, a, a, cfg, core.Options{RowPanels: 3, ColPanels: 3})
	_, asyncTl := timeline(t, a, a, cfg, core.Options{RowPanels: 3, ColPanels: 3, Async: true})
	syncOv := overlap(syncTl, "kernel", "d2h")
	asyncOv := overlap(asyncTl, "kernel", "d2h")
	if syncOv != 0 {
		t.Fatalf("synchronous run overlapped kernels with D2H for %v", syncOv)
	}
	if asyncOv == 0 {
		t.Fatal("asynchronous run achieved no kernel/D2H overlap")
	}
}

func TestGanttOnRealRun(t *testing.T) {
	a := matgen.Band(400, 3, 57)
	_, tl := timeline(t, a, a, testCfg(32<<20), core.Options{RowPanels: 2, ColPanels: 2, Async: true})
	g := metrics.Gantt(tl, 60)
	for _, lane := range []string{"kernel", "d2h", "h2d"} {
		if !strings.Contains(g, lane) {
			t.Fatalf("gantt missing lane %s:\n%s", lane, g)
		}
	}
	// Smoke the utilization table on the real data too.
	var buf bytes.Buffer
	if err := metrics.FprintUtilization(&buf, tl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "kernel") {
		t.Fatalf("utilization table:\n%s", buf.String())
	}
	if testing.Verbose() {
		fmt.Println(g)
		fmt.Println(buf.String())
	}
}
