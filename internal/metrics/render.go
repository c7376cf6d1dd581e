package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Text rendering: the Gantt-style schedule view of the paper's
// Figures 5 and 6 and the per-lane utilization table. These operate on
// a plain span slice of one domain.

// Gantt renders spans as one row per lane over width character cells
// spanning [0, latest end]. Cells covered by a span show '#', idle
// cells '.'. Spans from different domains should not be mixed in one
// call (their clocks are unrelated); pass Collector.SpansIn.
func Gantt(spans []Span, width int) string {
	if len(spans) == 0 {
		return "(empty timeline)\n"
	}
	var end int64
	lanes := map[string][]Span{}
	var order []string
	for _, s := range spans {
		if s.End > end {
			end = s.End
		}
		if _, ok := lanes[s.Lane]; !ok {
			order = append(order, s.Lane)
		}
		lanes[s.Lane] = append(lanes[s.Lane], s)
	}
	sort.Strings(order)
	if end == 0 {
		end = 1
	}

	var b strings.Builder
	nameW := 0
	for _, l := range order {
		if len(l) > nameW {
			nameW = len(l)
		}
	}
	cell := func(lane string, i int) byte {
		lo := end * int64(i) / int64(width)
		hi := end * int64(i+1) / int64(width)
		if hi == lo {
			hi = lo + 1
		}
		for _, s := range lanes[lane] {
			if s.Start < hi && s.End > lo {
				return '#'
			}
		}
		return '.'
	}
	for _, lane := range order {
		fmt.Fprintf(&b, "%-*s |", nameW, lane)
		for i := 0; i < width; i++ {
			b.WriteByte(cell(lane, i))
		}
		b.WriteString("|\n")
	}
	fmt.Fprintf(&b, "%-*s  0%*s\n", nameW, "", width-1, fmt.Sprintf("%.3fms", float64(end)/1e6))
	return b.String()
}

// SpansIn returns a copy of the spans of one domain in recording order:
// with Sim, a simulated run's timeline (kernel, DMA and barrier spans),
// the input of Gantt and Utilizations.
func (c *Collector) SpansIn(d Domain) []Span {
	var out []Span
	for _, s := range c.Spans() {
		if s.Domain == d {
			out = append(out, s)
		}
	}
	return out
}

// Utilization reports one lane's busy time and its fraction of the
// makespan.
type Utilization struct {
	Lane string
	// BusyNs is the lane's total span time in nanoseconds.
	BusyNs int64
	// Fraction is BusyNs over the latest span end.
	Fraction float64
}

// Utilizations computes per-lane busy fractions, lanes sorted by name.
func Utilizations(spans []Span) []Utilization {
	var end int64
	busy := map[string]int64{}
	var order []string
	for _, s := range spans {
		if s.End > end {
			end = s.End
		}
		if _, ok := busy[s.Lane]; !ok {
			order = append(order, s.Lane)
		}
		busy[s.Lane] += s.Dur()
	}
	sort.Strings(order)
	out := make([]Utilization, 0, len(order))
	for _, lane := range order {
		u := Utilization{Lane: lane, BusyNs: busy[lane]}
		if end > 0 {
			u.Fraction = float64(busy[lane]) / float64(end)
		}
		out = append(out, u)
	}
	return out
}

// FprintUtilization writes the utilization table of a span set.
func FprintUtilization(w io.Writer, spans []Span) error {
	for _, u := range Utilizations(spans) {
		if _, err := fmt.Fprintf(w, "%-8s %8.3f ms  %5.1f%%\n",
			u.Lane, float64(u.BusyNs)/1e6, u.Fraction*100); err != nil {
			return err
		}
	}
	return nil
}
