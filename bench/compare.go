package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// judge compares side B against side A for one metric. A difference
// counts only beyond the bound; when either side's own interquartile
// spread exceeds the bound the metric is unresolved, not unchanged.
// bound is a share of A's median unless absolute is set.
func judge(a, b []float64, better string, bound float64, absolute bool) (verdict string, diff float64) {
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	spreadA, spreadB := aq3-aq1, bq3-bq1
	diff = bmed - amed
	if !absolute {
		spreadA, spreadB, diff = spreadA/amed, spreadB/bmed, diff/amed
	}
	worse := diff
	if better == "higher" {
		worse = -diff
	}
	switch {
	case math.IsNaN(diff):
		return verdictUnresolved, diff
	case spreadA > bound || spreadB > bound:
		return verdictUnresolved, diff
	case worse > bound:
		return verdictWorse, diff
	case worse < -bound:
		return verdictBetter, diff
	}
	return verdictSame, diff
}

// compareFiles reads result files taken alternately (A B A B ...),
// prints one row per workload and end-to-end metric, and returns the
// process exit code: 1 if any row is worse, 2 on unusable input.
func compareFiles(w io.Writer, paths []string) int {
	if len(paths) < 2 || len(paths)%2 != 0 {
		fmt.Fprintln(os.Stderr, "bench: -compare needs an even number of result files, taken alternately: A B A B ...")
		return 2
	}
	// side -> workload -> metric -> values
	sides := [2]map[string]map[string][]float64{{}, {}}
	for i, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		var rf resultFile
		if err := json.Unmarshal(buf, &rf); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p, err)
			return 2
		}
		if rf.Traced {
			fmt.Fprintf(os.Stderr, "bench: %s is a traced run; end-to-end metrics come from untraced runs\n", p)
			return 2
		}
		side := sides[i%2]
		for _, wr := range rf.Workloads {
			if side[wr.Name] == nil {
				side[wr.Name] = map[string][]float64{}
			}
			for name, mv := range wr.Metrics {
				side[wr.Name][name] = append(side[wr.Name][name], mv.Value)
			}
			side[wr.Name]["fail_share"] = append(side[wr.Name]["fail_share"], wr.FailShare)
		}
	}
	defs := append(append([]metricDef(nil), endToEnd...), metricDef{Name: "fail_share", Unit: "ratio", Better: "lower", Bound: failShareBound})
	fmt.Fprintf(w, "%-20s %-10s %-5s %34s %34s %9s %7s  %s\n", "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "diff", "bound", "verdict")
	exit := 0
	for _, wl := range workloads {
		a, b := sides[0][wl.name], sides[1][wl.name]
		if a == nil || b == nil {
			continue
		}
		for _, d := range defs {
			absolute := d.Name == "fail_share"
			verdict, diff := judge(a[d.Name], b[d.Name], d.Better, d.Bound, absolute)
			if verdict == verdictWorse {
				exit = 1
			}
			diffText, boundText := fmt.Sprintf("%+.1f%%", diff*100), fmt.Sprintf("%.0f%%", d.Bound*100)
			if absolute {
				diffText, boundText = fmt.Sprintf("%+.4f", diff), fmt.Sprintf("%.3f", d.Bound)
			}
			fmt.Fprintf(w, "%-20s %-10s %-5s %34s %34s %9s %7s  %s\n", wl.name, d.Name, d.Unit, quartileText(a[d.Name]), quartileText(b[d.Name]), diffText, boundText, verdict)
		}
	}
	return exit
}

func quartileText(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", med, q1, q3)
}
