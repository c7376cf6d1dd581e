// Command spgemm-bench regenerates the tables and figures of the
// paper's evaluation section on the synthetic suite and the simulated
// CPU-GPU node.
//
// Usage:
//
//	spgemm-bench -exp=all
//	spgemm-bench -exp=fig7,table3 -csv=out
//
// -h lists the experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/trace"
)

// experiment is one named entry of -exp. run returns the table to
// print (and write as CSV), or nil when it printed its own output.
type experiment struct {
	name string
	run  func(runs []*exp.Run) (*exp.Table, error)
}

// experiments drives the -exp help text, the unknown-name error and the
// dispatch, in output order.
var experiments = []experiment{
	{"timeline", func(runs []*exp.Run) (*exp.Table, error) { return nil, printTimeline(runs) }},
	{"table1", func([]*exp.Run) (*exp.Table, error) { return exp.Table1(), nil }},
	{"table2", func(runs []*exp.Run) (*exp.Table, error) { return exp.Table2(runs), nil }},
	{"fig4", exp.Fig4},
	{"fig7", exp.Fig7},
	{"fig8", exp.Fig8},
	{"fig9", exp.Fig9},
	{"fig10", func(runs []*exp.Run) (*exp.Table, error) { return exp.Fig10(runs) }},
	{"table3", exp.Table3},
	{"scaling", func(runs []*exp.Run) (*exp.Table, error) { return exp.FigScaling(runs) }},
	{"ablation-ub", func(runs []*exp.Run) (*exp.Table, error) { return exp.AblationUpperBound(runs), nil }},
	{"ablation-um", exp.AblationUnifiedMemory},
	{"ablation-split", func(runs []*exp.Run) (*exp.Table, error) { return exp.AblationSplitFraction(runs) }},
	{"gridsweep", func(runs []*exp.Run) (*exp.Table, error) { return exp.GridSweep(runs, "com-lj") }},
	{"distributed", func(runs []*exp.Run) (*exp.Table, error) { return exp.FigDistributed(runs) }},
	{"formulation", exp.AblationFormulation},
	{"locality", func([]*exp.Run) (*exp.Table, error) { return exp.AblationLocality() }},
	{"sensitivity", func(runs []*exp.Run) (*exp.Table, error) { return exp.SensitivityBandwidth(runs, "com-lj") }},
	{"phases", exp.PhaseBreakdown},
}

// experimentNames lists the table's names, comma-separated.
func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

// selectExperiments resolves a comma-separated -exp value to table
// entries, in table order. "all" selects every entry; a name the table
// does not hold is an error naming it and the valid set.
func selectExperiments(spec string) ([]experiment, error) {
	want := map[string]bool{}
	for _, tok := range strings.Split(spec, ",") {
		name := strings.ToLower(strings.TrimSpace(tok))
		if name != "all" && !slices.ContainsFunc(experiments, func(e experiment) bool { return e.name == name }) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", name, experimentNames())
		}
		want[name] = true
	}
	if want["all"] {
		return experiments, nil
	}
	var picked []experiment
	for _, e := range experiments {
		if want[e.name] {
			picked = append(picked, e)
		}
	}
	return picked, nil
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiments to run: "+experimentNames()+", or all")
	csvDir := flag.String("csv", "", "also write each experiment's table as CSV into this directory")
	flag.Parse()

	// Names are checked before anything is prepared or run, so a typo
	// is an error up front rather than a silently skipped experiment.
	picked, err := selectExperiments(*expFlag)
	if err != nil {
		fail(err)
	}
	runs, err := exp.Suite()
	if err != nil {
		fail(err)
	}
	for _, e := range picked {
		t, err := e.run(runs)
		if err != nil {
			fail(fmt.Errorf("%s: %w", e.name, err))
		}
		if t == nil {
			continue
		}
		if err := t.Fprint(os.Stdout); err != nil {
			fail(err)
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.name, t); err != nil {
				fail(err)
			}
		}
	}
}

// printTimeline renders the Figure 5/6-style schedules: the first
// suite matrix's synchronous and asynchronous device timelines.
func printTimeline(runs []*exp.Run) error {
	r := runs[0]
	for _, mode := range []struct {
		name string
		opts func() core.Options
	}{
		{"synchronous (Figure 5 situation: no overlap)", func() core.Options {
			o := r.CoreOpts()
			o.DynamicAlloc = true
			return o
		}},
		{"asynchronous (Figure 6 schedule: split + reordered transfers)", func() core.Options {
			o := r.CoreOpts()
			o.Async = true
			o.Reorder = true
			return o
		}},
	} {
		_, _, tl, err := core.RunTraced(r.A, r.A, r.Cfg(), mode.opts())
		if err != nil {
			return err
		}
		fmt.Printf("== Timeline: %s on %s ==\n", mode.name, r.Entry.Abbr)
		fmt.Print(trace.Gantt(tl, 100))
		if err := trace.FprintUtilization(os.Stdout, tl); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// writeCSV writes one experiment table to <dir>/<name>.csv.
func writeCSV(dir, name string, t *exp.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	if err := t.CSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "spgemm-bench:", err)
	os.Exit(1)
}
