// Command benchcmp compares a benchmark report (BENCH_*.json) against
// a committed baseline and fails when a tracked metric drifts outside
// the tolerance band. It is the regression gate of the CI bench job.
//
// Usage:
//
//	benchcmp -baseline BENCH_iter.json -current new.json \
//	    -tol 0.25 -skip cpu.cold_seconds,threads \
//	    -min gpu.plan_cache_hit_rate=0.8 -max latency_ratio=0.7
//
// Both files are flattened to dotted numeric paths
// (engines.hash.seconds, gpu.speedup, ...). Every numeric field
// present in both files and not matched by a -skip substring must stay
// within the relative tolerance of the baseline value. Wall-clock
// fields are machine-dependent and belong in -skip; ratios and the
// simulated-device numbers are stable enough to gate on. -min and -max
// add absolute floors and ceilings (repeatable) that hold regardless
// of the baseline, e.g. the plan-cache hit-rate acceptance target.
//
// Forward compatibility: a baseline field missing from the current
// report is a failure only when no -skip substring matches it, and
// fields only in the current report are noted, never failed — so a
// newer benchmark binary can grow fields ahead of the committed
// baseline, and an older baseline can retire fields behind -skip.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minFlags collects repeated -min/-max path=value assertions.
type minFlags map[string]float64

func (m minFlags) String() string { return fmt.Sprint(map[string]float64(m)) }

func (m minFlags) Set(s string) error {
	path, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want path=value, got %q", s)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return err
	}
	m[path] = f
	return nil
}

func main() {
	baseFile := flag.String("baseline", "", "committed baseline report (required)")
	curFile := flag.String("current", "", "freshly generated report (required)")
	tol := flag.Float64("tol", 0.25, "relative tolerance band around each baseline value")
	skip := flag.String("skip", "", "comma-separated path substrings excluded from the relative comparison")
	mins := minFlags{}
	flag.Var(mins, "min", "absolute floor assertion path=value (repeatable)")
	maxes := minFlags{}
	flag.Var(maxes, "max", "absolute ceiling assertion path=value (repeatable)")
	flag.Parse()
	if *baseFile == "" || *curFile == "" {
		fail(fmt.Errorf("-baseline and -current are required"))
	}

	base, err := flatten(*baseFile)
	if err != nil {
		fail(err)
	}
	cur, err := flatten(*curFile)
	if err != nil {
		fail(err)
	}

	var skips []string
	for _, s := range strings.Split(*skip, ",") {
		if s = strings.TrimSpace(s); s != "" {
			skips = append(skips, s)
		}
	}
	skipped := func(path string) bool {
		for _, s := range skips {
			if strings.Contains(path, s) {
				return true
			}
		}
		return false
	}

	var failures []string
	compared := 0
	for _, path := range sortedKeys(base) {
		bv := base[path]
		// Skips apply before the missing-field check, so a retired
		// baseline field behind -skip does not fail newer binaries.
		if skipped(path) {
			continue
		}
		cv, ok := cur[path]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from current report (baseline %.6g)", path, bv))
			continue
		}
		compared++
		if !within(bv, cv, *tol) {
			failures = append(failures, fmt.Sprintf("%s: %.6g vs baseline %.6g (%.1f%% drift, tol %.0f%%)",
				path, cv, bv, 100*drift(bv, cv), 100**tol))
		}
	}
	for path := range cur {
		if _, ok := base[path]; !ok && !skipped(path) {
			fmt.Printf("note: %s only in current report (new field)\n", path)
		}
	}
	for _, path := range sortedKeys(mins) {
		floor := mins[path]
		cv, ok := cur[path]
		compared++
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: -min floor %.6g but field missing from current report", path, floor))
		} else if cv < floor {
			failures = append(failures, fmt.Sprintf("%s: %.6g below floor %.6g", path, cv, floor))
		}
	}
	for _, path := range sortedKeys(maxes) {
		ceil := maxes[path]
		cv, ok := cur[path]
		compared++
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: -max ceiling %.6g but field missing from current report", path, ceil))
		} else if cv > ceil {
			failures = append(failures, fmt.Sprintf("%s: %.6g above ceiling %.6g", path, cv, ceil))
		}
	}

	fmt.Printf("benchcmp: %s vs %s: %d fields gated, %d failures\n",
		*curFile, *baseFile, compared, len(failures))
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  FAIL "+f)
		}
		os.Exit(1)
	}
}

// flatten reads a JSON file and returns every numeric leaf keyed by
// its dotted path. Non-numeric leaves (matrix names, labels) are
// ignored — only numbers are gated.
func flatten(file string) (map[string]float64, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var root any
	if err := json.Unmarshal(data, &root); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	out := map[string]float64{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch t := v.(type) {
		case map[string]any:
			for k, c := range t {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				walk(p, c)
			}
		case []any:
			for i, c := range t {
				walk(fmt.Sprintf("%s.%d", prefix, i), c)
			}
		case float64:
			out[prefix] = t
		}
	}
	walk("", root)
	return out, nil
}

// within reports whether cur is inside the relative tolerance band of
// base. A zero baseline degrades to an absolute band of tol.
func within(base, cur, tol float64) bool { return drift(base, cur) <= tol }

func drift(base, cur float64) float64 {
	scale := math.Abs(base)
	if scale == 0 {
		scale = 1
	}
	return math.Abs(cur-base) / scale
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(1)
}
