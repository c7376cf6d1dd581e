// Command bench is the repository's performance record: five seeded
// workloads measured end to end (closed-loop clients against real
// loopback sockets, or one library caller), plus a traced run that
// times every layer from outside through its public entry points.
//
//	bench -workload <name|all> -seed N -seconds S -trace 0   end-to-end metrics
//	bench -workload <name>     -seed N -seconds S -trace 1   per-layer metrics
//	bench -compare a1.json b1.json a2.json b2.json ...      judge two sets of -out files
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything above it is the
// same content as a table. See README.md for the metric glossary.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name             string                 `json:"name"`
	Attempted        int                    `json:"attempted"`
	Failed           int                    `json:"failed"`
	Samples          int                    `json:"samples"`
	FailShare        float64                `json:"fail_share"`
	InputFingerprint string                 `json:"input_fingerprint"`
	FlopsPerOp       float64                `json:"flops_per_op"`
	Metrics          map[string]metricValue `json:"metrics"`
	// AsMeasured holds the untraced run's figures before host
	// normalisation (what this host delivered), with the median host
	// factor between the two.
	AsMeasured map[string]float64 `json:"as_measured,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Rounds    int              `json:"rounds"`
	Traced    bool             `json:"traced"`
	Host      hostInfo         `json:"host"`
	Workloads []workloadResult `json:"workloads"`
	Notes     []string         `json:"notes,omitempty"`
}

// finalLine is the driver contract's last line of standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// config is one invocation. The command line sets the first six
// fields; rounds, warmup and minSamples have one value each outside the
// tests (defaultConfig), so they are not flags.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	spans    string
	// rounds is the number of set-up -> verify -> warm-up -> timed window
	// rounds per workload; warmup the untimed load before each window.
	rounds int
	warmup time.Duration
	// minSamples is the fewest pooled latency samples a valid workload
	// has: with 100, ten always lie beyond op_p90_ms.
	minSamples int
}

func defaultConfig() config {
	return config{workload: "all", seed: 1, seconds: 15, rounds: 3, warmup: 500 * time.Millisecond, minSamples: 100}
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", cfg.workload, "workload to run, or all (interleaved rounds over every workload)")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "timed seconds per workload, split evenly over the rounds")
	flag.IntVar(&cfg.trace, "trace", cfg.trace, "1 = traced run: per-layer metrics instead of end-to-end metrics")
	flag.StringVar(&cfg.out, "out", "", "also write the result as JSON to this file (input of -compare)")
	flag.StringVar(&cfg.spans, "spans", "", "traced run: write the recorded spans as Chrome-trace JSON to this file")
	compare := flag.Bool("compare", false, "compare result files given as arguments, taken alternately: A B A B ...")
	flag.Parse()

	if *compare {
		os.Exit(compareFiles(os.Stdout, flag.Args()))
	}
	if flag.NArg() > 0 {
		fatalf(2, "unexpected arguments %q", flag.Args())
	}
	res, final, err := run(cfg)
	if res != nil {
		printTable(res)
		if cfg.out != "" {
			if werr := writeJSON(cfg.out, res); werr != nil {
				fatalf(1, "%v", werr)
			}
		}
	}
	if err != nil {
		var verr *verificationError
		if errors.As(err, &verr) && final != nil {
			// A wrong output still prints its accounting, marked
			// incorrect, and exits non-zero.
			printFinal(final)
		}
		fatalf(1, "%v", err)
	}
	printFinal(final)
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func printFinal(f *finalLine) {
	buf, err := json.Marshal(f)
	if err != nil {
		fatalf(1, "%v", err)
	}
	fmt.Println(string(buf))
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// run executes one invocation and returns the result file content and
// the contract's final line.
func run(cfg config) (*resultFile, *finalLine, error) {
	selected := workloads
	if cfg.workload != "all" {
		w, ok := workloadByName(cfg.workload)
		if !ok {
			names := make([]string, len(workloads))
			for i, w := range workloads {
				names[i] = w.name
			}
			return nil, nil, fmt.Errorf("unknown workload %q (have %s, all)", cfg.workload, strings.Join(names, ", "))
		}
		selected = []workload{w}
	}
	if cfg.rounds < 1 || cfg.seconds <= 0 {
		return nil, nil, fmt.Errorf("need -rounds >= 1 and -seconds > 0")
	}
	host := newHostInfo()
	res := &resultFile{Seed: cfg.seed, Seconds: cfg.seconds, Rounds: cfg.rounds, Traced: cfg.trace == 1}
	var final *finalLine
	var err error
	if cfg.trace == 1 {
		if len(selected) != 1 {
			return nil, nil, fmt.Errorf("-trace 1 needs one -workload: the traced run reports per-layer metrics under that workload's load")
		}
		final, err = runTraced(cfg, selected[0], &host, res)
	} else {
		final, err = runUntraced(cfg, selected, res)
	}
	host.finish()
	if host.SpinDriftWarned {
		res.Notes = append(res.Notes, fmt.Sprintf("warning: host.spin_ns_per_iter moved %+.1f %% between the start and the end of this invocation (%.3f -> %.3f ns): the host was noisy",
			host.SpinDriftShare*100, host.SpinNsPerIterStart, host.SpinNsPerIterEnd))
	}
	res.Host = host
	return res, final, err
}

func newWorkloadResult(s *windowStats, metrics map[string]metricValue) workloadResult {
	return workloadResult{
		Name: s.name, Attempted: s.op.attempted, Failed: s.op.failed, Samples: len(s.op.latMs),
		FailShare:        ratio(float64(s.op.failed), float64(s.op.attempted)),
		InputFingerprint: fmt.Sprintf("%016x", s.fingerprint), FlopsPerOp: s.flopsPerOp,
		Metrics: metrics,
	}
}

func runUntraced(cfg config, selected []workload, res *resultFile) (*finalLine, error) {
	window := time.Duration(cfg.seconds / float64(cfg.rounds) * float64(time.Second))
	stats, err := measure(selected, cfg.seed, cfg.rounds, cfg.warmup, window, cfg.minSamples)
	if err != nil {
		return nil, err
	}
	final := &finalLine{Metrics: map[string]metricValue{}}
	for _, s := range stats {
		wr := newWorkloadResult(s, withUnits(endToEnd, endToEndValues(s)))
		wr.AsMeasured = asMeasured(s)
		res.Workloads = append(res.Workloads, wr)
		final.Attempted += s.op.attempted
		final.Failed += s.op.failed
		for name, mv := range wr.Metrics {
			if len(stats) > 1 {
				name = s.name + "." + name
			}
			final.Metrics[name] = mv
		}
	}
	final.Correct = final.Failed == 0
	return final, validate(stats, cfg.minSamples)
}

// validate is the rule a finished untraced run is held to: no failed
// operation (a verification error) and enough samples for op_p90_ms (an
// invalid run).
func validate(stats []*windowStats, minSamples int) error {
	var err error
	for _, s := range stats {
		if s.op.failed > 0 {
			err = errors.Join(err, &verificationError{fmt.Errorf("%s: %d of %d operations failed: %w", s.name, s.op.failed, s.op.attempted, s.op.firstErr)})
		}
		if len(s.op.latMs) < minSamples {
			err = errors.Join(err, fmt.Errorf("%s: invalid run: %d latency samples, need %d for op_p90_ms", s.name, len(s.op.latMs), minSamples))
		}
	}
	return err
}

func runTraced(cfg config, w workload, host *hostInfo, res *resultFile) (*finalLine, error) {
	host.StreamGBPerS, host.StreamArrayMiB, host.AssumedLLCMiB = streamTriadGBPerS(), streamArrayMiB, assumedLLCMiB
	// The target gets an untraced and a traced window; the rest of the
	// budget goes to the ladders and probes.
	window := time.Duration(cfg.seconds / 4 * float64(time.Second))
	lr, st, err := traceRun(w, cfg.seed, window, cfg.warmup, host)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, lr.notes...)
	wr := newWorkloadResult(st, withUnits(perLayer, lr.values))
	res.Workloads = append(res.Workloads, wr)
	if cfg.spans != "" {
		if err := lr.tr.writeChromeTrace(cfg.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return &finalLine{Correct: true, Attempted: st.op.attempted, Failed: st.op.failed, Metrics: wr.Metrics}, nil
}

// printTable prints every metric by name with its unit.
func printTable(res *resultFile) {
	h := res.Host
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s spin=%.3f->%.3f ns/iter", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.SpinNsPerIterStart, h.SpinNsPerIterEnd)
	if h.StreamGBPerS > 0 {
		fmt.Printf(" stream=%.2f GB/s (3 arrays of %d MiB, LLC assumed <= %d MiB)", h.StreamGBPerS, h.StreamArrayMiB, h.AssumedLLCMiB)
	}
	fmt.Printf("\nseed=%d seconds=%g rounds=%d traced=%v\n", res.Seed, res.Seconds, res.Rounds, res.Traced)
	for _, w := range res.Workloads {
		fmt.Printf("\n%s  attempted=%d failed=%d samples=%d fail_share=%.4f flops_per_op=%.0f inputs=%s\n",
			w.Name, w.Attempted, w.Failed, w.Samples, w.FailShare, w.FlopsPerOp, w.InputFingerprint)
		names := make([]string, 0, len(w.Metrics))
		for name := range w.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			mv := w.Metrics[name]
			fmt.Printf("  %-46s %16.6g %s\n", name, mv.Value, mv.Unit)
		}
		if m := w.AsMeasured; m != nil {
			fmt.Printf("  as measured on this host (host factor %.3f): op_p50_ms %.6g, op_p90_ms %.6g, ops_per_s %.6g, setup_s %.6g\n",
				m["host_factor"], m["op_p50_ms"], m["op_p90_ms"], m["ops_per_s"], m["setup_s"])
		}
	}
	for _, n := range res.Notes {
		fmt.Println(n)
	}
}
