// Command spgemm-run multiplies two Matrix Market files (or a file by
// itself) with any registered engine and optionally writes the product
// and a Chrome-tracing profile.
//
// Usage:
//
//	spgemm-run -a=A.mtx [-b=B.mtx] [-engine=hybrid] [-o=C.mtx]
//	           [-devmem=64M] [-rows=4 -cols=4] [-threads=N]
//	           [-gpus=2] [-q=2] [-trace=run.json] [-verify]
//	           [-faults=seed=7,rate=0.02] [-deadline=0.5]
//
// With -b omitted the tool computes A·A (the convention of the paper's
// evaluation). The engine names come from the spgemm registry
// (spgemm.Engines()); device engines run on the simulated device and
// report simulated-time statistics, while the product itself is always
// exact. -trace writes the run's span timeline in Chrome trace-event
// format (load it at chrome://tracing or https://ui.perfetto.dev).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/spgemm"
)

func main() {
	var (
		aPath    = flag.String("a", "", "left input matrix (.mtx, required)")
		bPath    = flag.String("b", "", "right input matrix (.mtx; default: same as -a)")
		outPath  = flag.String("o", "", "output path for the product (.mtx; omit to skip writing)")
		engine   = flag.String("engine", "gpu", "engine: one of "+strings.Join(spgemm.Engines(), ", "))
		devmem   = flag.String("devmem", "64M", "simulated device memory (e.g. 512K, 64M, 2G)")
		rows     = flag.Int("rows", 0, "row panels (0 = plan automatically)")
		cols     = flag.Int("cols", 0, "column panels (0 = plan automatically)")
		threads  = flag.Int("threads", 0, "CPU threads (0 = GOMAXPROCS)")
		gpus     = flag.Int("gpus", 0, "device count for the multigpu engine (0 = 1)")
		q        = flag.Int("q", 2, "process-grid side for the summa engine")
		trace    = flag.String("trace", "", "write the run's Chrome trace-event JSON to this file")
		verify   = flag.Bool("verify", false, "cross-check the product against the multi-core CPU engine")
		faults   = flag.String("faults", "", "fault-injection spec, e.g. seed=7,rate=0.02,straggler=0.05,loseafter=40 (device engines)")
		deadline = flag.Float64("deadline", 0, "abort the run after this many seconds (simulated for device engines, wall for cpu); 0 = none")
		chain    = flag.Int("chain", 0, "multiply a k-stage chain (((A·B)·B)·B)... through one shared plan cache, reporting per-stage time and plan reuse (0/1 = single multiply)")
	)
	flag.Parse()
	if *aPath == "" {
		fail(fmt.Errorf("missing -a"))
	}

	a, err := spgemm.ReadMatrixMarket(*aPath)
	if err != nil {
		fail(err)
	}
	b := a
	if *bPath != "" && *bPath != *aPath {
		if b, err = spgemm.ReadMatrixMarket(*bPath); err != nil {
			fail(err)
		}
	}

	mem, err := parseBytes(*devmem)
	if err != nil {
		fail(err)
	}
	cfg := spgemm.V100WithMemory(mem)

	eng, err := spgemm.ByName(*engine)
	if err != nil {
		fail(err)
	}
	opts := &spgemm.RunOptions{
		Threads:     *threads,
		Device:      &cfg,
		Core:        spgemm.OutOfCoreOptions{RowPanels: *rows, ColPanels: *cols},
		NumGPUs:     *gpus,
		UseCPU:      *gpus > 0,
		SUMMA:       spgemm.SUMMAConfig{Q: *q, Pipelined: true},
		DeadlineSec: *deadline,
	}
	if *faults != "" {
		fc, err := spgemm.ParseFaultSpec(*faults)
		if err != nil {
			fail(err)
		}
		opts.Faults = fc
	}
	if *trace != "" {
		opts.Metrics = spgemm.NewCollector()
	}

	var c *spgemm.Matrix
	var report spgemm.Report
	if *chain > 1 {
		// Chain mode: stage k multiplies the previous product by B
		// through one shared plan cache. When B's pattern is closed under
		// multiplication (block-diagonal operands), every stage after the
		// first replays the cached symbolic plan numeric-only — the local
		// mirror of the serving layer's /v1/batch plan sharing.
		opts.PlanCache = spgemm.NewPlanCache(0)
		left := a
		for k := 1; k <= *chain; k++ {
			stageOpts := *opts
			stageOpts.Metrics = spgemm.NewCollector()
			c, report, err = eng.Run(left, b, &stageOpts)
			if err != nil {
				fail(fmt.Errorf("chain stage %d: %w", k, err))
			}
			snap := stageOpts.Metrics.Snapshot()
			fmt.Printf("stage %d: nnz(C)=%d time=%.3fms plan_cache_hit=%v\n",
				k, report.OutputNnz(), report.Seconds()*1e3, snap["plan_cache_hits"] > 0)
			left = c
			opts.Metrics = stageOpts.Metrics // -trace records the final stage
		}
		hits, misses, _ := opts.PlanCache.Counters()
		fmt.Printf("engine=%s stages=%d nnz(C)=%d plan_cache hits=%d misses=%d\n",
			*engine, *chain, c.Nnz(), hits, misses)
	} else {
		c, report, err = eng.Run(a, b, opts)
		if err != nil {
			fail(err)
		}
		fmt.Printf("engine=%s nnz(C)=%d flops=%d time=%.3fms GFLOPS=%.3f\n",
			*engine, report.OutputNnz(), report.FlopCount(), report.Seconds()*1e3, report.Throughput())
	}
	if counters := report.Counters(); opts.Faults.Enabled() {
		fmt.Printf("recovery: retries=%d abandoned=%d fallbacks=%d failovers=%d devices_lost=%d\n",
			counters["recovery_retries"], counters["recovery_abandoned"],
			counters["recovery_fallbacks"], counters["recovery_failovers"],
			counters["recovery_devices_lost"])
	}

	if *verify {
		ref := a
		stages := *chain
		if stages < 1 {
			stages = 1
		}
		var err error
		for k := 0; k < stages; k++ {
			if ref, err = spgemm.MultiplyCPU(ref, b, *threads); err != nil {
				fail(err)
			}
		}
		if !spgemm.Equal(c, ref, 1e-9) {
			fail(fmt.Errorf("verification FAILED: product differs from the CPU engine"))
		}
		fmt.Println("verified: product matches the multi-core CPU engine")
	}

	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fail(err)
		}
		if err := opts.Metrics.WriteChromeTrace(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (load at chrome://tracing)\n", *trace)
	}

	if *outPath != "" {
		if err := spgemm.WriteMatrixMarket(*outPath, c); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *outPath)
	}
}

func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, s[:len(s)-1]
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return n * mult, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "spgemm-run:", err)
	os.Exit(1)
}
