package repro

// Chaos-soak suite for the fault-injection layer: seeded fault
// scenarios across the gpu, gpu-sync, hybrid and multigpu engines must
// complete through retry / CPU fallback / device failover with no
// panic and a product matching the CPU reference, and the recovery
// counters must reconcile exactly with the injected fault counts.
//
// Failing scenarios print their full spec (engine, matrix, fault
// config) so a CI failure can be replayed locally with a one-line
// test filter or a spgemm-run -faults invocation.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// simSpans filters a collector's timeline down to the simulated-clock
// domain: wall-domain spans carry real timestamps and legitimately
// differ between otherwise identical runs.
func simSpans(spans []metrics.Span) []metrics.Span {
	var out []metrics.Span
	for _, s := range spans {
		if s.Domain == metrics.Sim {
			out = append(out, s)
		}
	}
	return out
}

// chaosMatrix rotates over small but structurally distinct inputs:
// scale-free (hub rows), uniform random, and banded.
func chaosMatrix(i int) (*spgemm.Matrix, string) {
	switch i % 3 {
	case 0:
		return spgemm.RMAT(7, 8, 0.57, 0.19, 0.19, int64(100+i)), fmt.Sprintf("rmat(seed=%d)", 100+i)
	case 1:
		return spgemm.ER(300, 300, 0.03, int64(200+i)), fmt.Sprintf("er(seed=%d)", 200+i)
	default:
		return spgemm.Band(400, 8, int64(300+i)), fmt.Sprintf("band(seed=%d)", 300+i)
	}
}

// refCache memoizes the CPU reference product per input matrix.
var refCache = map[*spgemm.Matrix]*spgemm.Matrix{}

func reference(t *testing.T, a *spgemm.Matrix) *spgemm.Matrix {
	t.Helper()
	if c, ok := refCache[a]; ok {
		return c
	}
	c, err := spgemm.MultiplyCPU(a, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	refCache[a] = c
	return c
}

type chaosScenario struct {
	engine  string
	cfg     spgemm.FaultConfig
	gpus    int
	retries int
}

// chaosSeeds trims a scenario family's seed sweep in -short mode: CI's
// default test job runs two seeds per family (every fault class still
// covered), while the chaos-soak job runs the full sweep.
func chaosSeeds(full int64) int64 {
	if testing.Short() && full > 2 {
		return 2
	}
	return full
}

// chaosScenarios builds the seed sweep: >= 50 scenarios spanning
// transient faults, stragglers, OOM pressure and device loss (reduced
// to two seeds per family under -short).
func chaosScenarios() []chaosScenario {
	var out []chaosScenario
	// Transient transfer/kernel faults + stragglers on the GPU-only
	// engines: a generous retry budget must absorb everything.
	for seed := int64(1); seed <= chaosSeeds(14); seed++ {
		out = append(out, chaosScenario{
			engine:  "gpu",
			cfg:     spgemm.FaultConfig{Seed: seed, TransferRate: 0.03, KernelRate: 0.02, StragglerRate: 0.05},
			retries: 10,
		})
	}
	for seed := int64(1); seed <= chaosSeeds(8); seed++ {
		out = append(out, chaosScenario{
			engine:  "gpu-sync",
			cfg:     spgemm.FaultConfig{Seed: seed, TransferRate: 0.03, KernelRate: 0.02},
			retries: 10,
		})
	}
	// Hybrid: higher rates with the default (small) budget, so some
	// chunks are abandoned and must be absorbed by the CPU worker.
	for seed := int64(1); seed <= chaosSeeds(12); seed++ {
		out = append(out, chaosScenario{
			engine: "hybrid",
			cfg:    spgemm.FaultConfig{Seed: seed, TransferRate: 0.06, KernelRate: 0.04, StragglerRate: 0.05},
		})
	}
	// Hybrid with mid-run device loss: every remaining GPU chunk must
	// degrade to the CPU worker.
	for seed := int64(1); seed <= chaosSeeds(4); seed++ {
		out = append(out, chaosScenario{
			engine: "hybrid",
			cfg:    spgemm.FaultConfig{Seed: seed, TransferRate: 0.02, LossAfterOps: 60},
		})
	}
	// Multi-GPU: transient faults redistribute chunks between devices
	// and, past their budget, to the CPU worker.
	for seed := int64(1); seed <= chaosSeeds(10); seed++ {
		out = append(out, chaosScenario{
			engine: "multigpu",
			cfg:    spgemm.FaultConfig{Seed: seed, TransferRate: 0.06, KernelRate: 0.04},
			gpus:   2,
		})
	}
	// Multi-GPU with device loss: both devices eventually die and the
	// CPU worker adopts everything left.
	for seed := int64(1); seed <= chaosSeeds(4); seed++ {
		out = append(out, chaosScenario{
			engine: "multigpu",
			cfg:    spgemm.FaultConfig{Seed: seed, TransferRate: 0.02, LossAfterOps: 80},
			gpus:   2,
		})
	}
	// OOM pressure: a shrunken arena must still fit the planned grid's
	// working set or fail over, never panic.
	for seed := int64(1); seed <= chaosSeeds(2); seed++ {
		out = append(out, chaosScenario{
			engine:  "gpu",
			cfg:     spgemm.FaultConfig{Seed: seed, TransferRate: 0.02, OOMShrink: 0.3},
			retries: 10,
		})
	}
	return out
}

func runScenario(t *testing.T, i int, sc chaosScenario) {
	t.Helper()
	a, desc := chaosMatrix(i)
	cfg := spgemm.V100WithMemory(1 << 20)
	eng, err := spgemm.ByName(sc.engine)
	if err != nil {
		t.Fatal(err)
	}
	opts := &spgemm.RunOptions{
		Device:       &cfg,
		Core:         spgemm.OutOfCoreOptions{RowPanels: 4, ColPanels: 2},
		Faults:       sc.cfg,
		ChunkRetries: sc.retries,
		NumGPUs:      sc.gpus,
		UseCPU:       sc.gpus > 0,
		Metrics:      spgemm.NewCollector(),
	}
	c, report, err := eng.Run(a, a, opts)
	if err != nil {
		t.Fatalf("scenario %d [%s on %s, faults %+v]: %v", i, sc.engine, desc, sc.cfg, err)
	}
	if ref := reference(t, a); !spgemm.Equal(c, ref, 1e-9) {
		t.Fatalf("scenario %d [%s on %s, faults %+v]: product differs from CPU reference",
			i, sc.engine, desc, sc.cfg)
	}
	// Reconciliation: every injected transient fault was either
	// absorbed by a retry or abandoned the chunk to a recovery path.
	snap := opts.Metrics.Snapshot()
	injected := snap["faults_injected_transfer"] + snap["faults_injected_kernel"]
	recovered := snap["recovery_retries"] + snap["recovery_abandoned"]
	if injected != recovered {
		t.Fatalf("scenario %d [%s on %s, faults %+v]: %d faults injected but %d retried + %d abandoned",
			i, sc.engine, desc, sc.cfg, injected, snap["recovery_retries"], snap["recovery_abandoned"])
	}
	// chunks is the grid size on every device engine, however many times
	// a chunk was retried, adopted or recomputed on the way.
	if got, want := report.Counters()["chunks"], int64(opts.Core.RowPanels*opts.Core.ColPanels); got != want {
		t.Fatalf("scenario %d [%s on %s, faults %+v]: chunks = %d for a %d-chunk grid",
			i, sc.engine, desc, sc.cfg, got, want)
	}
}

// TestChaosSoak runs the seeded scenario sweep: the full >=50 matrix
// normally, the trimmed per-family sample under -short.
func TestChaosSoak(t *testing.T) {
	scenarios := chaosScenarios()
	if !testing.Short() && len(scenarios) < 50 {
		t.Fatalf("only %d chaos scenarios; the soak promises at least 50", len(scenarios))
	}
	for i, sc := range scenarios {
		sc := sc
		i := i
		t.Run(fmt.Sprintf("%03d_%s_seed%d", i, sc.engine, sc.cfg.Seed), func(t *testing.T) {
			runScenario(t, i, sc)
		})
	}
}

// TestChaosDeterminism: the same fault seed must reproduce the run
// bit-for-bit — identical counters and identical simulated timeline —
// on the GPU pipeline alone and through the driver's controller, whose
// every routing decision (adoption by a surviving GPU, fallback to the
// CPU, device loss) must land in the same order.
func TestChaosDeterminism(t *testing.T) {
	a := spgemm.RMAT(7, 8, 0.57, 0.19, 0.19, 7)
	cfg := spgemm.V100WithMemory(1 << 20)
	for _, tc := range []struct {
		engine string
		gpus   int
		faults spgemm.FaultConfig
	}{
		{"gpu", 0, spgemm.FaultConfig{Seed: 11, TransferRate: 0.05, KernelRate: 0.03, StragglerRate: 0.05}},
		{"hybrid", 0, spgemm.FaultConfig{Seed: 11, TransferRate: 0.06, KernelRate: 0.04, LossAfterOps: 40}},
		{"multigpu", 2, spgemm.FaultConfig{Seed: 11, TransferRate: 0.06, KernelRate: 0.04, LossAfterOps: 40}},
	} {
		eng, err := spgemm.ByName(tc.engine)
		if err != nil {
			t.Fatal(err)
		}
		run := func() (map[string]int64, []metrics.Span) {
			col := spgemm.NewCollector()
			_, report, err := eng.Run(a, a, &spgemm.RunOptions{
				Device:  &cfg,
				Core:    spgemm.OutOfCoreOptions{RowPanels: 4, ColPanels: 2},
				Faults:  tc.faults,
				NumGPUs: tc.gpus,
				UseCPU:  tc.gpus > 0,
				Metrics: col,
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.engine, err)
			}
			return report.Counters(), simSpans(col.Spans())
		}
		c1, tl1 := run()
		c2, tl2 := run()
		if !reflect.DeepEqual(c1, c2) {
			t.Fatalf("%s: counters differ across identical fault seeds:\n%v\n%v", tc.engine, c1, c2)
		}
		if !reflect.DeepEqual(tl1, tl2) {
			t.Fatalf("%s: simulated timelines differ across identical fault seeds", tc.engine)
		}
		if tc.engine != "gpu" && c1["recovery_fallbacks"] == 0 {
			t.Fatalf("%s: no chunk reached the CPU worker; the case must exercise the controller: %v", tc.engine, c1)
		}
	}
}

// TestChaosFaultFreeIdentity: a zero FaultConfig must be byte-identical
// to a run without the fault layer configured — same stats, same
// timeline, all recovery counters zero, no injection counters.
func TestChaosFaultFreeIdentity(t *testing.T) {
	a := spgemm.RMAT(7, 8, 0.57, 0.19, 0.19, 9)
	cfg := spgemm.V100WithMemory(1 << 20)
	run := func(fc spgemm.FaultConfig) (spgemm.Stats, []metrics.Span, map[string]int64) {
		col := spgemm.NewCollector()
		opts := spgemm.OutOfCoreOptions{RowPanels: 4, ColPanels: 2, Async: true, Faults: fc, Metrics: col}
		_, st, err := spgemm.MultiplyOutOfCore(a, a, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		return st, simSpans(col.Spans()), col.Snapshot()
	}
	stOff, tlOff, snapOff := run(spgemm.FaultConfig{})
	// Seeded but all-zero rates: the injector is disabled entirely.
	stZero, tlZero, _ := run(spgemm.FaultConfig{Seed: 99})
	if stOff != stZero {
		t.Fatalf("stats differ between disabled fault configs:\n%+v\n%+v", stOff, stZero)
	}
	if !reflect.DeepEqual(tlOff, tlZero) {
		t.Fatal("timelines differ between disabled fault configs")
	}
	for _, k := range []string{"recovery_retries", "recovery_abandoned"} {
		if snapOff[k] != 0 {
			t.Errorf("fault-free run has %s = %d", k, snapOff[k])
		}
	}
	for k := range snapOff {
		if len(k) > 15 && k[:15] == "faults_injected" {
			t.Errorf("fault-free run published injection counter %s", k)
		}
	}
}

// TestChaosHybridFallback forces fast abandonment (no retries, high
// fault rates) so the CPU worker must absorb GPU chunks; the product
// must still match the reference.
func TestChaosHybridFallback(t *testing.T) {
	a, _ := chaosMatrix(0)
	cfg := spgemm.V100WithMemory(1 << 20)
	eng, err := spgemm.ByName("hybrid")
	if err != nil {
		t.Fatal(err)
	}
	opts := &spgemm.RunOptions{
		Device:       &cfg,
		Core:         spgemm.OutOfCoreOptions{RowPanels: 4, ColPanels: 2},
		Faults:       spgemm.FaultConfig{Seed: 3, TransferRate: 0.9, KernelRate: 0.9},
		ChunkRetries: -1, // no retries: first fault abandons the chunk
		Metrics:      spgemm.NewCollector(),
	}
	c, report, err := eng.Run(a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.Equal(c, reference(t, a), 1e-9) {
		t.Fatal("fallback product differs from CPU reference")
	}
	if fb := report.Counters()["recovery_fallbacks"]; fb == 0 {
		t.Fatal("expected CPU fallbacks under 90% fault rates with no retries")
	}
}

// TestChaosMultiGPUFailover kills the devices mid-run; chunks must be
// redistributed and the survivors (ultimately the CPU worker) finish
// the product exactly.
func TestChaosMultiGPUFailover(t *testing.T) {
	a, _ := chaosMatrix(0)
	cfg := spgemm.V100WithMemory(1 << 20)
	eng, err := spgemm.ByName("multigpu")
	if err != nil {
		t.Fatal(err)
	}
	opts := &spgemm.RunOptions{
		Device:  &cfg,
		Core:    spgemm.OutOfCoreOptions{RowPanels: 4, ColPanels: 2},
		Faults:  spgemm.FaultConfig{Seed: 5, LossAfterOps: 30},
		NumGPUs: 2,
		UseCPU:  true,
		Metrics: spgemm.NewCollector(),
	}
	c, report, err := eng.Run(a, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.Equal(c, reference(t, a), 1e-9) {
		t.Fatal("failover product differs from CPU reference")
	}
	counters := report.Counters()
	if counters["recovery_devices_lost"] == 0 {
		t.Fatalf("expected lost devices with LossAfterOps=30; counters %v", counters)
	}
	if counters["recovery_failovers"] == 0 {
		t.Fatalf("expected failovers after device loss; counters %v", counters)
	}
	if want := int64(opts.Core.RowPanels * opts.Core.ColPanels); counters["chunks"] != want {
		t.Fatalf("chunks = %d for a %d-chunk grid: adopted chunks counted twice; counters %v", counters["chunks"], want, counters)
	}
}

// TestChaosGPUDeviceLostTypedError: the GPU-only engine has no
// recovery path for a dead device — the run must end with a typed
// ErrDeviceLost, not a panic or a silent partial product.
func TestChaosGPUDeviceLostTypedError(t *testing.T) {
	a, _ := chaosMatrix(0)
	cfg := spgemm.V100WithMemory(1 << 20)
	eng, err := spgemm.ByName("gpu")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = eng.Run(a, a, &spgemm.RunOptions{
		Device: &cfg,
		Core:   spgemm.OutOfCoreOptions{RowPanels: 4, ColPanels: 2},
		Faults: spgemm.FaultConfig{Seed: 1, LossAfterOps: 20},
	})
	if !errors.Is(err, spgemm.ErrDeviceLost) {
		t.Fatalf("err = %v, want ErrDeviceLost", err)
	}
}

// TestChaosDeadline: a deadline in the middle of the run surfaces as
// ErrDeadline on both the simulated-clock and wall-clock engines.
func TestChaosDeadline(t *testing.T) {
	a, _ := chaosMatrix(0)
	cfg := spgemm.V100WithMemory(1 << 20)
	gpu, err := spgemm.ByName("gpu")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = gpu.Run(a, a, &spgemm.RunOptions{
		Device:      &cfg,
		Core:        spgemm.OutOfCoreOptions{RowPanels: 4, ColPanels: 2},
		DeadlineSec: 1e-9, // passes after the first simulated span
	})
	if !errors.Is(err, spgemm.ErrDeadline) {
		t.Fatalf("gpu engine err = %v, want ErrDeadline", err)
	}
}

// TestChaosServeFaultyJobPlanCacheBypass: at the serving layer,
// fault-injected jobs must stay out of the shared plan cache (a faulty
// run's plan is suspect by policy), while the same fault-free job
// populates it.
func TestChaosServeFaultyJobPlanCacheBypass(t *testing.T) {
	s := serve.New(serve.Config{MaxConcurrent: 1})
	defer s.Drain(0)
	a, _ := chaosMatrix(1)
	faulty := &spgemm.RunOptions{
		Faults: spgemm.FaultConfig{Seed: 5, TransferRate: 0.05, KernelRate: 0.03},
	}
	if _, err := s.Submit(serve.Job{Engine: "gpu", A: a, B: a, Opts: faulty}); err != nil {
		t.Fatal(err)
	}
	if n := s.PlanCache().Len(); n != 0 {
		t.Fatalf("fault-injected job left %d plan cache entries", n)
	}
	if _, err := s.Submit(serve.Job{Engine: "gpu", A: a, B: a}); err != nil {
		t.Fatal(err)
	}
	if n := s.PlanCache().Len(); n == 0 {
		t.Fatal("fault-free job did not populate the plan cache")
	}
}

// buildChaosCluster assembles an n-replica coordinator over in-process
// serve servers wrapped in seeded chaos backends, with retry backoff
// sleeps stubbed out so the sweep runs at full speed.
func buildChaosCluster(n int) (*cluster.Coordinator, []*cluster.ChaosBackend) {
	backends := make([]cluster.Backend, n)
	chaos := make([]*cluster.ChaosBackend, n)
	for i := 0; i < n; i++ {
		srv := serve.New(serve.Config{MaxConcurrent: 2})
		cb := cluster.NewChaosBackend(
			cluster.NewLocalReplica(fmt.Sprintf("r%d", i), srv),
			cluster.ChaosConfig{Seed: int64(i + 1)},
		)
		backends[i], chaos[i] = cb, cb
	}
	return cluster.New(cluster.Config{Sleep: func(time.Duration) {}}, backends...), chaos
}

// runClusterKillScenario streams requests through a 3-replica cluster
// and kills replicas mid-stream on a schedule: after a warm phase, each
// phase boundary revives the previous victim (plus a probe round, so it
// takes traffic again) and kills the next; the last victim stays dead
// for two phases. It checks the coordinator's promise: zero requests
// lost (every one of them succeeds, through failover or not), the
// admission ledger reconciles (each request admitted exactly once
// across the replica set), and the health state machine records exactly
// one down and one up transition per kill. It returns the merged
// counter snapshot for determinism comparison.
func runClusterKillScenario(t *testing.T, schedule []int) map[string]int64 {
	t.Helper()
	const phase = 10
	requests := phase * (len(schedule) + 2)
	coord, chaos := buildChaosCluster(3)
	defer coord.Drain(time.Second)

	a := spgemm.ER(48, 48, 0.08, 401)
	ref := reference(t, a)
	h, err := coord.StoreMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for i := 0; i < requests; i++ {
		if k := i/phase - 1; i%phase == 0 && k >= 0 && k < len(schedule) {
			if victim >= 0 {
				chaos[victim].Revive()
				coord.Probe()
			}
			// Mid-stream kill, no probe: the request path itself must
			// discover the dead replica (ErrReplicaDown on first touch),
			// condemn it, and fail over to the ring successor.
			victim = schedule[k]
			chaos[victim].Kill()
		}
		var resp *apiv1.MultiplyResponse
		if i%2 == 0 {
			// Shared-handle traffic: routed to the handle's owner, which
			// forces spill re-upload failover when the owner is the victim.
			resp, err = coord.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: h})
			if err == nil && resp.NnzC != ref.Nnz() {
				t.Fatalf("request %d (kill r%d): nnz_c = %d, want %d", i, victim, resp.NnzC, ref.Nnz())
			}
		} else {
			// Spread traffic: distinct spec keys land on every replica,
			// so some of the post-kill stream is owned by the victim no
			// matter which replica was killed.
			resp, err = coord.Multiply(apiv1.MultiplyRequest{
				Engine: "cpu",
				A:      apiv1.MatrixSpec{Kind: "er", Rows: 32, Cols: 32, Density: 0.1, Seed: int64(500 + i)},
			})
		}
		if err != nil {
			t.Fatalf("request %d lost after killing r%d: %v", i, victim, err)
		}
	}
	chaos[victim].Revive()
	coord.Probe()

	counters := coord.Counters()
	// Reconciliation: every request admitted exactly once across the
	// replica set — failover re-routes only never-admitted requests.
	if got := counters[metrics.CounterServeAccepted]; got != int64(requests) {
		t.Fatalf("kill %v: %d requests admitted across replicas, want %d", schedule, got, requests)
	}
	if counters[metrics.CounterServeFailed] != 0 || counters[metrics.CounterServePanicked] != 0 {
		t.Fatalf("kill %v: replica-side failures under a clean kill: %v", schedule, counters)
	}
	if counters[metrics.CounterClusterFailovers] == 0 {
		t.Fatalf("kill %v: no failovers recorded; the kill was never exercised: %v", schedule, counters)
	}
	kills := int64(len(schedule))
	if d, u := counters[metrics.CounterClusterReplicaDown], counters[metrics.CounterClusterReplicaUp]; d != kills || u != kills {
		t.Fatalf("kill %v: down/up transitions = %d/%d, want %d/%d", schedule, d, u, kills, kills)
	}
	return counters
}

// TestChaosClusterKillAnyReplica kills each replica of three in turn,
// then all three on a rolling schedule within one stream: whichever one
// dies mid-stream, no admitted request may be lost and the recovery
// counters must reconcile. Each scenario runs twice and the merged
// counter snapshots must match exactly — the coordinator's failover
// path is as seeded-deterministic as the fault injector's.
func TestChaosClusterKillAnyReplica(t *testing.T) {
	for _, schedule := range [][]int{{0}, {1}, {2}, {0, 1, 2}} {
		name := "kill"
		for _, v := range schedule {
			name += fmt.Sprintf("_r%d", v)
		}
		t.Run(name, func(t *testing.T) {
			first := runClusterKillScenario(t, schedule)
			second := runClusterKillScenario(t, schedule)
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("cluster kill scenario not deterministic:\n%v\n%v", first, second)
			}
		})
	}
}

// TestChaosBatchPartialFailure drives a /v1/batch DAG through the
// fault-injection layer: the server's base options kill the simulated
// device mid-run, so the gpu-only node fails with the typed
// device_lost code and its dependent is skipped, while the hybrid node
// on the same batch recovers through CPU fallback and still produces
// the exact reference product. The fault-injected nodes must also stay
// out of the shared plan cache (a warm replay would shift when the
// seeded faults fire), and the server must remain healthy afterwards.
func TestChaosBatchPartialFailure(t *testing.T) {
	cfg := spgemm.V100WithMemory(1 << 20)
	s := serve.New(serve.Config{
		MaxConcurrent: 2,
		Base: spgemm.RunOptions{
			Device: &cfg,
			Core:   spgemm.OutOfCoreOptions{RowPanels: 4, ColPanels: 2},
			Faults: spgemm.FaultConfig{Seed: 1, LossAfterOps: 20},
		},
	})
	defer s.Drain(0)
	a, _ := chaosMatrix(0)
	h, err := s.StoreMatrix(a)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := s.SubmitBatch(&apiv1.BatchRequest{Nodes: []apiv1.BatchNode{
		{ID: "lost", Engine: "gpu", A: apiv1.Operand{Handle: h}},
		{ID: "child", Engine: "cpu", A: apiv1.Operand{Node: "lost"}, B: &apiv1.Operand{Handle: h}},
		{ID: "recovers", Engine: "hybrid", A: apiv1.Operand{Handle: h}, Store: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Completed != 1 || resp.Failed != 1 || resp.Skipped != 1 {
		t.Fatalf("completed/failed/skipped = %d/%d/%d, want 1/1/1; nodes %+v",
			resp.Completed, resp.Failed, resp.Skipped, resp.Nodes)
	}
	byID := map[string]apiv1.NodeResult{}
	for _, nr := range resp.Nodes {
		byID[nr.ID] = nr
	}
	if nr := byID["lost"]; nr.Status != apiv1.StatusFailed || nr.Error == nil || nr.Error.Code != apiv1.CodeDeviceLost {
		t.Fatalf("lost = %+v", nr)
	}
	if nr := byID["child"]; nr.Status != apiv1.StatusSkipped || nr.Error == nil || nr.Error.Code != apiv1.CodeUpstreamFailed {
		t.Fatalf("child = %+v", nr)
	}
	rec := byID["recovers"]
	if rec.Status != apiv1.StatusOK || rec.Handle == "" {
		t.Fatalf("recovers = %+v", rec)
	}
	got, ok := s.Matrix(rec.Handle)
	if !ok {
		t.Fatal("recovered node's stored handle not found")
	}
	if !spgemm.Equal(got, reference(t, a), 1e-9) {
		t.Fatal("recovered product differs from CPU reference")
	}
	if n := s.PlanCache().Len(); n != 0 {
		t.Fatalf("fault-injected batch left %d plan cache entries", n)
	}
	// The batch released its admission unit and the server still serves.
	if jobs, flops := s.Inflight(); jobs != 0 || flops != 0 {
		t.Fatalf("inflight after batch = %d/%d, want 0/0", jobs, flops)
	}
	if _, err := s.Submit(serve.Job{Engine: "hybrid", A: a, B: a}); err != nil {
		t.Fatalf("server unhealthy after chaos batch: %v", err)
	}
}
