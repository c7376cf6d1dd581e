package repro

// Resource-leak audits: a run that is aborted — by deadline, device
// loss, OOM pressure or abandonment — must not leak. Two resources
// are audited: goroutines (the discrete-event kernel's processes are
// real goroutines, so an abort path that forgets one blocks it
// forever) and simulated device memory (the engines' host-side
// teardown must return every live allocation, publishing the residue
// as mem_in_use_bytes, which these tests pin to zero).

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// settleGoroutines polls until the goroutine count drops to the
// baseline or the settle window expires, and returns the final count.
// Aborted sim runs unwind their process goroutines asynchronously, so
// a single instantaneous read would race the cleanup.
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestAuditDeadlineNoLeaks aborts every registered engine with an
// immediate deadline and asserts (a) the error is a clean ErrDeadline
// (or nil for engines that legitimately finish or ignore deadlines),
// (b) no device memory stays accounted after teardown, and (c) no
// goroutine outlives its run.
func TestAuditDeadlineNoLeaks(t *testing.T) {
	a, _ := chaosMatrix(0)
	cfg := spgemm.V100WithMemory(1 << 20)
	// Engines whose run loops check the deadline; the rest (auto and
	// summa on this tiny input) may finish first, but must never return
	// any *other* error or leak.
	mustDeadline := map[string]bool{
		"cpu": true, "gpu": true, "gpu-sync": true, "hybrid": true, "multigpu": true,
	}
	baseline := runtime.NumGoroutine()
	for _, name := range spgemm.Engines() {
		name := name
		t.Run(name, func(t *testing.T) {
			eng, err := spgemm.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			col := spgemm.NewCollector()
			_, _, err = eng.Run(a, a, &spgemm.RunOptions{
				Device:      &cfg,
				Core:        spgemm.OutOfCoreOptions{RowPanels: 4, ColPanels: 2},
				NumGPUs:     2,
				Metrics:     col,
				DeadlineSec: 1e-9,
			})
			if err != nil && !errors.Is(err, spgemm.ErrDeadline) {
				t.Fatalf("err = %v, want nil or ErrDeadline", err)
			}
			if mustDeadline[name] && err == nil {
				t.Fatalf("engine ignored DeadlineSec=1e-9")
			}
			if leaked := col.Snapshot()[metrics.CounterMemInUse]; leaked != 0 {
				t.Fatalf("device memory leaked after deadline abort: %d bytes", leaked)
			}
		})
	}
	if n := settleGoroutines(baseline); n > baseline {
		t.Fatalf("goroutines leaked across deadline-aborted runs: baseline %d, now %d", baseline, n)
	}
}

// TestAuditFaultAbortNoArenaLeak drives the abort paths the chaos
// suite exercises for correctness — device loss, OOM pressure, retry
// exhaustion — and audits them for resource leaks instead: whether
// the run succeeds or fails, the accounted device memory must return
// to zero and the goroutine count to its baseline.
func TestAuditFaultAbortNoArenaLeak(t *testing.T) {
	a, _ := chaosMatrix(0)
	cfg := spgemm.V100WithMemory(1 << 20)
	cases := []struct {
		name    string
		engine  string
		faults  spgemm.FaultConfig
		retries int
		gpus    int
	}{
		{"gpu-device-lost", "gpu", spgemm.FaultConfig{Seed: 1, LossAfterOps: 20}, 0, 0},
		{"gpu-oom-pressure", "gpu", spgemm.FaultConfig{Seed: 2, TransferRate: 0.02, OOMShrink: 0.3}, 10, 0},
		{"gpu-oom-hard", "gpu", spgemm.FaultConfig{Seed: 3, OOMShrink: 0.9}, 0, 0},
		{"gpu-retries-exhausted", "gpu", spgemm.FaultConfig{Seed: 4, TransferRate: 0.9, KernelRate: 0.9}, -1, 0},
		{"hybrid-loss", "hybrid", spgemm.FaultConfig{Seed: 3, TransferRate: 0.02, LossAfterOps: 60}, 0, 0},
		{"multigpu-loss", "multigpu", spgemm.FaultConfig{Seed: 5, LossAfterOps: 30}, 0, 2},
	}
	baseline := runtime.NumGoroutine()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng, err := spgemm.ByName(tc.engine)
			if err != nil {
				t.Fatal(err)
			}
			col := spgemm.NewCollector()
			_, _, err = eng.Run(a, a, &spgemm.RunOptions{
				Device:       &cfg,
				Core:         spgemm.OutOfCoreOptions{RowPanels: 4, ColPanels: 2},
				Faults:       tc.faults,
				ChunkRetries: tc.retries,
				NumGPUs:      tc.gpus,
				UseCPU:       tc.gpus > 0,
				Metrics:      col,
			})
			// The error (if any) must be from the typed taxonomy; the
			// audit itself is about what the abort left behind.
			if err != nil &&
				!errors.Is(err, spgemm.ErrDeviceLost) && !errors.Is(err, spgemm.ErrOOM) &&
				!errors.Is(err, spgemm.ErrChunkAbandoned) && !errors.Is(err, spgemm.ErrDeadline) {
				t.Fatalf("untyped abort error: %v", err)
			}
			if leaked := col.Snapshot()[metrics.CounterMemInUse]; leaked != 0 {
				t.Fatalf("device memory leaked after abort (err=%v): %d bytes", err, leaked)
			}
		})
	}
	if n := settleGoroutines(baseline); n > baseline {
		t.Fatalf("goroutines leaked across aborted runs: baseline %d, now %d", baseline, n)
	}
}

// --- drain-vs-batch race -----------------------------------------------

var (
	drainBlockOnce sync.Once
	// drainBlockGate holds the channel the "drain-block" engine waits
	// on; nil (or a closed channel) makes the engine a plain passthrough
	// so the engine-sweep audits above stay unaffected by it.
	drainBlockGate atomic.Value // chan struct{}
	// drainBlockEntered receives one token when the engine is actually
	// inside its run, so the test can race Drain against a batch that is
	// provably mid-flight rather than merely admitted.
	drainBlockEntered atomic.Value // chan struct{}
)

type drainBlockEngine struct{}

func (drainBlockEngine) Name() string     { return "drain-block" }
func (drainBlockEngine) Describe() string { return "test engine: blocks on a gate" }
func (drainBlockEngine) Run(a, b *spgemm.Matrix, _ *spgemm.RunOptions) (*spgemm.Matrix, spgemm.Report, error) {
	if ch, ok := drainBlockEntered.Load().(chan struct{}); ok && ch != nil {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	if gate, ok := drainBlockGate.Load().(chan struct{}); ok && gate != nil {
		<-gate
	}
	cpu, _ := spgemm.ByName("cpu")
	c, _, err := cpu.Run(a, b, &spgemm.RunOptions{Threads: 1})
	return c, nil, err
}

// TestAuditDrainAbandonsBatchNoLeaks races serve.Drain against a batch
// that is already admitted and mid-flight: the running node must finish
// cleanly, the node the drain deadline catches still queued must resolve
// with the typed deadline code (the abandon taxonomy), its dependent
// must be skipped with upstream_failed, the abandon must be counted, and
// nothing — worker pool, batch executor, drain waiter — may leak a
// goroutine.
func TestAuditDrainAbandonsBatchNoLeaks(t *testing.T) {
	drainBlockOnce.Do(func() { spgemm.Register(drainBlockEngine{}) })
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	drainBlockGate.Store(gate)
	drainBlockEntered.Store(entered)

	baseline := runtime.NumGoroutine()
	// One worker: the batch executor runs "head" first while "stuck"
	// waits its turn, which is exactly the window the drain deadline hits.
	s := serve.New(serve.Config{MaxConcurrent: 1})
	a, _ := chaosMatrix(1)
	h, err := s.StoreMatrix(a)
	if err != nil {
		t.Fatal(err)
	}

	type batchOut struct {
		resp *apiv1.BatchResponse
		err  error
	}
	batchDone := make(chan batchOut, 1)
	go func() {
		resp, err := s.SubmitBatch(&apiv1.BatchRequest{Nodes: []apiv1.BatchNode{
			{ID: "head", Engine: "drain-block", A: apiv1.Operand{Handle: h}},
			{ID: "stuck", Engine: "cpu", A: apiv1.Operand{Handle: h}},
			{ID: "child", Engine: "cpu", A: apiv1.Operand{Node: "stuck"}, B: &apiv1.Operand{Handle: h}},
		}})
		batchDone <- batchOut{resp, err}
	}()
	<-entered // "head" is inside the engine; "stuck" is queued behind it

	snapDone := make(chan map[string]int64, 1)
	go func() { snapDone <- s.Drain(20 * time.Millisecond) }()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Abandoning() {
		if time.Now().After(deadline) {
			t.Fatal("drain deadline never flipped to abandonment")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate) // release "head" only after queued work is being abandoned

	out := <-batchDone
	if out.err != nil {
		t.Fatalf("admitted batch turned into an error under drain: %v", out.err)
	}
	byID := map[string]apiv1.NodeResult{}
	for _, nr := range out.resp.Nodes {
		byID[nr.ID] = nr
	}
	if nr := byID["head"]; nr.Status != apiv1.StatusOK {
		t.Fatalf("running node should finish cleanly: %+v", nr)
	}
	if nr := byID["stuck"]; nr.Status != apiv1.StatusFailed || nr.Error == nil || nr.Error.Code != apiv1.CodeDeadline {
		t.Fatalf("abandoned node = %+v, want failed with code %q", nr, apiv1.CodeDeadline)
	}
	if nr := byID["child"]; nr.Status != apiv1.StatusSkipped || nr.Error == nil || nr.Error.Code != apiv1.CodeUpstreamFailed {
		t.Fatalf("dependent of abandoned node = %+v, want skipped with code %q", nr, apiv1.CodeUpstreamFailed)
	}

	snap := <-snapDone
	if snap[metrics.CounterServeAbandoned] != 1 {
		t.Fatalf("%s = %d, want 1", metrics.CounterServeAbandoned, snap[metrics.CounterServeAbandoned])
	}
	if snap[metrics.CounterServeBatchesCompleted] != 1 {
		t.Fatalf("batch not accounted as completed under drain: %v", snap)
	}
	if jobs, flops := s.Inflight(); jobs != 0 || flops != 0 {
		t.Fatalf("inflight after drained batch = %d/%d, want 0/0", jobs, flops)
	}
	if n := settleGoroutines(baseline); n > baseline {
		t.Fatalf("goroutines leaked across drain-vs-batch race: baseline %d, now %d", baseline, n)
	}
}
