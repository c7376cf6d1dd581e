package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

var (
	countOnce sync.Once
	// countRunning and countPeak are the "count" engine's current and
	// highest number of runs inside it at once.
	countRunning, countPeak atomic.Int64
)

// registerCountEngine adds "count": the "block" engine that also
// records how many of its runs overlap.
func registerCountEngine() {
	registerTestEngines()
	countOnce.Do(func() {
		spgemm.Register(funcEngine{name: "count", run: func(a, b *spgemm.Matrix, _ *spgemm.RunOptions) (*spgemm.Matrix, spgemm.Report, error) {
			n := countRunning.Add(1)
			defer countRunning.Add(-1)
			for p := countPeak.Load(); n > p && !countPeak.CompareAndSwap(p, n); p = countPeak.Load() {
			}
			<-blockGate.Load().(chan struct{})
			c, _, err := cpuEngine.Run(a, b, &spgemm.RunOptions{Threads: 1})
			return c, nil, err
		}})
	})
}

// TestRunSlotsBoundJobsAndBatchNodes: MaxConcurrent bounds every
// computation on the server at once, /v1/multiply jobs and batch nodes
// together, not each batch on its own.
func TestRunSlotsBoundJobsAndBatchNodes(t *testing.T) {
	registerCountEngine()
	gate := openGate()
	countPeak.Store(0)
	s := New(Config{MaxConcurrent: 1})
	defer s.Drain(0)

	a := testMatrix()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(Job{Engine: "count", A: a, B: a}); err != nil {
			t.Errorf("job: %v", err)
		}
	}()
	waitInflight(t, s, 1)
	for i := int64(0); i < 3; i++ {
		h, err := s.StoreMatrix(spgemm.ER(40, 40, 0.1, 20+i))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.SubmitBatch(&apiv1.BatchRequest{Engine: "count", Nodes: []apiv1.BatchNode{
				{ID: "x", A: apiv1.Operand{Handle: h}},
				{ID: "y", A: apiv1.Operand{Node: "x"}},
			}})
			if err != nil || resp.Completed != 2 {
				t.Errorf("batch: %+v, %v", resp, err)
			}
		}()
	}
	waitInflight(t, s, 4)
	// Time for a node that runs outside the bound to reach the engine.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if p := countPeak.Load(); p != 1 {
		t.Fatalf("%d engine runs at once under MaxConcurrent 1", p)
	}
}

// TestQueuedJobPinsHandle: a job by handle that waits for a run slot
// holds its handle against LRU eviction, as a batch node does, so the
// pattern's cached plans are still there when it runs; it lets go of
// the handle when it finishes.
func TestQueuedJobPinsHandle(t *testing.T) {
	registerTestEngines()
	a := spgemm.ER(64, 64, 0.05, 10)
	fillers := []*spgemm.Matrix{spgemm.ER(64, 64, 0.05, 11), spgemm.ER(64, 64, 0.05, 12), spgemm.ER(64, 64, 0.05, 13)}
	// Room for three matrices: the fourth upload evicts.
	s := New(Config{MaxConcurrent: 1, MatrixStoreBytes: a.Bytes() + fillers[0].Bytes() + fillers[1].Bytes()})
	defer s.Drain(0)
	h, err := s.StoreMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Job{Engine: "cpu", AHandle: h, BHandle: h}); err != nil {
		t.Fatal(err) // warms the pattern's plan
	}

	gate := openGate()
	blocked := make(chan *Result, 1)
	go func() {
		res, _ := s.Submit(Job{Engine: "block", A: a, B: a})
		blocked <- res
	}()
	waitInflight(t, s, 1)
	queued := make(chan *Result, 1)
	go func() {
		res, _ := s.Submit(Job{Engine: "cpu", AHandle: h, BHandle: h})
		queued <- res
	}()
	waitInflight(t, s, 2)
	for _, m := range fillers {
		if _, err := s.StoreMatrix(m); err != nil {
			t.Fatal(err)
		}
	}
	_, resident := s.Matrix(h)
	close(gate)
	<-blocked
	res := <-queued

	if !resident {
		t.Fatal("the handle of a job waiting for a run slot was evicted")
	}
	if res == nil || res.Err != nil {
		t.Fatalf("queued job: %+v", res)
	}
	if res.Snapshot[metrics.CounterPlanCacheHits] == 0 {
		t.Fatalf("queued job ran cold: its pattern's plans left while it waited: %v", res.Snapshot)
	}
	s.store.mu.Lock()
	pins := s.store.entries[h].pins
	s.store.mu.Unlock()
	if pins != 0 {
		t.Fatalf("%d pins left on the handle after its job finished", pins)
	}
}

// TestBatchEstimateFailureCannotWedgeProbe: a batch node routed as the
// half-open probe whose cost estimate fails (here: the server's base
// device is too small to plan on) never ran, so it must leave the
// breaker open with the probe still to give, not half-open forever.
func TestBatchEstimateFailureCannotWedgeProbe(t *testing.T) {
	a := spgemm.RMAT(7, 8, 0.57, 0.19, 0.19, 107)
	tiny := spgemm.V100WithMemory(4 << 10)
	s := New(Config{
		MaxConcurrent: 1,
		Base:          spgemm.RunOptions{Device: &tiny},
		Breaker:       BreakerConfig{TripFailures: -1, TripRetries: -1, TripDevicesLost: 1, CooldownJobs: 1},
	})
	defer s.Drain(0)

	if _, err := s.Submit(Job{Engine: "hybrid", A: a, B: a, Opts: hybridLossOpts(1)}); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Submit(Job{Engine: "hybrid", A: a, B: a, Opts: hybridLossOpts(2)}); err != nil || !res.Degraded {
		t.Fatalf("cooldown job: %+v err=%v", res, err) // spends the cooldown
	}
	h, err := s.StoreMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.SubmitBatch(&apiv1.BatchRequest{Engine: "hybrid", Nodes: []apiv1.BatchNode{
		{ID: "n", A: apiv1.Operand{Handle: h}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if nr := resp.Nodes[0]; nr.Status != apiv1.StatusFailed || nr.Error == nil || nr.Error.Code != apiv1.CodeOOM {
		t.Fatalf("node on a 4 KiB device: %+v, want failed with code %q", nr, apiv1.CodeOOM)
	}
	if st := s.BreakerStates()["hybrid"]; st != "open" {
		t.Fatalf("breaker %q after a node that never ran, want open", st)
	}
	res, err := s.Submit(Job{Engine: "hybrid", A: a, B: a, Opts: healthyHybridOpts()})
	if err != nil || !res.Probe || res.Degraded {
		t.Fatalf("next job is not the probe: %+v err=%v", res, err)
	}
	if st := s.BreakerStates()["hybrid"]; st != "closed" {
		t.Fatalf("breaker %q after a healthy probe, want closed", st)
	}
}
