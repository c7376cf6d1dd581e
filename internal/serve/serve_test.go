package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// --- test engines -----------------------------------------------------

var (
	testEngineOnce sync.Once
	// blockGate holds the channel the "block" engine waits on; tests
	// swap in a fresh channel and close it to release blocked jobs.
	blockGate atomic.Value // chan struct{}
	// cpuEngine is the library's cpu engine, on which the test engines
	// compute their products.
	cpuEngine, _ = spgemm.ByName("cpu")
)

type funcEngine struct {
	name string
	run  func(a, b *spgemm.Matrix, o *spgemm.RunOptions) (*spgemm.Matrix, spgemm.Report, error)
}

func (e funcEngine) Name() string     { return e.name }
func (e funcEngine) Describe() string { return "test engine " + e.name }
func (e funcEngine) Run(a, b *spgemm.Matrix, o *spgemm.RunOptions) (*spgemm.Matrix, spgemm.Report, error) {
	return e.run(a, b, o)
}

func registerTestEngines() {
	testEngineOnce.Do(func() {
		spgemm.Register(funcEngine{name: "block", run: func(a, b *spgemm.Matrix, _ *spgemm.RunOptions) (*spgemm.Matrix, spgemm.Report, error) {
			<-blockGate.Load().(chan struct{})
			c, _, err := cpuEngine.Run(a, b, &spgemm.RunOptions{Threads: 1})
			return c, nil, err
		}})
		spgemm.Register(funcEngine{name: "boom", run: func(_, _ *spgemm.Matrix, _ *spgemm.RunOptions) (*spgemm.Matrix, spgemm.Report, error) {
			panic("chaos monkey")
		}})
	})
}

func openGate() chan struct{} {
	gate := make(chan struct{})
	blockGate.Store(gate)
	return gate
}

// --- helpers ----------------------------------------------------------

func testMatrix() *spgemm.Matrix { return spgemm.ER(40, 40, 0.1, 1) }

func waitInflight(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if jobs, _ := s.Inflight(); jobs == want {
			return
		}
		if time.Now().After(deadline) {
			jobs, _ := s.Inflight()
			t.Fatalf("inflight jobs = %d, want %d", jobs, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitTrue(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkGoroutines asserts the goroutine count settles back to the
// baseline (the leak audit of the drain path).
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// hybridLossOpts reproduces the chaos suite's hybrid+loss scenario:
// the device dies mid-run, the CPU worker absorbs the chunks, the job
// completes with DevicesLost=1 in its recovery signal — a
// deterministic breaker trip source.
func hybridLossOpts(seed int64) *spgemm.RunOptions {
	cfg := spgemm.V100WithMemory(1 << 20)
	return &spgemm.RunOptions{
		Device: &cfg,
		Core:   spgemm.OutOfCoreOptions{RowPanels: 4, ColPanels: 2},
		Faults: spgemm.FaultConfig{Seed: seed, TransferRate: 0.02, LossAfterOps: 60},
	}
}

func healthyHybridOpts() *spgemm.RunOptions {
	cfg := spgemm.V100WithMemory(1 << 20)
	return &spgemm.RunOptions{
		Device: &cfg,
		Core:   spgemm.OutOfCoreOptions{RowPanels: 4, ColPanels: 2},
	}
}

// --- tests ------------------------------------------------------------

func TestSubmitRunsJob(t *testing.T) {
	s := New(Config{})
	defer s.Drain(0)
	a := testMatrix()
	res, err := s.Submit(Job{Engine: "cpu", A: a, B: a})
	if err != nil {
		t.Fatal(err)
	}
	want, err := spgemm.Multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !spgemm.Equal(res.C, want, 1e-9) {
		t.Fatal("served product differs from direct multiply")
	}
	if res.Engine != "cpu" || res.Degraded {
		t.Fatalf("routing: engine %q degraded=%v, want cpu undegraded", res.Engine, res.Degraded)
	}
	if res.Cost.Flops != spgemm.Flops(a, a) {
		t.Fatalf("cost flops = %d, want %d", res.Cost.Flops, spgemm.Flops(a, a))
	}
	snap := s.Snapshot()
	if snap[metrics.CounterServeAccepted] != 1 || snap[metrics.CounterServeCompleted] != 1 {
		t.Fatalf("counters: %v", snap)
	}
}

// TestBaseReachesEveryJob runs a gpu job three ways on a server whose
// base options fix an 8-chunk grid: Submit with nil Opts, Server.Multiply
// and a batch node. The last two build their jobs with options of their
// own (deadline, threads, GPUs); the base's other fields still reach
// them, so all three run the same cold 8-chunk schedule and report the
// same simulated time.
func TestBaseReachesEveryJob(t *testing.T) {
	cfg := spgemm.V100WithMemory(1 << 20)
	s := New(Config{PlanCacheBytes: -1, Base: spgemm.RunOptions{
		Device: &cfg,
		Core:   spgemm.OutOfCoreOptions{RowPanels: 4, ColPanels: 2},
	}})
	defer s.Drain(0)
	a := testMatrix()
	h, err := s.StoreMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Submit(Job{Engine: "gpu", AHandle: h, BHandle: h})
	if err != nil {
		t.Fatal(err)
	}
	if chunks := base.Report.Counters()["chunks"]; chunks != 8 {
		t.Fatalf("Submit with nil Opts ran %d chunks, want the base's 8", chunks)
	}
	want := base.Report.Seconds()

	resp, err := s.Multiply(apiv1.MultiplyRequest{Engine: "gpu", AHandle: h})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seconds != want {
		t.Fatalf("Server.Multiply: %g simulated seconds, want the 8-chunk run's %g", resp.Seconds, want)
	}
	batch, err := s.SubmitBatch(&apiv1.BatchRequest{Engine: "gpu", Nodes: []apiv1.BatchNode{
		{ID: "n", A: apiv1.Operand{Handle: h}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if nr := batch.Nodes[0]; nr.Status != apiv1.StatusOK || nr.Seconds != want {
		t.Fatalf("batch node: %+v, want status ok and the 8-chunk run's %g simulated seconds", nr, want)
	}
}

func TestOverloadShedsTyped(t *testing.T) {
	registerTestEngines()
	gate := openGate()
	a := testMatrix()
	flops := spgemm.Flops(a, a)
	s := New(Config{
		MaxConcurrent:    1,
		QueueDepth:       8,
		MaxInflightFlops: flops + flops/2, // one job fits, two do not
		FlopsPerSec:      1000,
	})
	defer s.Drain(0)

	resCh := make(chan *Result, 1)
	go func() {
		res, _ := s.Submit(Job{Engine: "block", A: a, B: a})
		resCh <- res
	}()
	waitInflight(t, s, 1)

	_, err := s.Submit(Job{Engine: "block", A: a, B: a})
	if err == nil {
		t.Fatal("second job admitted past the flop budget")
	}
	if !errors.Is(err, spgemm.ErrOverloaded) || !faults.Shedding(err) {
		t.Fatalf("err = %v, want ErrOverloaded shedding", err)
	}
	// The typed error must survive further wrapping, and carry the hint.
	wrapped := fmt.Errorf("client retry layer: %w", fmt.Errorf("rpc: %w", err))
	if !errors.Is(wrapped, faults.ErrOverloaded) {
		t.Fatal("ErrOverloaded lost through double wrap")
	}
	var oe *OverloadError
	if !errors.As(wrapped, &oe) {
		t.Fatal("OverloadError not extractable from wrap chain")
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("retry-after hint %v, want > 0", oe.RetryAfter)
	}
	// inflight flops / FlopsPerSec: one blocked job's worth at 1k/s.
	if wantMin := time.Duration(float64(flops) / 1000 * float64(time.Second) / 2); oe.RetryAfter < wantMin {
		t.Fatalf("retry-after %v implausibly small (inflight %d flops at 1000/s)", oe.RetryAfter, flops)
	}
	if d, ok := RetryAfter(wrapped); !ok || d != oe.RetryAfter {
		t.Fatalf("RetryAfter helper = %v,%v", d, ok)
	}

	close(gate)
	if res := <-resCh; res == nil || res.Err != nil {
		t.Fatalf("blocked job failed: %+v", res)
	}
	snap := s.Snapshot()
	if snap[metrics.CounterServeRejectedOverload] != 1 || snap[metrics.CounterServeAccepted] != 1 {
		t.Fatalf("counters: %v", snap)
	}
}

func TestQueueFullSheds(t *testing.T) {
	registerTestEngines()
	gate := openGate()
	a := testMatrix()
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	defer s.Drain(0)

	results := make(chan *Result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, _ := s.Submit(Job{Engine: "block", A: a, B: a})
			results <- res
		}()
	}
	// Job 1 occupies the worker, job 2 the single queue slot.
	waitInflight(t, s, 2)

	_, err := s.Submit(Job{Engine: "block", A: a, B: a})
	if !errors.Is(err, spgemm.ErrQueueFull) || !faults.Shedding(err) {
		t.Fatalf("err = %v, want ErrQueueFull shedding", err)
	}
	var qe *QueueFullError
	if !errors.As(fmt.Errorf("wrap: %w", err), &qe) || qe.Depth != 1 {
		t.Fatalf("QueueFullError not preserved: %v", err)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if res := <-results; res == nil || res.Err != nil {
			t.Fatalf("admitted job failed: %+v", res)
		}
	}
	snap := s.Snapshot()
	if snap[metrics.CounterServeRejectedQueue] != 1 || snap[metrics.CounterServeAccepted] != 2 {
		t.Fatalf("counters: %v", snap)
	}
}

// TestBreakerLifecycle walks the full circuit: two device-loss jobs
// trip the hybrid breaker, the next two jobs degrade to the CPU
// engine, the cooldown expires and a healthy half-open probe closes
// the circuit again.
func TestBreakerLifecycle(t *testing.T) {
	a := spgemm.RMAT(7, 8, 0.57, 0.19, 0.19, 107)
	want, err := spgemm.Multiply(a, a)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		MaxConcurrent: 1,
		Breaker: BreakerConfig{
			TripFailures:    -1,
			TripRetries:     -1,
			TripDevicesLost: 2,
			CooldownJobs:    2,
		},
	})
	defer s.Drain(0)

	// Two jobs, one lost device each: cumulative 2 trips the breaker.
	for i := int64(1); i <= 2; i++ {
		res, err := s.Submit(Job{Engine: "hybrid", A: a, B: a, Opts: hybridLossOpts(i)})
		if err != nil {
			t.Fatalf("loss job %d: %v", i, err)
		}
		if res.Degraded || res.Engine != "hybrid" {
			t.Fatalf("loss job %d routed to %q degraded=%v before trip", i, res.Engine, res.Degraded)
		}
		if res.Snapshot["faults_injected_lost"] == 0 {
			t.Fatalf("loss job %d lost no device; scenario drifted: %v", i, res.Snapshot)
		}
	}
	if st := s.BreakerStates()["hybrid"]; st != "open" {
		t.Fatalf("breaker state %q after 2 lost devices, want open", st)
	}
	if trips := s.Snapshot()[metrics.CounterServeBreakerTrips]; trips != 1 {
		t.Fatalf("breaker trips = %d, want 1", trips)
	}

	// Cooldown: the next two hybrid jobs degrade to the CPU engine and
	// still produce the exact product.
	for i := 0; i < 2; i++ {
		res, err := s.Submit(Job{Engine: "hybrid", A: a, B: a, Opts: hybridLossOpts(9)})
		if err != nil {
			t.Fatalf("degraded job %d: %v", i, err)
		}
		if !res.Degraded || res.Engine != "cpu" || res.Requested != "hybrid" {
			t.Fatalf("degraded job %d: engine %q degraded=%v", i, res.Engine, res.Degraded)
		}
		if !spgemm.Equal(res.C, want, 1e-9) {
			t.Fatal("degraded product differs from reference")
		}
	}
	if n := s.Snapshot()[metrics.CounterServeDegraded]; n != 2 {
		t.Fatalf("degraded jobs = %d, want 2", n)
	}

	// Cooldown spent: the next job is the half-open probe. It runs
	// fault-free, so the circuit closes.
	res, err := s.Submit(Job{Engine: "hybrid", A: a, B: a, Opts: healthyHybridOpts()})
	if err != nil {
		t.Fatalf("probe job: %v", err)
	}
	if !res.Probe || res.Engine != "hybrid" || res.Degraded {
		t.Fatalf("probe job: engine %q probe=%v degraded=%v", res.Engine, res.Probe, res.Degraded)
	}
	if st := s.BreakerStates()["hybrid"]; st != "closed" {
		t.Fatalf("breaker state %q after healthy probe, want closed", st)
	}
	snap := s.Snapshot()
	if snap[metrics.CounterServeBreakerProbes] != 1 || snap[metrics.CounterServeBreakerCloses] != 1 {
		t.Fatalf("probe/close counters: %v", snap)
	}

	// Closed again: traffic flows to hybrid directly.
	res, err = s.Submit(Job{Engine: "hybrid", A: a, B: a, Opts: healthyHybridOpts()})
	if err != nil || res.Degraded || res.Probe || res.Engine != "hybrid" {
		t.Fatalf("post-close job: %+v err=%v", res, err)
	}
	// The server snapshot aggregated every job's recovery counters.
	if snap[metrics.CounterServeAccepted] != 5 {
		t.Fatalf("accepted = %d, want 5", snap[metrics.CounterServeAccepted])
	}
}

// TestBreakerReopensOnUnhealthyProbe: a probe that loses its device
// again sends the circuit straight back to open with a fresh cooldown.
func TestBreakerReopensOnUnhealthyProbe(t *testing.T) {
	a := spgemm.RMAT(7, 8, 0.57, 0.19, 0.19, 107)
	s := New(Config{
		MaxConcurrent: 1,
		Breaker: BreakerConfig{
			TripFailures:    -1,
			TripRetries:     -1,
			TripDevicesLost: 1,
			CooldownJobs:    1,
		},
	})
	defer s.Drain(0)

	if _, err := s.Submit(Job{Engine: "hybrid", A: a, B: a, Opts: hybridLossOpts(1)}); err != nil {
		t.Fatal(err)
	}
	if st := s.BreakerStates()["hybrid"]; st != "open" {
		t.Fatalf("state %q, want open", st)
	}
	if res, err := s.Submit(Job{Engine: "hybrid", A: a, B: a, Opts: hybridLossOpts(2)}); err != nil || !res.Degraded {
		t.Fatalf("cooldown job: %+v err=%v", res, err)
	}
	// Probe loses its device too: back to open, not closed.
	res, err := s.Submit(Job{Engine: "hybrid", A: a, B: a, Opts: hybridLossOpts(3)})
	if err != nil || !res.Probe {
		t.Fatalf("probe: %+v err=%v", res, err)
	}
	if st := s.BreakerStates()["hybrid"]; st != "open" {
		t.Fatalf("state %q after unhealthy probe, want open", st)
	}
	snap := s.Snapshot()
	if snap[metrics.CounterServeBreakerCloses] != 0 || snap[metrics.CounterServeBreakerProbes] != 1 {
		t.Fatalf("counters: %v", snap)
	}
}

func TestPanicIsolation(t *testing.T) {
	registerTestEngines()
	a := testMatrix()
	s := New(Config{MaxConcurrent: 1})
	defer s.Drain(0)

	res, err := s.Submit(Job{Engine: "boom", A: a, B: a})
	if !errors.Is(err, spgemm.ErrJobPanic) {
		t.Fatalf("err = %v, want ErrJobPanic", err)
	}
	var pe *PanicError
	if !errors.As(fmt.Errorf("wrap: %w", err), &pe) || pe.Engine != "boom" {
		t.Fatalf("PanicError not preserved: %v", err)
	}
	if res == nil || res.Err == nil {
		t.Fatal("panicked job must still deliver its Result")
	}
	// The server survives: the next job completes normally.
	if res, err := s.Submit(Job{Engine: "cpu", A: a, B: a}); err != nil || res.C == nil {
		t.Fatalf("server did not survive the panic: %v", err)
	}
	snap := s.Snapshot()
	if snap[metrics.CounterServePanicked] != 1 || snap[metrics.CounterServeCompleted] != 1 {
		t.Fatalf("counters: %v", snap)
	}
}

func TestDrainGraceful(t *testing.T) {
	registerTestEngines()
	baseline := runtime.NumGoroutine()
	gate := openGate()
	a := testMatrix()
	s := New(Config{MaxConcurrent: 2})

	results := make(chan *Result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, _ := s.Submit(Job{Engine: "block", A: a, B: a})
			results <- res
		}()
	}
	waitInflight(t, s, 2)
	close(gate)

	snap := s.Drain(5 * time.Second)
	if snap[metrics.CounterServeCompleted] != 2 {
		t.Fatalf("drain snapshot: %v", snap)
	}
	for i := 0; i < 2; i++ {
		if res := <-results; res == nil || res.Err != nil {
			t.Fatalf("inflight job did not finish during drain: %+v", res)
		}
	}

	// Admission is closed now.
	_, err := s.Submit(Job{Engine: "cpu", A: a, B: a})
	var de *DrainingError
	if !errors.As(err, &de) || !errors.Is(err, spgemm.ErrOverloaded) {
		t.Fatalf("post-drain submit err = %v, want DrainingError", err)
	}
	if s.Snapshot()[metrics.CounterServeRejectedDraining] != 1 {
		t.Fatalf("counters: %v", s.Snapshot())
	}
	// Drain is idempotent and the workers are gone.
	s.Drain(time.Second)
	checkGoroutines(t, baseline)
}

func TestDrainAbandonsQueued(t *testing.T) {
	registerTestEngines()
	gate := openGate()
	a := testMatrix()
	s := New(Config{MaxConcurrent: 1, QueueDepth: 4})

	running := make(chan *Result, 1)
	queued := make(chan *Result, 1)
	go func() {
		res, _ := s.Submit(Job{Engine: "block", A: a, B: a})
		running <- res
	}()
	waitInflight(t, s, 1)
	go func() {
		res, _ := s.Submit(Job{Engine: "block", A: a, B: a})
		queued <- res
	}()
	waitInflight(t, s, 2)

	snapCh := make(chan map[string]int64, 1)
	go func() { snapCh <- s.Drain(20 * time.Millisecond) }()
	// Wait for the drain deadline to pass before releasing the worker,
	// so the queued job is dequeued under abandonment.
	waitTrue(t, "drain deadline", s.Abandoning)
	close(gate)

	snap := <-snapCh
	if res := <-running; res == nil || res.Err != nil || res.Abandoned {
		t.Fatalf("inflight job: %+v", res)
	}
	res := <-queued
	if res == nil || !res.Abandoned || !errors.Is(res.Err, spgemm.ErrDeadline) {
		t.Fatalf("queued job not abandoned with ErrDeadline: %+v", res)
	}
	if snap[metrics.CounterServeAbandoned] != 1 || snap[metrics.CounterServeCompleted] != 1 {
		t.Fatalf("drain snapshot: %v", snap)
	}
}

// TestErrorTaxonomyWrapPoints is the satellite table test: every typed
// serving error must keep its errors.Is identity through the wrap
// layers a response crosses (engine → registry → server → client).
func TestErrorTaxonomyWrapPoints(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		sentinel error
		shedding bool
	}{
		{"overload", &OverloadError{RetryAfter: time.Second}, faults.ErrOverloaded, true},
		{"queue-full", &QueueFullError{Depth: 4}, faults.ErrQueueFull, true},
		{"draining", &DrainingError{}, faults.ErrOverloaded, true},
		{"panic", &PanicError{Engine: "gpu", Value: "boom"}, faults.ErrJobPanic, false},
	}
	wraps := []func(error) error{
		func(e error) error { return e },
		func(e error) error { return fmt.Errorf("server: %w", e) },
		func(e error) error { return fmt.Errorf("registry: %w", fmt.Errorf("engine: %w", e)) },
	}
	for _, tc := range cases {
		for i, wrap := range wraps {
			err := wrap(tc.err)
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("%s (wrap %d): lost sentinel %v", tc.name, i, tc.sentinel)
			}
			if faults.Shedding(err) != tc.shedding {
				t.Errorf("%s (wrap %d): Shedding = %v, want %v", tc.name, i, faults.Shedding(err), tc.shedding)
			}
		}
	}
	// The spgemm re-exports are the same sentinels, not copies.
	if spgemm.ErrOverloaded != faults.ErrOverloaded ||
		spgemm.ErrQueueFull != faults.ErrQueueFull ||
		spgemm.ErrJobPanic != faults.ErrJobPanic {
		t.Fatal("spgemm re-exports differ from faults sentinels")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := New(Config{MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, map[string]any) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code, body := get("/readyz"); code != http.StatusOK || body["draining"] != false {
		t.Fatalf("readyz = %d %v", code, body)
	}

	req := `{"engine":"cpu","a":{"kind":"er","rows":40,"cols":40,"density":0.1,"seed":1}}`
	resp, err := http.Post(ts.URL+"/v1/multiply", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	var mr apiv1.MultiplyResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || mr.Engine != "cpu" || mr.NnzC == 0 {
		t.Fatalf("multiply = %d %+v", resp.StatusCode, mr)
	}

	// Unknown engine is a typed client error, not a crash.
	for _, engine := range []string{"warp-drive", "cpu-merge"} {
		resp, err = http.Post(ts.URL+"/v1/multiply", "application/json",
			strings.NewReader(`{"engine":"`+engine+`","a":{"kind":"er","rows":8,"cols":8}}`))
		if err != nil {
			t.Fatal(err)
		}
		var er apiv1.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || er.Code != apiv1.CodeBadRequest {
			t.Fatalf("engine %q = %d %+v, want 400 %s", engine, resp.StatusCode, er, apiv1.CodeBadRequest)
		}
	}

	if code, body := get("/metricsz"); code != http.StatusOK || body[metrics.CounterServeAccepted] != float64(1) {
		t.Fatalf("metricsz = %d %v", code, body)
	}

	s.Drain(time.Second)
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", code)
	}
	resp, err = http.Post(ts.URL+"/v1/multiply", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("multiply while draining = %d, want 503", resp.StatusCode)
	}
}

func TestHTTPShedsWith429(t *testing.T) {
	registerTestEngines()
	gate := openGate()
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	defer s.Drain(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := `{"engine":"block","a":{"kind":"er","rows":40,"cols":40,"density":0.1,"seed":1}}`
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/multiply", "application/json", strings.NewReader(req))
			if err == nil {
				resp.Body.Close()
			}
			done <- struct{}{}
		}()
	}
	waitInflight(t, s, 2)

	resp, err := http.Post(ts.URL+"/v1/multiply", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	var body apiv1.ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if body.Error == "" {
		t.Fatal("429 without error body")
	}

	close(gate)
	<-done
	<-done
}
