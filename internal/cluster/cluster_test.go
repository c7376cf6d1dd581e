package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// --- harness ----------------------------------------------------------

// testCluster is N real serve.Servers on loopback sockets, each behind
// a faults.NetProxy, under one Coordinator that reaches them through
// RemoteReplicas: the production transport, with a kill a refused
// connection.
type testCluster struct {
	c       *Coordinator
	servers map[string]*serve.Server
	proxies map[string]*faults.NetProxy
}

func newTestCluster(t *testing.T, n int, cfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{servers: map[string]*serve.Server{}, proxies: map[string]*faults.NetProxy{}}
	var backends []Backend
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d", i)
		s, ts := remoteServe(t, serve.Config{MaxConcurrent: 2})
		p := faults.NewNetProxy(faults.NetProxyConfig{Seed: int64(i + 1), Target: strings.TrimPrefix(ts.URL, "http://")})
		addr, err := p.Start()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		tc.servers[name], tc.proxies[name] = s, p
		backends = append(backends, NewRemoteReplica(name, "http://"+addr, RemoteConfig{HTTP: oneShot()}))
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(time.Duration) {} // no real backoff waits in tests
	}
	tc.c = New(cfg, backends...)
	t.Cleanup(func() {
		for name := range tc.proxies {
			tc.revive(t, name) // drain must reach the servers
		}
		tc.c.Drain(0)
	})
	return tc
}

// kill closes a replica's proxy listener: every dial, probes included,
// is refused, as for a process that is gone. The server keeps its
// state, so revive brings the same replica back.
func (tc *testCluster) kill(t *testing.T, name string) {
	t.Helper()
	if err := tc.proxies[name].Partition(true); err != nil {
		t.Fatal(err)
	}
}

// revive reopens a killed replica's listener on the same address.
func (tc *testCluster) revive(t *testing.T, name string) {
	t.Helper()
	if err := tc.proxies[name].Partition(false); err != nil {
		t.Fatal(err)
	}
}

// ownerOf reports the healthy route order for a matrix's fingerprint.
func (tc *testCluster) ownerOf(m *spgemm.Matrix) []string {
	return tc.c.candidates(spgemm.Fingerprint(m))
}

func testMatrix(seed int64) *spgemm.Matrix { return spgemm.ER(40, 40, 0.1, seed) }

// --- routing ----------------------------------------------------------

func TestClusterRoutesByFingerprint(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	m := testMatrix(1)
	want, err := spgemm.Multiply(m, m)
	if err != nil {
		t.Fatal(err)
	}
	owner := tc.ownerOf(m)[0]

	handle, err := tc.c.StoreMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	if fp, ok := handleStructFP(handle); !ok || fp != spgemm.Fingerprint(m) {
		t.Fatalf("handle %q does not carry the structural fingerprint", handle)
	}

	// Repeated handle multiplies land on the owner and hit its plan
	// cache after the cold run.
	for i := 0; i < 3; i++ {
		resp, err := tc.c.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle})
		if err != nil {
			t.Fatalf("multiply %d: %v", i, err)
		}
		if resp.NnzC != want.Nnz() {
			t.Fatalf("multiply %d: nnz %d, want %d", i, resp.NnzC, want.Nnz())
		}
	}
	for name, s := range tc.servers {
		accepted := s.Snapshot()[metrics.CounterServeAccepted]
		if name == owner && accepted != 3 {
			t.Fatalf("owner %s accepted %d jobs, want 3", name, accepted)
		}
		if name != owner && accepted != 0 {
			t.Fatalf("non-owner %s accepted %d jobs, want 0", name, accepted)
		}
	}
	if hits := tc.servers[owner].Snapshot()[metrics.CounterPlanCacheHits]; hits != 2 {
		t.Fatalf("owner plan cache hits = %d, want 2 (one cold, two warm)", hits)
	}
	snap := tc.c.Snapshot()
	if snap[metrics.CounterClusterRoutes] != 4 || snap[metrics.CounterClusterFailovers] != 0 {
		t.Fatalf("routing counters: %v", snap)
	}
}

// --- failover ---------------------------------------------------------

func TestClusterFailoverOnKilledReplica(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	m := testMatrix(2)
	want, err := spgemm.Multiply(m, m)
	if err != nil {
		t.Fatal(err)
	}
	handle, err := tc.c.StoreMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.c.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle}); err != nil {
		t.Fatal(err)
	}
	route := tc.ownerOf(m)
	owner, successor := route[0], route[1]

	// Kill the owner mid-stream: the very next request re-routes to the
	// ring successor, which gets the operand re-uploaded from the
	// coordinator's spill copy. No admitted request is lost.
	tc.kill(t, owner)
	resp, err := tc.c.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle})
	if err != nil {
		t.Fatalf("multiply after kill: %v", err)
	}
	if resp.NnzC != want.Nnz() {
		t.Fatalf("failover product nnz %d, want %d", resp.NnzC, want.Nnz())
	}
	if got := tc.c.Health()[owner]; got != HealthDown {
		t.Fatalf("killed owner health %q, want down", got)
	}
	if accepted := tc.servers[successor].Snapshot()[metrics.CounterServeAccepted]; accepted != 1 {
		t.Fatalf("successor accepted %d jobs, want 1", accepted)
	}
	snap := tc.c.Snapshot()
	if snap[metrics.CounterClusterFailovers] == 0 {
		t.Fatalf("no failover counted: %v", snap)
	}
	if snap[metrics.CounterClusterRebalances] == 0 {
		t.Fatalf("no rebalance move counted: %v", snap)
	}
	if snap[metrics.CounterClusterReplicaDown] != 1 {
		t.Fatalf("down transitions = %d, want 1", snap[metrics.CounterClusterReplicaDown])
	}
	// The kill crossed a socket: the coordinator's dial was refused.
	if refused := tc.c.Counters()[metrics.CounterClusterRemoteRefused]; refused < 1 {
		t.Fatalf("refused dials = %d after the kill, want at least 1", refused)
	}

	// Revive + probe: the owner rejoins. Its placements were voided when
	// it was condemned, so the next owner-routed request re-uploads again.
	tc.revive(t, owner)
	tc.c.Probe()
	if got := tc.c.Health()[owner]; got != HealthUp {
		t.Fatalf("revived owner health %q, want up", got)
	}
	if _, err := tc.c.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle}); err != nil {
		t.Fatalf("multiply after revive: %v", err)
	}
	snap = tc.c.Snapshot()
	if snap[metrics.CounterClusterReplicaUp] != 1 {
		t.Fatalf("up transitions = %d, want 1", snap[metrics.CounterClusterReplicaUp])
	}

	// A store_c product is cluster state as well: the spill record keeps
	// the structural fingerprint its handle carries, and once the replica
	// holding the product dies, the product is re-homed from the spill.
	stored, err := tc.c.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle, StoreC: true})
	if err != nil {
		t.Fatal(err)
	}
	tc.c.mu.Lock()
	ent := tc.c.spill[stored.CHandle]
	tc.c.mu.Unlock()
	if ent == nil || ent.structFP != spgemm.Fingerprint(want) || len(ent.placed) != 1 {
		t.Fatalf("spill of product %q is %+v, want one placement and fingerprint %x", stored.CHandle, ent, spgemm.Fingerprint(want))
	}
	for holder := range ent.placed {
		tc.kill(t, holder)
	}
	want2, err := spgemm.Multiply(want, want)
	if err != nil {
		t.Fatal(err)
	}
	rebalances := tc.c.Snapshot()[metrics.CounterClusterRebalances]
	resp, err = tc.c.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: stored.CHandle})
	if err != nil {
		t.Fatalf("multiply of the product after its holder died: %v", err)
	}
	if resp.NnzC != want2.Nnz() {
		t.Fatalf("product of the re-homed product has nnz %d, want %d", resp.NnzC, want2.Nnz())
	}
	if tc.c.Snapshot()[metrics.CounterClusterRebalances] == rebalances {
		t.Fatal("the product was not re-uploaded from the spill")
	}
}

func TestClusterBatchFailover(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	m := testMatrix(3)
	handle, err := tc.c.StoreMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	req := &apiv1.BatchRequest{Engine: "cpu", Nodes: []apiv1.BatchNode{
		{ID: "sq", A: apiv1.Operand{Handle: handle}},
		{ID: "cube", A: apiv1.Operand{Node: "sq"}, B: &apiv1.Operand{Handle: handle}},
	}}
	owner := tc.c.candidates(batchKey(req))[0]
	tc.kill(t, owner)

	resp, err := tc.c.SubmitBatch(req)
	if err != nil {
		t.Fatalf("batch after kill: %v", err)
	}
	if resp.Completed != 2 || resp.Failed != 0 || resp.Skipped != 0 {
		t.Fatalf("batch results: %+v", resp)
	}
	snap := tc.c.Snapshot()
	if snap[metrics.CounterClusterFailovers] == 0 || snap[metrics.CounterClusterRebalances] == 0 {
		t.Fatalf("failover counters: %v", snap)
	}
}

// TestClusterRevalueWhileOwnerDown: the coordinator's spill copy makes
// a re-value independent of the handle's owner being alive.
func TestClusterRevalueWhileOwnerDown(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	m := testMatrix(4)
	handle, err := tc.c.StoreMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	tc.kill(t, tc.ownerOf(m)[0])

	resp, err := tc.c.StoreFromRequest(apiv1.MatrixRequest{Handle: handle, ValuesSeed: 99})
	if err != nil {
		t.Fatalf("revalue with dead owner: %v", err)
	}
	if resp.StructureFP != fmt.Sprintf("%016x", spgemm.Fingerprint(m)) {
		t.Fatalf("revalue changed the structural fingerprint: %s", resp.StructureFP)
	}
	if resp.Handle == handle {
		t.Fatal("revalue returned the original handle")
	}
	if _, err := tc.c.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: resp.Handle}); err != nil {
		t.Fatalf("multiply of revalued handle: %v", err)
	}
}

// --- degraded mode ----------------------------------------------------

func TestClusterDegradedSingleSurvivor(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	tc.kill(t, "r0")
	tc.kill(t, "r1")
	tc.c.Probe()
	tc.c.Probe() // two failed rounds condemn suspect -> down
	health := tc.c.Health()
	if health["r0"] != HealthDown || health["r1"] != HealthDown || health["r2"] != HealthUp {
		t.Fatalf("health after kills: %v", health)
	}
	if got := tc.c.Ready(); got.Status != apiv1.ReadyStatusDegraded {
		t.Fatalf("cluster status %q, want degraded", got.Status)
	}

	// Every request funnels through the survivor and none fails: the
	// degraded single-replica mode is the survivor's own admission and
	// breaker machinery, fronted by the coordinator.
	const n = 5
	for i := 0; i < n; i++ {
		resp, err := tc.c.Multiply(apiv1.MultiplyRequest{
			Engine: "cpu",
			A:      apiv1.MatrixSpec{Kind: "er", Rows: 32, Cols: 32, Density: 0.1, Seed: int64(i)},
		})
		if err != nil {
			t.Fatalf("degraded multiply %d: %v", i, err)
		}
		if resp.Engine != "cpu" {
			t.Fatalf("degraded multiply %d ran on %q", i, resp.Engine)
		}
	}
	snap := tc.c.Snapshot()
	if snap[metrics.CounterClusterDegraded] != n {
		t.Fatalf("degraded requests = %d, want %d", snap[metrics.CounterClusterDegraded], n)
	}
	if accepted := tc.servers["r2"].Snapshot()[metrics.CounterServeAccepted]; accepted != n {
		t.Fatalf("survivor accepted %d, want %d", accepted, n)
	}
}

func TestClusterNoHealthyReplica(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	tc.kill(t, "r0")
	tc.kill(t, "r1")
	tc.c.Probe()
	tc.c.Probe()
	_, err := tc.c.Multiply(apiv1.MultiplyRequest{
		Engine: "cpu",
		A:      apiv1.MatrixSpec{Kind: "er", Rows: 16, Cols: 16, Density: 0.2, Seed: 1},
	})
	if !errors.Is(err, faults.ErrReplicaDown) {
		t.Fatalf("err = %v, want ErrReplicaDown", err)
	}
	if code := serve.ErrorCode(err); code != apiv1.CodeReplicaDown {
		t.Fatalf("wire code %q, want %q", code, apiv1.CodeReplicaDown)
	}
}

// --- health state machine ---------------------------------------------

func TestClusterProbeStateMachine(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	tc.kill(t, "r0")

	tc.c.Probe()
	if got := tc.c.Health()["r0"]; got != HealthSuspect {
		t.Fatalf("after one failed probe: %q, want suspect", got)
	}
	// Suspect still takes traffic: it is on the candidate list.
	if got := tc.c.Ready(); got.Status != apiv1.ReadyStatusDegraded {
		t.Fatalf("one-suspect cluster status %q, want degraded", got.Status)
	}

	tc.c.Probe()
	if got := tc.c.Health()["r0"]; got != HealthDown {
		t.Fatalf("after two failed probes: %q, want down", got)
	}

	tc.revive(t, "r0")
	tc.c.Probe()
	if got := tc.c.Health()["r0"]; got != HealthUp {
		t.Fatalf("after revival probe: %q, want up", got)
	}
	if got := tc.c.Ready(); got.Status != apiv1.ReadyStatusReady {
		t.Fatalf("recovered cluster status %q, want ready", got.Status)
	}
	snap := tc.c.Snapshot()
	if snap[metrics.CounterClusterProbeFailures] != 2 ||
		snap[metrics.CounterClusterReplicaDown] != 1 ||
		snap[metrics.CounterClusterReplicaUp] != 1 {
		t.Fatalf("probe counters: %v", snap)
	}
}

func TestClusterProbeSeesDraining(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	// Drain one server out-of-band (an operator action the coordinator
	// discovers by probing, exactly like a rolling restart).
	drained := "r0"
	tc.servers[drained].Drain(0)
	tc.c.Probe()
	if got := tc.c.Health()[drained]; got != HealthDraining {
		t.Fatalf("drained replica health %q, want draining", got)
	}
	// Requests route around it without errors.
	for i := 0; i < 4; i++ {
		if _, err := tc.c.Multiply(apiv1.MultiplyRequest{
			Engine: "cpu",
			A:      apiv1.MatrixSpec{Kind: "er", Rows: 24, Cols: 24, Density: 0.1, Seed: int64(i)},
		}); err != nil {
			t.Fatalf("multiply %d with draining replica: %v", i, err)
		}
	}
	if accepted := tc.servers[drained].Snapshot()[metrics.CounterServeAccepted]; accepted != 0 {
		t.Fatalf("draining replica accepted %d jobs", accepted)
	}
}

// --- shed retry -------------------------------------------------------

// stubBackend scripts one replica's answers for retry tests.
type stubBackend struct {
	name       string
	multiplyFn func(apiv1.MultiplyRequest) (*apiv1.MultiplyResponse, error)
}

func (s *stubBackend) Name() string { return s.name }
func (s *stubBackend) Multiply(req apiv1.MultiplyRequest) (*apiv1.MultiplyResponse, error) {
	return s.multiplyFn(req)
}
func (s *stubBackend) Batch(*apiv1.BatchRequest) (*apiv1.BatchResponse, error) {
	return nil, fmt.Errorf("stub: no batch")
}
func (s *stubBackend) Store(*spgemm.Matrix) (string, error) { return "", fmt.Errorf("stub: no store") }
func (s *stubBackend) StoreMany([]*spgemm.Matrix) ([]string, error) {
	return nil, fmt.Errorf("stub: no store")
}
func (s *stubBackend) Matrix(string) (*spgemm.Matrix, bool) { return nil, false }
func (s *stubBackend) Delete(string) bool                   { return false }
func (s *stubBackend) Ready() (apiv1.ReadyResponse, error) {
	return apiv1.ReadyResponse{Status: apiv1.ReadyStatusReady}, nil
}
func (s *stubBackend) Counters() map[string]int64           { return nil }
func (s *stubBackend) Drain(time.Duration) map[string]int64 { return nil }

func TestClusterShedRetryHonorsRetryAfter(t *testing.T) {
	var calls int
	stub := &stubBackend{name: "r0", multiplyFn: func(apiv1.MultiplyRequest) (*apiv1.MultiplyResponse, error) {
		calls++
		if calls <= 2 {
			return nil, &serve.OverloadError{RetryAfter: 40 * time.Millisecond}
		}
		return &apiv1.MultiplyResponse{Engine: "cpu"}, nil
	}}
	var slept []time.Duration
	c := New(Config{Sleep: func(d time.Duration) { slept = append(slept, d) }}, stub)

	resp, err := c.Multiply(apiv1.MultiplyRequest{Engine: "cpu", A: apiv1.MatrixSpec{Kind: "er", Rows: 8, Cols: 8, Density: 0.5, Seed: 1}})
	if err != nil || resp == nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (two sheds, one success on the second of two retries)", calls)
	}
	// The Retry-After hint overrides the exponential schedule.
	if len(slept) != 2 || slept[0] != 40*time.Millisecond || slept[1] != 40*time.Millisecond {
		t.Fatalf("backoff schedule %v, want [40ms 40ms]", slept)
	}
	if got := c.Snapshot()[metrics.CounterClusterRetries]; got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
}

func TestClusterShedRetryExhaustion(t *testing.T) {
	var calls int
	stub := &stubBackend{name: "r0", multiplyFn: func(apiv1.MultiplyRequest) (*apiv1.MultiplyResponse, error) {
		calls++
		if calls == 2 {
			return nil, &serve.OverloadError{RetryAfter: time.Second}
		}
		return nil, &serve.QueueFullError{Depth: 4}
	}}
	var slept []time.Duration
	c := New(Config{Sleep: func(d time.Duration) { slept = append(slept, d) }}, stub)

	_, err := c.Multiply(apiv1.MultiplyRequest{Engine: "cpu", A: apiv1.MatrixSpec{Kind: "er", Rows: 8, Cols: 8, Density: 0.5, Seed: 1}})
	if !faults.Shedding(err) {
		t.Fatalf("exhausted retries returned %v, want a shedding error", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 (initial + 2 retries)", calls)
	}
	// The first shed carries no hint: the 5ms base. The second hints 1s,
	// which the 250ms cap bounds.
	if len(slept) != 2 || slept[0] != 5*time.Millisecond || slept[1] != 250*time.Millisecond {
		t.Fatalf("backoff schedule %v, want [5ms 250ms]", slept)
	}
}

// TestClusterDrainingNotRetried: a draining rejection must re-route,
// never retry-in-place — DrainingError wraps ErrOverloaded, so a
// classification order bug would wait on a server that already said it
// will never admit again.
func TestClusterDrainingNotRetried(t *testing.T) {
	var r0Calls, r1Calls int
	r0 := &stubBackend{name: "r0", multiplyFn: func(apiv1.MultiplyRequest) (*apiv1.MultiplyResponse, error) {
		r0Calls++
		return nil, &serve.DrainingError{}
	}}
	r1 := &stubBackend{name: "r1", multiplyFn: func(apiv1.MultiplyRequest) (*apiv1.MultiplyResponse, error) {
		r1Calls++
		return &apiv1.MultiplyResponse{Engine: "cpu"}, nil
	}}
	var slept []time.Duration
	c := New(Config{Sleep: func(d time.Duration) { slept = append(slept, d) }}, r0, r1)

	// Find a request whose owner is r0, so the draining answer comes
	// first and the re-route is observable.
	var req apiv1.MultiplyRequest
	for seed := int64(1); ; seed++ {
		req = apiv1.MultiplyRequest{Engine: "cpu", A: apiv1.MatrixSpec{Kind: "er", Rows: 8, Cols: 8, Density: 0.5, Seed: seed}}
		if c.candidates(multiplyKey(req))[0] == "r0" {
			break
		}
	}
	if _, err := c.Multiply(req); err != nil {
		t.Fatalf("draining re-route failed: %v", err)
	}
	if r0Calls != 1 || r1Calls != 1 {
		t.Fatalf("calls r0=%d r1=%d, want exactly one each (no in-place retry)", r0Calls, r1Calls)
	}
	if len(slept) != 0 {
		t.Fatalf("slept %v on a draining answer", slept)
	}
	if got := c.Health()["r0"]; got != HealthDraining {
		t.Fatalf("r0 health %q, want draining", got)
	}
}

// --- aggregation ------------------------------------------------------

func TestClusterCountersMergeReplicas(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	for i := 0; i < 3; i++ {
		if _, err := tc.c.Multiply(apiv1.MultiplyRequest{
			Engine: "cpu",
			A:      apiv1.MatrixSpec{Kind: "er", Rows: 24, Cols: 24, Density: 0.1, Seed: int64(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	merged := tc.c.Counters()
	if merged[metrics.CounterServeAccepted] != 3 {
		t.Fatalf("merged serve_accepted = %d, want 3", merged[metrics.CounterServeAccepted])
	}
	if merged[metrics.CounterClusterRequests] != 3 || merged[metrics.CounterClusterRoutes] != 3 {
		t.Fatalf("cluster counters: %v", merged)
	}
}

func TestClusterDeleteEverywhere(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	m := testMatrix(5)
	handle, err := tc.c.StoreMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	// Spread the handle to a second replica via failover.
	route := tc.ownerOf(m)
	tc.kill(t, route[0])
	if _, err := tc.c.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle}); err != nil {
		t.Fatal(err)
	}
	tc.revive(t, route[0])
	tc.c.Probe()

	if !tc.c.DeleteMatrix(handle) {
		t.Fatal("delete found nothing")
	}
	if tc.c.DeleteMatrix(handle) {
		t.Fatal("second delete still found the handle")
	}
	// The spill is gone too: a multiply now fails with unknown_handle
	// from the routed replica.
	_, err = tc.c.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle})
	if serve.ErrorCode(err) != apiv1.CodeUnknownHandle {
		t.Fatalf("post-delete multiply: %v", err)
	}
}

// TestClusterBatchStoredCopyConcurrent: concurrent requests that need
// the copy of a placement-only handle — fetches and multiplies whose
// ring owner may be another replica — all succeed and all see one copy.
func TestClusterBatchStoredCopyConcurrent(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	m := testMatrix(3)
	handle, err := tc.c.StoreMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tc.c.SubmitBatch(&apiv1.BatchRequest{Engine: "cpu", Nodes: []apiv1.BatchNode{
		{ID: "sq", A: apiv1.Operand{Handle: handle}, Store: true},
	}})
	if err != nil || resp.Completed != 1 || resp.Nodes[0].Handle == "" {
		t.Fatalf("batch: %+v, %v", resp, err)
	}
	stored := resp.Nodes[0].Handle

	const workers = 8
	copies := make([]*spgemm.Matrix, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				copies[i], _ = tc.c.Matrix(stored)
				return
			}
			if _, err := tc.c.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: stored}); err != nil {
				t.Errorf("multiply on the stored node: %v", err)
			}
			copies[i], _ = tc.c.Matrix(stored)
		}(i)
	}
	wg.Wait()
	for i, cp := range copies {
		if cp == nil || cp != copies[0] {
			t.Fatalf("worker %d saw copy %p, worker 0 saw %p", i, cp, copies[0])
		}
	}
}
