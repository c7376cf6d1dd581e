package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// remoteServe starts a real serve server on a real socket and returns
// it with its base URL.
func remoteServe(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Drain(0) })
	return s, ts
}

// oneShot is an HTTP client with keep-alives off, so each request is
// one connection — the unit a NetProxy fate is drawn per.
func oneShot() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
}

// TestRemoteReplicaIndistinguishable runs the coordinator over two
// remote replicas on real sockets: store, handle multiply, batch and
// merged counters all work through the Backend interface exactly as
// they do over local replicas — the coordinator cannot tell.
func TestRemoteReplicaIndistinguishable(t *testing.T) {
	_, ts0 := remoteServe(t, serve.Config{MaxConcurrent: 2})
	_, ts1 := remoteServe(t, serve.Config{MaxConcurrent: 2})
	coord := New(Config{},
		NewRemoteReplica("r0", ts0.URL, RemoteConfig{}),
		NewRemoteReplica("r1", ts1.URL, RemoteConfig{}),
	)
	defer coord.Drain(time.Second)

	m := testMatrix(1)
	want, err := spgemm.Multiply(m, m)
	if err != nil {
		t.Fatal(err)
	}
	handle, err := coord.StoreMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := coord.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle})
	if err != nil {
		t.Fatal(err)
	}
	if resp.NnzC != want.Nnz() {
		t.Fatalf("remote multiply nnz = %d, want %d", resp.NnzC, want.Nnz())
	}
	br, err := coord.SubmitBatch(&apiv1.BatchRequest{Engine: "cpu", Nodes: []apiv1.BatchNode{
		{ID: "sq", A: apiv1.Operand{Handle: handle}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if br.Completed != 1 {
		t.Fatalf("remote batch completed = %d", br.Completed)
	}
	snap := coord.Counters()
	if snap[metrics.CounterServeAccepted] < 2 {
		t.Fatalf("merged counters missing remote serve counters: %v", snap)
	}
}

// TestRemoteReplicaFailoverOnKilledServer kills the operand's owning
// server process (its socket refuses), and the next multiply must fail
// over to the survivor: refused evidence condemns immediately, the
// spill copy is re-uploaded in one batch, and the request succeeds.
func TestRemoteReplicaFailoverOnKilledServer(t *testing.T) {
	_, ts0 := remoteServe(t, serve.Config{MaxConcurrent: 2})
	_, ts1 := remoteServe(t, serve.Config{MaxConcurrent: 2})
	servers := map[string]*httptest.Server{"r0": ts0, "r1": ts1}
	r0 := NewRemoteReplica("r0", ts0.URL, RemoteConfig{HTTP: oneShot()})
	r1 := NewRemoteReplica("r1", ts1.URL, RemoteConfig{HTTP: oneShot()})
	coord := New(Config{}, r0, r1)

	m := testMatrix(1)
	handle, err := coord.StoreMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	owner := tcOwner(coord, m)
	servers[owner].Close() // a real dead socket, not a simulated one

	resp, err := coord.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle})
	if err != nil {
		t.Fatalf("multiply after killing owner %s: %v", owner, err)
	}
	if resp.NnzC == 0 {
		t.Fatal("failover answer empty")
	}
	if coord.Health()[owner] != HealthDown {
		t.Fatalf("killed owner health = %s, want down (refused condemns immediately)", coord.Health()[owner])
	}
	snap := coord.Snapshot()
	if snap[metrics.CounterClusterFailovers] != 1 {
		t.Fatalf("failovers = %d, want 1", snap[metrics.CounterClusterFailovers])
	}
	if snap[metrics.CounterClusterSpillReuploadBatch] != 1 {
		t.Fatalf("spill reupload batches = %d, want 1 (successor takeover)", snap[metrics.CounterClusterSpillReuploadBatch])
	}
	if snap[metrics.CounterClusterSpillReuploadBytes] != m.Bytes() {
		t.Fatalf("spill reupload bytes = %d, want %d", snap[metrics.CounterClusterSpillReuploadBytes], m.Bytes())
	}
	dead := map[string]*RemoteReplica{"r0": r0, "r1": r1}[owner]
	if got := dead.Counters(); got[metrics.CounterClusterRemoteRefused] == 0 {
		t.Fatalf("no refused transport counted on the dead replica: %v", got)
	}
}

// tcOwner is ownerOf for a coordinator without the test-cluster struct.
func tcOwner(c *Coordinator, m *spgemm.Matrix) string {
	return c.candidates(spgemm.Fingerprint(m))[0]
}

// TestRemoteErrorTaxonomy pins the wire round trip of the server's
// typed errors: a scripted remote answers each envelope code and the
// RemoteReplica must hand the coordinator the same typed error the
// in-process server would have returned.
func TestRemoteErrorTaxonomy(t *testing.T) {
	var code string
	var retryAfter float64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status := map[string]int{
			apiv1.CodeDraining:      http.StatusServiceUnavailable,
			apiv1.CodeReplicaDown:   http.StatusServiceUnavailable,
			apiv1.CodeOverloaded:    http.StatusTooManyRequests,
			apiv1.CodeQueueFull:     http.StatusTooManyRequests,
			apiv1.CodeUnknownHandle: http.StatusNotFound,
		}[code]
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(apiv1.ErrorResponse{
			Code: code, Error: "scripted", RetryAfterSec: retryAfter,
		})
	}))
	defer ts.Close()
	r := NewRemoteReplica("r0", ts.URL, RemoteConfig{})
	multiply := func() error {
		_, err := r.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: "m-feedfacefeedfacefeedfacefeedface"})
		return err
	}

	code = apiv1.CodeDraining
	var de *serve.DrainingError
	if err := multiply(); !errors.As(err, &de) {
		t.Fatalf("draining decoded as %T (%v)", err, err)
	}

	code, retryAfter = apiv1.CodeOverloaded, 3
	var oe *serve.OverloadError
	if err := multiply(); !errors.As(err, &oe) || oe.RetryAfter != 3*time.Second {
		t.Fatalf("overloaded decoded as %T (%v)", err, err)
	}

	code, retryAfter = apiv1.CodeQueueFull, 0
	var qe *serve.QueueFullError
	if err := multiply(); !errors.As(err, &qe) {
		t.Fatalf("queue_full decoded as %T (%v)", err, err)
	}

	code = apiv1.CodeUnknownHandle
	var uh *serve.UnknownHandleError
	if err := multiply(); !errors.As(err, &uh) || uh.Handle != "m-feedfacefeedfacefeedfacefeedface" {
		t.Fatalf("unknown_handle decoded as %T (%v)", err, err)
	}

	code = apiv1.CodeReplicaDown
	if err := multiply(); !errors.Is(err, faults.ErrReplicaDown) {
		t.Fatalf("replica_down not ErrReplicaDown: %v", err)
	}
	// Typed envelopes are the replica answering, not transport failure.
	for k, v := range r.Counters() {
		if strings.HasPrefix(k, "cluster_remote_") && v != 0 {
			t.Fatalf("typed errors counted as transport failures: %s = %d", k, v)
		}
	}
}

// TestRemoteTransportClassification injects each of the proxy's fault
// fates in front of a real server and checks the classified kind, the
// counter, and that every kind still matches ErrReplicaDown for the
// coordinator's failover dispatch.
func TestRemoteTransportClassification(t *testing.T) {
	_, ts := remoteServe(t, serve.Config{MaxConcurrent: 2})
	target := strings.TrimPrefix(ts.URL, "http://")
	cases := []struct {
		name    string
		cfg     faults.NetProxyConfig
		timeout time.Duration
		kind    string
		counter string
	}{
		{"reset", faults.NetProxyConfig{Seed: 7, Target: target, ResetRate: 1}, 0, TransportReset, metrics.CounterClusterRemoteResets},
		{"timeout", faults.NetProxyConfig{Seed: 3, Target: target, LatencyRate: 1, Latency: 500 * time.Millisecond}, 50 * time.Millisecond, TransportTimeout, metrics.CounterClusterRemoteTimeouts},
		{"refused", faults.NetProxyConfig{Seed: 9, Target: target}, 0, TransportRefused, metrics.CounterClusterRemoteRefused},
	}
	for _, tcase := range cases {
		t.Run(tcase.name, func(t *testing.T) {
			p := faults.NewNetProxy(tcase.cfg)
			addr, err := p.Start()
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if tcase.kind == TransportRefused {
				if err := p.Partition(true); err != nil {
					t.Fatal(err)
				}
			}
			// The counter scrape goes through the proxy too: bound it by
			// the case's timeout, so that the latency does not stretch it.
			r := NewRemoteReplica("r0", "http://"+addr, RemoteConfig{
				MultiplyTimeout: tcase.timeout, ProbeTimeout: tcase.timeout, HTTP: oneShot(),
			})
			_, err = r.Multiply(apiv1.MultiplyRequest{
				Engine: "cpu",
				A:      apiv1.MatrixSpec{Kind: "er", Rows: 16, Cols: 16, Density: 0.2, Seed: 1},
			})
			var te *TransportError
			if !errors.As(err, &te) || te.Kind != tcase.kind {
				t.Fatalf("error = %v, want transport kind %s", err, tcase.kind)
			}
			if !errors.Is(err, faults.ErrReplicaDown) {
				t.Fatalf("%s transport error does not match ErrReplicaDown", tcase.kind)
			}
			if counters := r.Counters(); counters[tcase.counter] != 1 {
				t.Fatalf("%s counter = %d, want 1 (%v)", tcase.counter, counters[tcase.counter], counters)
			}
		})
	}
}

// TestRemoteEvidenceWeights pins the health machine's failure weights:
// a timeout or reset is one unit of suspect evidence (DownAfter of
// them condemn), while a refused connection condemns immediately.
func TestRemoteEvidenceWeights(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})

	tc.c.noteFailure("r0", &TransportError{Replica: "r0", Kind: TransportTimeout, Err: errors.New("deadline")})
	if got := tc.c.Health()["r0"]; got != HealthSuspect {
		t.Fatalf("after one timeout: health %s, want suspect", got)
	}
	tc.c.noteFailure("r0", &TransportError{Replica: "r0", Kind: TransportReset, Err: errors.New("rst")})
	if got := tc.c.Health()["r0"]; got != HealthDown {
		t.Fatalf("after DownAfter soft failures: health %s, want down", got)
	}

	tc.c.noteFailure("r1", &TransportError{Replica: "r1", Kind: TransportRefused, Err: errors.New("refused")})
	if got := tc.c.Health()["r1"]; got != HealthDown {
		t.Fatalf("after one refused: health %s, want down immediately", got)
	}
}

// TestRemoteProbeTimeoutDistinct pins the per-operation failure
// domains: a replica that hangs must be detected in probe time, not
// after waiting out a multiply-sized budget.
func TestRemoteProbeTimeoutDistinct(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second) // a hung peer
	}))
	defer ts.Close()
	r := NewRemoteReplica("r0", ts.URL, RemoteConfig{
		ProbeTimeout:    50 * time.Millisecond,
		MultiplyTimeout: time.Minute,
		HTTP:            oneShot(),
	})
	start := time.Now()
	_, err := r.Ready()
	elapsed := time.Since(start)
	var te *TransportError
	if !errors.As(err, &te) || te.Kind != TransportTimeout {
		t.Fatalf("hung probe error = %v, want transport timeout", err)
	}
	if elapsed > time.Second {
		t.Fatalf("probe took %v — it waited out more than ProbeTimeout", elapsed)
	}
}
