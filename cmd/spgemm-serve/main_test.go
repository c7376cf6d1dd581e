package main

// Process-level tests of the daemon: the test binary re-execs itself as
// spgemm-serve (TestMain runs main() when daemonEnv is set), so every
// case below drives real processes on real sockets — SIGKILL is a dead
// socket and SIGTERM is the drain path — with no go build inside the
// test and nothing written outside t.TempDir().

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

const daemonEnv = "SPGEMM_SERVE_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

var listenRE = regexp.MustCompile(`listening on (\S+) \(`)

// daemonLog collects a child's stderr and announces the bound address
// from its "listening on" line.
type daemonLog struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
}

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.found {
		if m := listenRE.FindSubmatch(l.buf.Bytes()); m != nil {
			l.found = true
			l.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (l *daemonLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// daemon is one spgemm-serve child process.
type daemon struct {
	cmd  *exec.Cmd
	log  *daemonLog
	addr string // bound host:port, from the child's log

	waitOnce sync.Once
	waitErr  error
}

// wait reaps the child (once) and returns its exit error.
func (d *daemon) wait() error {
	d.waitOnce.Do(func() { d.waitErr = d.cmd.Wait() })
	return d.waitErr
}

// kill is SIGKILL plus reap: when it returns the child's sockets are
// closed.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.wait()
}

func (d *daemon) url() string { return "http://" + d.addr }

// runDaemon starts the test binary as spgemm-serve with args, in its
// own temp directory. The cleanup kills and reaps it whatever the test
// did, and prints its log when the test failed.
func runDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: exec.Command(exe, args...), log: &daemonLog{addr: make(chan string, 1)}}
	d.cmd.Env = append(os.Environ(), daemonEnv+"=1")
	d.cmd.Dir = t.TempDir()
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.kill()
		if t.Failed() {
			t.Logf("spgemm-serve %s:\n%s", strings.Join(args, " "), d.log)
		}
	})
	return d
}

// startDaemon is runDaemon for a child expected to serve: it waits for
// the "listening on" line and records the bound address.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := runDaemon(t, args...)
	exited := make(chan error, 1)
	go func() { exited <- d.wait() }()
	select {
	case d.addr = <-d.log.addr:
	case err := <-exited:
		t.Fatalf("spgemm-serve %v exited before listening: %v\n%s", args, err, d.log)
	case <-time.After(30 * time.Second):
		t.Fatalf("spgemm-serve %v never logged its listen address\n%s", args, d.log)
	}
	return d
}

// eventually polls cond until it holds or 30 s pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// counters fetches /metricsz truncated to its integer counters.
func counters(t *testing.T, cli *apiv1.Client) map[string]int64 {
	t.Helper()
	raw, err := cli.Metrics()
	if err != nil {
		t.Fatalf("metricsz: %v", err)
	}
	snap := make(map[string]int64, len(raw))
	for k, v := range raw {
		snap[k] = int64(v)
	}
	return snap
}

// contentHandle is the server's content address for a matrix — the
// same derivation internal/serve's store uses, so a handle returned
// over the wire equal to a locally computed one is a witness that the
// remote product is byte-identical to the local multiply.
func contentHandle(m *spgemm.Matrix) string {
	return fmt.Sprintf("m-%016x%016x", spgemm.Fingerprint(m), spgemm.FingerprintValues(m))
}

// TestDaemonClusterKillRejoin is the networked acceptance sweep: a
// coordinator and three -join replicas as real processes, handle
// multiplies and 3-stage batch chains through the coordinator with
// every stored product's content handle checked against the same
// multiply computed locally. The replica owning the primary operand is
// SIGKILLed mid-stream — so the dead socket is guaranteed to take
// traffic — and restarted under the same name. Zero requests may be
// lost, and the merged snapshot must prove the kill crossed the network
// failure domain: a request-path failover, a refused connection, the
// rejoin through /v1/join, and the voided placements re-uploaded from
// spill in batched transfers.
func TestDaemonClusterKillRejoin(t *testing.T) {
	// The probe interval is stretched so the kill window is crossed by
	// live requests: the request path, not the prober, must find the
	// dead socket.
	coord := startDaemon(t, "-coordinator", "-addr", "127.0.0.1:0", "-probe-interval", "2s")
	startReplica := func(name, addr string) *daemon {
		return startDaemon(t, "-addr", addr, "-name", name,
			"-join", coord.url(), "-max-concurrent", "4")
	}
	replicas := map[string]*daemon{}
	ring := cluster.NewRing(0)
	for _, name := range []string{"r1", "r2", "r3"} {
		replicas[name] = startReplica(name, "127.0.0.1:0")
		ring.Add(name)
	}

	cli := &apiv1.Client{
		BaseURL: coord.url(),
		HTTP:    &http.Client{Timeout: 30 * time.Second},
		// Shed-retry is the backstop for the instant where every
		// candidate for a key is condemned; the coordinator's own
		// failover absorbs everything else.
		Retry: &apiv1.RetryPolicy{MaxAttempts: 10, MaxDelay: 2 * time.Second, Seed: 7},
	}
	eventually(t, "three replicas up", func() bool {
		rr, err := cli.Ready()
		if err != nil {
			return false
		}
		up := 0
		for _, health := range rr.Replicas {
			if health == cluster.HealthUp {
				up++
			}
		}
		return up == 3
	})

	// The primary operand and its expected products (A², A⁴), computed
	// locally with the very engine the replicas run.
	m := spgemm.RMAT(6, 8, 0.57, 0.19, 0.19, 7)
	cpuEng, err := spgemm.ByName("cpu")
	if err != nil {
		t.Fatal(err)
	}
	timesM := func(a *spgemm.Matrix) *spgemm.Matrix {
		c, _, err := cpuEng.Run(a, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a2 := timesM(m)
	wantA2, wantA4 := contentHandle(a2), contentHandle(timesM(timesM(a2)))
	mr, err := cli.StoreMatrix(apiv1.MatrixRequest{Data: apiv1.MatrixDataFrom(m)})
	if err != nil {
		t.Fatalf("seed store: %v", err)
	}
	handle := mr.Handle
	if want := contentHandle(m); handle != want {
		t.Fatalf("stored operand handle %s, want %s: content addressing diverged", handle, want)
	}

	sent := 0
	sweep := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			r := sent
			sent++
			if r%2 == 0 {
				resp, err := cli.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle, StoreC: true})
				if err != nil {
					t.Fatalf("request %d (handle multiply) lost: %v", r, err)
				}
				if resp.CHandle != wantA2 {
					t.Fatalf("request %d: stored product %s, want %s: remote result not byte-identical", r, resp.CHandle, wantA2)
				}
				continue
			}
			resp, err := cli.Batch(apiv1.BatchRequest{
				Engine: "cpu",
				Nodes: []apiv1.BatchNode{
					{ID: "s1", A: apiv1.Operand{Handle: handle}},
					{ID: "s2", A: apiv1.Operand{Node: "s1"}, B: &apiv1.Operand{Handle: handle}},
					{ID: "s3", A: apiv1.Operand{Node: "s2"}, B: &apiv1.Operand{Handle: handle}, Store: true},
				},
			})
			if err != nil {
				t.Fatalf("request %d (batch DAG) lost: %v", r, err)
			}
			for _, n := range resp.Nodes {
				if n.Status != apiv1.StatusOK {
					t.Fatalf("request %d: batch node %s status %s", r, n.ID, n.Status)
				}
				if n.ID == "s3" && n.Handle != wantA4 {
					t.Fatalf("request %d: chain product %s, want %s: remote result not byte-identical", r, n.Handle, wantA4)
				}
			}
		}
	}

	sweep(8)
	victim := ring.Owner(spgemm.Fingerprint(m))
	replicas[victim].kill()
	sweep(8) // across the outage: failover + spill re-upload to the successor
	// Restarted on the address it died on: the coordinator keeps one
	// RemoteReplica (and its transport counters) per advertised URL.
	replicas[victim] = startReplica(victim, replicas[victim].addr)
	eventually(t, victim+" rejoining", func() bool {
		return counters(t, cli)[metrics.CounterClusterRejoins] >= 1
	})
	sweep(8) // the rejoined owner takes its arc back, operand re-uploaded

	snap := counters(t, cli)
	for _, c := range []struct {
		key string
		min int64
	}{
		{metrics.CounterClusterFailovers, 1},
		{metrics.CounterClusterRejoins, 1},
		{metrics.CounterClusterJoins, 4},
		{metrics.CounterClusterSpillReuploadBatch, 1},
		{metrics.CounterClusterSpillReuploadBytes, 1},
		{metrics.CounterClusterRemoteRefused, 1},
		{metrics.CounterClusterReplicaDown, 1},
		{metrics.CounterClusterReplicaUp, 1},
	} {
		if snap[c.key] < c.min {
			t.Errorf("%s = %d, want >= %d", c.key, snap[c.key], c.min)
		}
	}
	if f, p := snap[metrics.CounterServeFailed], snap[metrics.CounterServePanicked]; f+p != 0 {
		t.Errorf("replica-side failures during sweep: failed=%d panicked=%d", f, p)
	}
	if t.Failed() {
		t.Logf("merged snapshot: %v", snap)
	}
}

// TestDaemonFaultedServerDrains runs a small server (one worker, one
// queue slot) under seeded device loss: concurrent clients must trigger
// load shedding and a breaker trip with jobs completing on the CPU
// path. SIGTERM then drains the server, which must exit 0 having
// written a -snapshot file equal to the last /metricsz counters.
func TestDaemonFaultedServerDrains(t *testing.T) {
	snapshot := filepath.Join(t.TempDir(), "serve-snapshot.json")
	srv := startDaemon(t, "-addr", "127.0.0.1:0", "-max-concurrent", "1", "-queue", "1",
		"-devmem", "1048576", "-faults", "seed=7,rate=0.02,loseafter=25",
		"-trip-devices-lost", "2", "-cooldown-jobs", "2", "-snapshot", snapshot)
	cli := apiv1.NewClient(srv.url())

	const clients, requests = 6, 8
	engines := []string{"hybrid", "cpu"}
	var wg sync.WaitGroup
	transportErrs := make(chan error, clients*requests)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				_, err := cli.Multiply(apiv1.MultiplyRequest{
					Engine: engines[(c*requests+r)%len(engines)],
					A:      apiv1.MatrixSpec{Kind: "rmat", Scale: 7, EdgeFactor: 8, Seed: int64(100 + c*requests + r)},
				})
				// A typed rejection (429 shed) is the server working; a
				// transport error is a lost request.
				var ae *apiv1.APIError
				if err != nil && !errors.As(err, &ae) {
					transportErrs <- err
				}
			}
		}(c)
	}
	wg.Wait()
	close(transportErrs)
	for err := range transportErrs {
		t.Errorf("transport error: %v", err)
	}

	last := counters(t, cli)
	if last[metrics.CounterServeCompleted] == 0 {
		t.Errorf("no job completed")
	}
	if shed := last[metrics.CounterServeRejectedOverload] + last[metrics.CounterServeRejectedQueue]; shed == 0 {
		t.Errorf("expected load shedding, server shed nothing")
	}
	if last[metrics.CounterServeBreakerTrips] == 0 {
		t.Errorf("expected a breaker trip, none happened")
	}
	if last[metrics.CounterServeDegraded] == 0 {
		t.Errorf("no job degraded to the fallback engine")
	}

	if err := srv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := srv.wait(); err != nil {
		t.Fatalf("drain did not exit 0: %v", err)
	}
	data, err := os.ReadFile(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	var final map[string]int64
	if err := json.Unmarshal(data, &final); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// /metricsz adds two derived float rates to the counters; the drain
	// snapshot is the counters alone.
	delete(last, "plan_cache_hit_rate")
	delete(last, "matrix_store_hit_rate")
	for k, v := range final {
		if got, ok := last[k]; !ok || got != v {
			t.Errorf("snapshot %s = %d, last /metricsz had %d (present=%v)", k, v, got, ok)
		}
		delete(last, k)
	}
	for k, v := range last {
		t.Errorf("/metricsz counter %s = %d missing from the snapshot", k, v)
	}
}

// TestDaemonFlagSurface pins the binary's interface: -h lists exactly
// the daemon's 18 flags, and every flag of the deleted drive, soak and
// in-process cluster modes is rejected by the flag package itself.
func TestDaemonFlagSurface(t *testing.T) {
	want := strings.Fields(`addr max-concurrent queue max-inflight-flops devmem faults
		drain-timeout snapshot trip-devices-lost trip-failures cooldown-jobs
		plan-cache-bytes matrix-store-bytes coordinator probe-interval join name advertise`)
	help := runDaemon(t, "-h")
	if err := help.wait(); err != nil {
		t.Fatalf("-h: %v", err)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(help.log.String(), -1) {
		got = append(got, m[1])
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-h lists\n  %v\nwant\n  %v", got, want)
	}

	removed := strings.Fields(`drive clients requests drive-engines expect-shed expect-breaker
		drive-reuse drive-batch cluster cluster-soak soak-requests cluster-seed cluster-fail-rate
		drive-cluster drive-replicas drive-pace expect-rejoin kill-target-file chaos-panic-every`)
	for _, name := range removed {
		d := runDaemon(t, "-"+name+"=1")
		var exit *exec.ExitError
		if err := d.wait(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-%s: exit %v, want status 2", name, err)
		}
		if msg := "flag provided but not defined: -" + name; !strings.Contains(d.log.String(), msg) {
			t.Errorf("-%s: stderr lacks %q:\n%s", name, msg, d.log)
		}
	}
}
