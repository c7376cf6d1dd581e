// Command spgemm-serve is the overload-safe SpGEMM serving daemon: an
// HTTP front end over the engine registry with admission control,
// per-engine circuit breakers and graceful drain (internal/serve).
//
// Server mode (default):
//
//	spgemm-serve -addr :8097 -max-concurrent 4 -devmem 1048576 \
//	    -faults seed=7,loseafter=60 -snapshot serve-snapshot.json
//
// SIGTERM or SIGINT starts the graceful drain: admission stops,
// inflight jobs finish within -drain-timeout, and the final metrics
// snapshot is written to -snapshot before the process exits.
//
// Drive mode turns the same binary into a load-generating client for
// soak tests (it speaks the versioned wire types of repro/spgemm/api/v1
// through that package's Client):
//
//	spgemm-serve -drive http://127.0.0.1:8097 -clients 8 -requests 25 \
//	    -drive-engines hybrid,cpu,panicky -expect-shed -expect-breaker
//
// Batch-drive mode submits one /v1/batch DAG — a three-stage chain over
// a stored handle plus a fault-injected node with a dependent — and
// asserts the partial-failure statuses, plan sharing and the 405
// envelope:
//
//	spgemm-serve -drive http://127.0.0.1:8097 -drive-batch
//
// The drive run fails (exit 1) when an assertion does not hold.
//
// Cluster mode (-cluster N) serves the same wire API through the
// internal/cluster coordinator over N in-process replicas: requests
// shard by structural fingerprint on a consistent-hash ring, replica
// health is probed in the background, and failures re-route to ring
// successors:
//
//	spgemm-serve -addr :8097 -cluster 3 -max-concurrent 2
//
// The cluster soak (-cluster-soak) is the self-contained chaos
// acceptance run CI executes: a seeded kill + restart sweep over the
// in-process replicas where every admitted request must succeed —
// killing any single replica of three mid-stream loses nothing — and
// the failover counters must reconcile:
//
//	spgemm-serve -cluster-soak -cluster 3 -soak-requests 60 \
//	    -cluster-seed 7 -snapshot cluster-snapshot.json
//
// Networked cluster mode splits the same topology across real
// processes. A coordinator serves the wire API with an empty
// membership and replicas register themselves:
//
//	spgemm-serve -coordinator -addr :8097 -probe-interval 500ms
//	spgemm-serve -addr :8098 -name r1 -join http://127.0.0.1:8097
//	spgemm-serve -addr :8099 -name r2 -join http://127.0.0.1:8097
//
// Each -join replica heartbeats the coordinator and re-registers with
// capped backoff after a coordinator restart; the coordinator dials
// replicas back over HTTP (internal/cluster.RemoteReplica), so a
// SIGKILLed replica is a real dead socket, not a simulated one.
//
// The networked soak driver (-drive-cluster) runs the acceptance
// sweep CI uses against that topology: paced handle multiplies and
// batch DAGs through the coordinator, every product's content handle
// checked against the same multiply computed locally (byte-identity),
// zero admitted requests lost. It writes the name of the replica that
// owns the primary operand to -kill-target-file so the harness knows
// which process to SIGKILL mid-sweep; with -expect-rejoin the final
// merged snapshot must prove the failover, the rejoin and the spill
// re-upload actually happened:
//
//	spgemm-serve -drive-cluster http://127.0.0.1:8097 -drive-replicas 3 \
//	    -soak-requests 60 -expect-rejoin -kill-target-file kill-target \
//	    -snapshot cluster-net-snapshot.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

func main() {
	addr := flag.String("addr", ":8097", "HTTP listen address (server mode)")
	maxConc := flag.Int("max-concurrent", 2, "jobs running at once")
	queueDepth := flag.Int("queue", 0, "admission queue depth (0 = 2*max-concurrent)")
	maxFlops := flag.Int64("max-inflight-flops", 0, "inflight flop budget for admission (0 = unlimited)")
	devmem := flag.Int64("devmem", 0, "simulated device memory in bytes (0 = full V100)")
	faultSpec := flag.String("faults", "", "base fault spec for device engines, e.g. seed=7,rate=0.02,loseafter=60")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline on SIGTERM")
	snapshotPath := flag.String("snapshot", "serve-snapshot.json", "write the final metrics snapshot here on drain")
	panicEvery := flag.Int64("chaos-panic-every", 0, "register a 'panicky' engine that panics every Nth call (0 = off)")
	tripLost := flag.Int64("trip-devices-lost", 0, "breaker: cumulative lost devices to trip (0 = default)")
	tripFailures := flag.Int("trip-failures", 0, "breaker: consecutive failures to trip (0 = default)")
	cooldownJobs := flag.Int("cooldown-jobs", 0, "breaker: degraded jobs before a half-open probe (0 = default)")
	planCacheBytes := flag.Int64("plan-cache-bytes", 0, "structure-reuse plan cache budget in bytes (0 = default, negative disables)")
	storeBytes := flag.Int64("matrix-store-bytes", 0, "content-addressed matrix store budget in bytes (0 = 512 MiB)")

	driveURL := flag.String("drive", "", "drive mode: base URL of a running spgemm-serve to load-test")
	clients := flag.Int("clients", 4, "drive mode: concurrent clients")
	requests := flag.Int("requests", 20, "drive mode: requests per client")
	driveEngines := flag.String("drive-engines", "cpu", "drive mode: comma-separated engines to request round-robin")
	expectShed := flag.Bool("expect-shed", false, "drive mode: fail unless the server shed load")
	expectBreaker := flag.Bool("expect-breaker", false, "drive mode: fail unless a breaker tripped and jobs degraded")
	driveReuse := flag.Bool("drive-reuse", false, "drive mode: upload one matrix and multiply by handle (repeated-pattern traffic); fails unless the plan cache got hits")
	driveBatch := flag.Bool("drive-batch", false, "drive mode: submit a /v1/batch DAG (chain + fault-injected node) and assert partial-failure statuses")

	clusterN := flag.Int("cluster", 0, "cluster mode: in-process replicas behind the coordinator (0 = single server)")
	clusterSoak := flag.Bool("cluster-soak", false, "run the seeded in-process cluster kill+restart soak and exit (uses -cluster, -soak-requests, -cluster-seed)")
	soakRequests := flag.Int("soak-requests", 60, "cluster soak: requests in the sweep")
	clusterSeed := flag.Int64("cluster-seed", 7, "cluster mode: chaos seed for replica fault injection")
	clusterFailRate := flag.Float64("cluster-fail-rate", 0, "cluster mode: per-operation probability a replica drops a request")

	coordMode := flag.Bool("coordinator", false, "run as a networked cluster coordinator: membership starts empty, replicas register via POST /v1/join")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "coordinator/cluster mode: background health probe cadence")
	joinURL := flag.String("join", "", "coordinator base URL this replica registers with and heartbeats (server mode)")
	replicaName := flag.String("name", "", "replica name sent on join (default replica-<port>)")
	advertiseURL := flag.String("advertise", "", "base URL the coordinator dials this replica back on (default http://127.0.0.1:<port>)")

	driveClusterURL := flag.String("drive-cluster", "", "drive mode: coordinator URL for the networked soak (paced handle multiplies + batch DAGs with byte-identity checks)")
	driveReplicas := flag.Int("drive-replicas", 0, "drive-cluster: wait until this many replicas are up before driving (0 = don't wait)")
	drivePace := flag.Duration("drive-pace", 100*time.Millisecond, "drive-cluster: pause between requests, so an external kill window lands mid-sweep")
	expectRejoin := flag.Bool("expect-rejoin", false, "drive-cluster: fail unless the snapshot shows a failover, a rejoin and a spill re-upload")
	killTargetFile := flag.String("kill-target-file", "", "drive-cluster: write the primary operand's owning replica name here once the sweep is underway (the harness's SIGKILL target)")
	flag.Parse()

	if *driveClusterURL != "" {
		err := driveClusterSoak(driveClusterOptions{
			coordURL:    *driveClusterURL,
			requests:    *soakRequests,
			seed:        *clusterSeed,
			minReplicas: *driveReplicas,
			pace:        *drivePace,
			expectChaos: *expectRejoin,
			killFile:    *killTargetFile,
			snapshot:    *snapshotPath,
		})
		if err != nil {
			log.Fatal("spgemm-serve: drive-cluster: ", err)
		}
		return
	}

	if *driveURL != "" {
		var err error
		if *driveBatch {
			err = driveBatchDAG(*driveURL)
		} else {
			err = drive(*driveURL, *clients, *requests,
				strings.Split(*driveEngines, ","), *expectShed, *expectBreaker, *driveReuse)
		}
		if err != nil {
			log.Fatal("spgemm-serve: drive: ", err)
		}
		return
	}

	if *panicEvery > 0 {
		registerPanicky(*panicEvery)
	}
	base := spgemm.RunOptions{}
	if *devmem > 0 {
		cfg := spgemm.V100WithMemory(*devmem)
		base.Device = &cfg
	}
	if *faultSpec != "" {
		fc, err := spgemm.ParseFaultSpec(*faultSpec)
		if err != nil {
			log.Fatal("spgemm-serve: ", err)
		}
		base.Faults = fc
	}
	cfg := serve.Config{
		MaxConcurrent:    *maxConc,
		QueueDepth:       *queueDepth,
		MaxInflightFlops: *maxFlops,
		Base:             base,
		DrainTimeout:     *drainTimeout,
		PlanCacheBytes:   *planCacheBytes,
		MatrixStoreBytes: *storeBytes,
		Breaker: serve.BreakerConfig{
			TripDevicesLost: *tripLost,
			TripFailures:    *tripFailures,
			CooldownJobs:    *cooldownJobs,
		},
	}

	if *clusterSoak {
		n := *clusterN
		if n <= 0 {
			n = 3
		}
		if err := runClusterSoak(cfg, n, *soakRequests, *clusterSeed, *snapshotPath); err != nil {
			log.Fatal("spgemm-serve: cluster-soak: ", err)
		}
		return
	}

	var handler http.Handler
	var drain func(time.Duration) map[string]int64
	switch {
	case *coordMode:
		coord := cluster.New(cluster.Config{})
		stopProbe := startProbeLoop(coord, *probeInterval)
		handler = coord.Handler()
		drain = func(t time.Duration) map[string]int64 {
			close(stopProbe)
			return coord.Drain(t)
		}
		log.Printf("spgemm-serve: coordinator mode; waiting for replicas on /v1/join (probe every %v)", *probeInterval)
	case *clusterN > 1:
		coord, _ := buildCluster(cfg, *clusterN, *clusterSeed, *clusterFailRate)
		stopProbe := startProbeLoop(coord, *probeInterval)
		handler = coord.Handler()
		drain = func(t time.Duration) map[string]int64 {
			close(stopProbe)
			return coord.Drain(t)
		}
		log.Printf("spgemm-serve: cluster mode with %d in-process replicas", *clusterN)
	default:
		srv := serve.New(cfg)
		handler = srv.Handler()
		drain = srv.Drain
	}

	// Bodies are bounded per route (apiv1's readers); the header timeout
	// bounds the one read that happens before any handler runs.
	httpSrv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal("spgemm-serve: ", err)
		}
	}()
	log.Printf("spgemm-serve: listening on %s (engines: %s)", *addr, strings.Join(spgemm.Engines(), ", "))

	var joiner *cluster.Joiner
	if *joinURL != "" {
		name, adv := replicaIdentity(*addr, *replicaName, *advertiseURL)
		joiner = cluster.NewJoiner(cluster.JoinerConfig{
			Coordinator: *joinURL, Name: name, Advertise: adv,
		})
		joiner.Start()
		log.Printf("spgemm-serve: joining %s as %s (advertising %s)", *joinURL, name, adv)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	got := <-sig
	log.Printf("spgemm-serve: %v: draining (deadline %v)", got, *drainTimeout)

	if joiner != nil {
		joiner.Stop() // stop advertising before admission closes
	}
	snap := drain(*drainTimeout)
	if err := writeSnapshot(*snapshotPath, snap); err != nil {
		log.Fatal("spgemm-serve: ", err)
	}
	log.Printf("spgemm-serve: drained; snapshot written to %s (%d jobs completed, %d shed)",
		*snapshotPath, snap[metrics.CounterServeCompleted],
		snap[metrics.CounterServeRejectedOverload]+snap[metrics.CounterServeRejectedQueue])
	if err := httpSrv.Close(); err != nil {
		log.Fatal("spgemm-serve: ", err)
	}
}

// buildCluster assembles n in-process replicas, each a real serve
// server behind a seeded chaos wrapper, under one coordinator.
func buildCluster(cfg serve.Config, n int, seed int64, failRate float64) (*cluster.Coordinator, []*cluster.ChaosBackend) {
	var backends []cluster.Backend
	var chaos []*cluster.ChaosBackend
	for i := 0; i < n; i++ {
		s := serve.New(cfg)
		cb := cluster.NewChaosBackend(
			cluster.NewLocalReplica(fmt.Sprintf("r%d", i), s),
			cluster.ChaosConfig{Seed: seed + int64(i), FailRate: failRate},
		)
		backends = append(backends, cb)
		chaos = append(chaos, cb)
	}
	return cluster.New(cluster.Config{}, backends...), chaos
}

// startProbeLoop runs the coordinator's background health probe until
// the returned channel is closed.
func startProbeLoop(coord *cluster.Coordinator, interval time.Duration) chan struct{} {
	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				coord.Probe()
			case <-stop:
				return
			}
		}
	}()
	return stop
}

// replicaIdentity derives the join name and advertise URL from the
// listen address when the flags leave them blank.
func replicaIdentity(addr, name, advertise string) (string, string) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		host, port = "", strings.TrimPrefix(addr, ":")
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	if name == "" {
		name = "replica-" + port
	}
	if advertise == "" {
		advertise = "http://" + net.JoinHostPort(host, port)
	}
	return name, advertise
}

// contentHandle is the server's content address for a matrix — the
// same derivation internal/serve's store uses, so a handle returned
// over the wire equal to a locally computed one is a witness that the
// remote product is byte-identical to the local multiply.
func contentHandle(m *spgemm.Matrix) string {
	return fmt.Sprintf("m-%016x%016x", spgemm.Fingerprint(m), spgemm.FingerprintValues(m))
}

type driveClusterOptions struct {
	coordURL    string
	requests    int
	seed        int64
	minReplicas int
	pace        time.Duration
	expectChaos bool
	killFile    string
	snapshot    string
}

// driveClusterSoak drives a networked cluster through its coordinator:
// paced handle multiplies (StoreC) and batch DAG chains whose stored
// products are checked for byte-identity against the same multiplies
// computed locally. The sweep is paced so an external SIGKILL+restart
// of a replica lands mid-stream; the kill target (the replica owning
// the primary operand, so the dead socket is guaranteed to take
// traffic) is written to killFile for the harness. Zero admitted
// requests may be lost, and with expectChaos the merged snapshot must
// reconcile: a failover happened, the killed replica rejoined, and its
// voided placements were re-uploaded from spill in batched transfers.
func driveClusterSoak(o driveClusterOptions) error {
	cli := &apiv1.Client{
		BaseURL: o.coordURL,
		HTTP:    &http.Client{Timeout: 120 * time.Second},
		// Shed-retry is the backstop for the instant where every
		// candidate for a key is condemned; the coordinator's own
		// failover absorbs everything else.
		Retry: &apiv1.RetryPolicy{MaxAttempts: 10, MaxDelay: 2 * time.Second, Seed: o.seed},
	}
	if err := cli.WaitHealthy(30 * time.Second); err != nil {
		return err
	}
	names, err := waitReplicas(cli, o.minReplicas)
	if err != nil {
		return err
	}

	// The primary operand, its expected products (A², A⁴) and its ring
	// owner — computed locally with the very engine the replicas run.
	m := spgemm.RMAT(6, 8, 0.57, 0.19, 0.19, o.seed)
	cpuEng, err := spgemm.ByName("cpu")
	if err != nil {
		return err
	}
	a2, _, err := cpuEng.Run(m, m, nil)
	if err != nil {
		return err
	}
	a3, _, err := cpuEng.Run(a2, m, nil)
	if err != nil {
		return err
	}
	a4, _, err := cpuEng.Run(a3, m, nil)
	if err != nil {
		return err
	}
	wantA2, wantA4 := contentHandle(a2), contentHandle(a4)

	mr, err := cli.StoreMatrix(apiv1.MatrixRequest{Data: apiv1.MatrixDataFrom(m)})
	if err != nil {
		return fmt.Errorf("seed store: %w", err)
	}
	handle := mr.Handle
	if want := contentHandle(m); handle != want {
		return fmt.Errorf("stored operand handle %s, want %s: content addressing diverged", handle, want)
	}

	killTarget := ""
	if len(names) > 0 {
		ring := cluster.NewRing(0)
		for _, n := range names {
			ring.Add(n)
		}
		killTarget = ring.Owner(spgemm.Fingerprint(m))
	}

	warmup := o.requests / 4
	for r := 0; r < o.requests; r++ {
		// Announce the kill target only once the sweep is underway, so
		// the harness's SIGKILL lands mid-stream.
		if r == warmup && o.killFile != "" && killTarget != "" {
			if err := os.WriteFile(o.killFile, []byte(killTarget+"\n"), 0o644); err != nil {
				return err
			}
			log.Printf("drive-cluster: kill target %s announced at request %d", killTarget, r)
		}
		if r%2 == 0 {
			resp, err := cli.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle, StoreC: true})
			if err != nil {
				return fmt.Errorf("request %d (handle multiply) lost: %w", r, err)
			}
			if resp.CHandle != wantA2 {
				return fmt.Errorf("request %d: stored product %s, want %s: remote result not byte-identical", r, resp.CHandle, wantA2)
			}
		} else {
			resp, err := cli.Batch(apiv1.BatchRequest{
				Engine: "cpu",
				Nodes: []apiv1.BatchNode{
					{ID: "s1", A: apiv1.Operand{Handle: handle}},
					{ID: "s2", A: apiv1.Operand{Node: "s1"}, B: &apiv1.Operand{Handle: handle}},
					{ID: "s3", A: apiv1.Operand{Node: "s2"}, B: &apiv1.Operand{Handle: handle}, Store: true},
				},
			})
			if err != nil {
				return fmt.Errorf("request %d (batch DAG) lost: %w", r, err)
			}
			for _, n := range resp.Nodes {
				if n.Status != apiv1.StatusOK {
					return fmt.Errorf("request %d: batch node %s status %s", r, n.ID, n.Status)
				}
				if n.ID == "s3" && n.Handle != wantA4 {
					return fmt.Errorf("request %d: chain product %s, want %s: remote result not byte-identical", r, n.Handle, wantA4)
				}
			}
		}
		time.Sleep(o.pace)
	}

	rawSnap, err := cli.Metrics()
	if err != nil {
		return fmt.Errorf("metricsz: %w", err)
	}
	snap := make(map[string]int64, len(rawSnap))
	for k, v := range rawSnap {
		snap[k] = int64(v)
	}
	if err := writeSnapshot(o.snapshot, snap); err != nil {
		return err
	}
	fmt.Printf("drive-cluster: %d requests, failovers=%d rejoins=%d reupload_batches=%d reupload_bytes=%d down=%d up=%d timeouts=%d refused=%d\n",
		o.requests,
		snap[metrics.CounterClusterFailovers], snap[metrics.CounterClusterRejoins],
		snap[metrics.CounterClusterSpillReuploadBatch], snap[metrics.CounterClusterSpillReuploadBytes],
		snap[metrics.CounterClusterReplicaDown], snap[metrics.CounterClusterReplicaUp],
		snap[metrics.CounterClusterRemoteTimeouts], snap[metrics.CounterClusterRemoteRefused])

	if snap[metrics.CounterServeFailed]+snap[metrics.CounterServePanicked] != 0 {
		return fmt.Errorf("replica-side failures during soak: failed=%d panicked=%d",
			snap[metrics.CounterServeFailed], snap[metrics.CounterServePanicked])
	}
	if o.expectChaos {
		if snap[metrics.CounterClusterFailovers] == 0 {
			return fmt.Errorf("kill window produced no failovers")
		}
		if snap[metrics.CounterClusterRejoins] == 0 {
			return fmt.Errorf("killed replica never rejoined")
		}
		if snap[metrics.CounterClusterSpillReuploadBatch] == 0 {
			return fmt.Errorf("no batched spill re-upload happened")
		}
		if snap[metrics.CounterClusterReplicaDown] == 0 || snap[metrics.CounterClusterReplicaUp] == 0 {
			return fmt.Errorf("health machine saw no down/up transition: down=%d up=%d",
				snap[metrics.CounterClusterReplicaDown], snap[metrics.CounterClusterReplicaUp])
		}
	}
	return nil
}

// waitReplicas polls the coordinator's /readyz until min replicas are
// up, returning the sorted membership names.
func waitReplicas(cli *apiv1.Client, min int) ([]string, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var names []string
		rr, err := cli.Ready()
		if err == nil {
			for name, health := range rr.Replicas {
				if health == cluster.HealthUp {
					names = append(names, name)
				}
			}
		}
		if min <= 0 || len(names) >= min {
			sort.Strings(names)
			return names, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("only %d of %d replicas up after 60s (last readyz err: %v)", len(names), min, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// runClusterSoak is the chaos acceptance sweep: with a fixed seed,
// every replica of the cluster is killed and restarted in turn while a
// request stream runs, and not one admitted request may be lost — the
// coordinator's failover (spill re-upload + ring successor walk) and
// the degraded single-survivor funnel must absorb every kill. The
// merged counter snapshot (cluster_failover_total and friends) is
// written as the CI artifact.
func runClusterSoak(cfg serve.Config, n, requests int, seed int64, snapshotPath string) error {
	coord, chaos := buildCluster(cfg, n, seed, 0)
	defer coord.Drain(30 * time.Second)

	// One shared operand: the handle traffic exercises placement,
	// spill re-upload and plan-cache locality across failovers.
	m := spgemm.RMAT(6, 8, 0.57, 0.19, 0.19, seed)
	ref, err := spgemm.Multiply(m, m)
	if err != nil {
		return err
	}
	handle, err := coord.StoreMatrix(m)
	if err != nil {
		return fmt.Errorf("seed store: %w", err)
	}

	phase := requests / n
	if phase == 0 {
		phase = 1
	}
	kills := 0
	var killed *cluster.ChaosBackend
	for r := 0; r < requests; r++ {
		// Kill schedule: at each phase boundary restart the previously
		// killed replica and kill the next one, mid-stream. Every
		// replica takes its turn dying.
		if r%phase == 0 && r/phase < n {
			if killed != nil {
				killed.Revive()
				coord.Probe()
			}
			killed = chaos[r/phase]
			killed.Kill()
			kills++
		}
		var nnz int64
		if r%2 == 0 {
			resp, err := coord.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle})
			if err != nil {
				return fmt.Errorf("request %d (handle) lost: %w", r, err)
			}
			nnz = resp.NnzC
		} else {
			resp, err := coord.Multiply(apiv1.MultiplyRequest{
				Engine: "cpu",
				A:      apiv1.MatrixSpec{Kind: "er", Rows: 48, Cols: 48, Density: 0.08, Seed: seed + int64(r)},
			})
			if err != nil {
				return fmt.Errorf("request %d (spec) lost: %w", r, err)
			}
			nnz = resp.NnzC
		}
		if nnz == 0 {
			return fmt.Errorf("request %d: empty product", r)
		}
		if r%2 == 0 {
			if got := ref.Nnz(); nnz != got {
				return fmt.Errorf("request %d: nnz %d, want %d", r, nnz, got)
			}
		}
	}
	if killed != nil {
		killed.Revive()
		coord.Probe()
	}

	// Degraded-funnel phase: every replica but the last dies and stays
	// dead, and the whole stream funnels through the single survivor's
	// own admission and breaker machinery. Still zero lost requests.
	for i := 0; i < n-1; i++ {
		chaos[i].Kill()
	}
	coord.Probe()
	coord.Probe() // second failed round condemns suspect -> down
	funnel := requests / 4
	if funnel == 0 {
		funnel = 1
	}
	for r := 0; r < funnel; r++ {
		if _, err := coord.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: handle}); err != nil {
			return fmt.Errorf("degraded request %d lost: %w", r, err)
		}
	}
	for i := 0; i < n-1; i++ {
		chaos[i].Revive()
	}
	coord.Probe()

	snap := coord.Counters()
	if err := writeSnapshot(snapshotPath, snap); err != nil {
		return err
	}
	fmt.Printf("cluster-soak: %d+%d requests, %d kills, failovers=%d rebalances=%d degraded=%d down=%d up=%d\n",
		requests, funnel, kills,
		snap[metrics.CounterClusterFailovers], snap[metrics.CounterClusterRebalances],
		snap[metrics.CounterClusterDegraded],
		snap[metrics.CounterClusterReplicaDown], snap[metrics.CounterClusterReplicaUp])

	// Reconciliation: every request admitted exactly once across the
	// replica set (failover re-routes only never-admitted requests),
	// failovers actually happened, every kill was both condemned and
	// recovered, and the funnel phase really ran degraded.
	if got := snap[metrics.CounterServeAccepted]; got != int64(requests+funnel) {
		return fmt.Errorf("admitted jobs %d != %d requests: a request ran twice or vanished", got, requests+funnel)
	}
	if snap[metrics.CounterClusterFailovers] == 0 {
		return fmt.Errorf("kill sweep produced no failovers")
	}
	totalKills := int64(kills + n - 1)
	if down := snap[metrics.CounterClusterReplicaDown]; down != totalKills {
		return fmt.Errorf("down transitions %d != %d kills", down, totalKills)
	}
	if up := snap[metrics.CounterClusterReplicaUp]; up != totalKills {
		return fmt.Errorf("up transitions %d != %d revives", up, totalKills)
	}
	if got := snap[metrics.CounterClusterDegraded]; got != int64(funnel) {
		return fmt.Errorf("degraded-mode requests %d != %d funnel requests", got, funnel)
	}
	if snap[metrics.CounterServeFailed]+snap[metrics.CounterServePanicked] != 0 {
		return fmt.Errorf("replica-side failures during soak: %v", snap)
	}
	return nil
}

func writeSnapshot(path string, snap map[string]int64) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// panickyEngine delegates to the cpu engine but panics every Nth call:
// the chaos source for the serve-soak's panic-isolation check.
type panickyEngine struct {
	every int64
	calls *int64
}

func (e panickyEngine) Name() string     { return "panicky" }
func (e panickyEngine) Describe() string { return "cpu engine that panics every Nth call (chaos)" }
func (e panickyEngine) Run(a, b *spgemm.Matrix, opts *spgemm.RunOptions) (*spgemm.Matrix, spgemm.Report, error) {
	if n := atomic.AddInt64(e.calls, 1); n%e.every == 0 {
		panic(fmt.Sprintf("panicky engine: injected panic on call %d", n))
	}
	cpu, err := spgemm.ByName("cpu")
	if err != nil {
		return nil, nil, err
	}
	return cpu.Run(a, b, opts)
}

func registerPanicky(every int64) {
	spgemm.Register(panickyEngine{every: every, calls: new(int64)})
}

// drive load-tests a running server: clients*requests multiply posts
// round-robin over the requested engines, then assertions against the
// final /metricsz snapshot. With reuse, each client multiplies one
// shared uploaded matrix by handle — the repeated-pattern workload the
// plan cache accelerates — instead of generating a fresh operand per
// request.
func drive(baseURL string, clients, requests int, engines []string, expectShed, expectBreaker, reuse bool) error {
	cli := apiv1.NewClient(baseURL)
	if err := cli.WaitHealthy(30 * time.Second); err != nil {
		return err
	}

	var handle string
	if reuse {
		mr, err := cli.StoreMatrix(apiv1.MatrixRequest{
			Spec: &apiv1.MatrixSpec{Kind: "rmat", Scale: 7, EdgeFactor: 8, Seed: 100},
		})
		if err != nil || mr.Handle == "" {
			return fmt.Errorf("matrix upload: no handle (%v)", err)
		}
		handle = mr.Handle
	}

	var (
		mu       sync.Mutex
		statuses = map[int]int{}
		degraded int
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				engine := engines[(c*requests+r)%len(engines)]
				req := apiv1.MultiplyRequest{Engine: strings.TrimSpace(engine)}
				if reuse {
					req.AHandle = handle
				} else {
					req.A = apiv1.MatrixSpec{
						Kind: "rmat", Scale: 7, EdgeFactor: 8,
						Seed: int64(100 + c*requests + r),
					}
				}
				resp, err := cli.Multiply(req)
				status := http.StatusOK
				if err != nil {
					var ae *apiv1.APIError
					if errors.As(err, &ae) {
						status = ae.Status
					} else {
						status = -1 // transport error
					}
				}
				mu.Lock()
				statuses[status]++
				if err == nil && resp.Degraded {
					degraded++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	// /metricsz mixes int64 counters with float hit rates; truncate
	// where ints are asserted.
	rawSnap, err := cli.Metrics()
	if err != nil {
		return fmt.Errorf("metricsz: %w", err)
	}
	snap := make(map[string]int64, len(rawSnap))
	for k, v := range rawSnap {
		snap[k] = int64(v)
	}

	fmt.Printf("drive: %d clients x %d requests, statuses %v, degraded responses %d\n",
		clients, requests, statuses, degraded)
	fmt.Printf("drive: server counters: completed=%d failed=%d panicked=%d shed(overload)=%d shed(queue)=%d degraded=%d trips=%d\n",
		snap[metrics.CounterServeCompleted], snap[metrics.CounterServeFailed],
		snap[metrics.CounterServePanicked], snap[metrics.CounterServeRejectedOverload],
		snap[metrics.CounterServeRejectedQueue], snap[metrics.CounterServeDegraded],
		snap[metrics.CounterServeBreakerTrips])
	if reuse {
		fmt.Printf("drive: plan cache hits=%d misses=%d hit_rate=%.2f store hits=%d\n",
			snap[metrics.CounterPlanCacheHits], snap[metrics.CounterPlanCacheMisses],
			rawSnap["plan_cache_hit_rate"], snap[metrics.CounterMatrixStoreHits])
	}

	if snap[metrics.CounterServeCompleted] == 0 {
		return fmt.Errorf("no job completed")
	}
	if expectShed {
		if shed := snap[metrics.CounterServeRejectedOverload] + snap[metrics.CounterServeRejectedQueue]; shed == 0 {
			return fmt.Errorf("expected load shedding, server shed nothing")
		}
	}
	if expectBreaker {
		if snap[metrics.CounterServeBreakerTrips] == 0 {
			return fmt.Errorf("expected a breaker trip, none happened")
		}
		if snap[metrics.CounterServeDegraded] == 0 {
			return fmt.Errorf("breaker tripped but no job degraded to the fallback engine")
		}
	}
	if reuse && snap[metrics.CounterPlanCacheHits] == 0 {
		return fmt.Errorf("handle-reuse traffic got no plan cache hits (misses=%d)",
			snap[metrics.CounterPlanCacheMisses])
	}
	return nil
}

// driveBatchDAG soaks /v1/batch against a running server: a
// three-stage A³ chain over a stored block-diagonal handle (whose
// pattern is closed under multiplication, so the chain shares one
// plan), one node on the fault-injected "panicky" engine (the server
// must run with -chaos-panic-every 1), and a node downstream of the
// failure. Asserts the partial-failure contract — ok/ok/ok/failed/
// skipped — the plan sharing, the stored final handle, and the 405
// envelope on a wrong-method request.
func driveBatchDAG(baseURL string) error {
	cli := apiv1.NewClient(baseURL)
	if err := cli.WaitHealthy(30 * time.Second); err != nil {
		return err
	}
	mr, err := cli.StoreMatrix(apiv1.MatrixRequest{
		Spec: &apiv1.MatrixSpec{Kind: "blocks", N: 512, Block: 8, Seed: 42},
	})
	if err != nil {
		return fmt.Errorf("matrix upload: %w", err)
	}
	handle := mr.Handle

	resp, err := cli.Batch(apiv1.BatchRequest{
		Engine: "cpu",
		Nodes: []apiv1.BatchNode{
			{ID: "s1", A: apiv1.Operand{Handle: handle}},
			{ID: "s2", A: apiv1.Operand{Node: "s1"}, B: &apiv1.Operand{Handle: handle}},
			{ID: "s3", A: apiv1.Operand{Node: "s2"}, B: &apiv1.Operand{Handle: handle}, Store: true},
			{ID: "bad", Engine: "panicky", A: apiv1.Operand{Handle: handle}},
			{ID: "dead", A: apiv1.Operand{Node: "bad"}, B: &apiv1.Operand{Handle: handle}},
		},
	})
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	fmt.Printf("drive-batch: completed=%d failed=%d skipped=%d plan hits=%d misses=%d hit_rate=%.2f\n",
		resp.Completed, resp.Failed, resp.Skipped,
		resp.PlanCacheHits, resp.PlanCacheMisses, resp.PlanCacheHitRate)
	for _, n := range resp.Nodes {
		code := ""
		if n.Error != nil {
			code = n.Error.Code
		}
		fmt.Printf("drive-batch: node %-4s status=%-7s engine=%-7s plan_hit=%-5v code=%s\n",
			n.ID, n.Status, n.Engine, n.PlanCacheHit, code)
	}

	want := map[string]string{
		"s1": apiv1.StatusOK, "s2": apiv1.StatusOK, "s3": apiv1.StatusOK,
		"bad": apiv1.StatusFailed, "dead": apiv1.StatusSkipped,
	}
	byID := map[string]apiv1.NodeResult{}
	for _, n := range resp.Nodes {
		byID[n.ID] = n
	}
	for id, status := range want {
		if byID[id].Status != status {
			return fmt.Errorf("node %s: status %q, want %q", id, byID[id].Status, status)
		}
	}
	if code := byID["bad"].Error.Code; code != apiv1.CodeJobPanic {
		return fmt.Errorf("failed node code %q, want %q", code, apiv1.CodeJobPanic)
	}
	if code := byID["dead"].Error.Code; code != apiv1.CodeUpstreamFailed {
		return fmt.Errorf("skipped node code %q, want %q", code, apiv1.CodeUpstreamFailed)
	}
	if byID["s3"].Handle == "" {
		return fmt.Errorf("store:true node s3 returned no handle")
	}
	if resp.PlanCacheHits < 2 {
		return fmt.Errorf("chain shared no plans: %d hits, %d misses", resp.PlanCacheHits, resp.PlanCacheMisses)
	}

	// The consistent-HTTP-semantics contract: a wrong method gets 405,
	// an Allow header and the envelope with code method_not_allowed.
	httpResp, err := http.Get(baseURL + "/v1/batch")
	if err != nil {
		return err
	}
	var env apiv1.ErrorResponse
	decodeErr := json.NewDecoder(httpResp.Body).Decode(&env)
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusMethodNotAllowed || decodeErr != nil ||
		env.Code != apiv1.CodeMethodNotAllowed || httpResp.Header.Get("Allow") != http.MethodPost {
		return fmt.Errorf("GET /v1/batch: status=%d allow=%q code=%q, want 405/POST/%s",
			httpResp.StatusCode, httpResp.Header.Get("Allow"), env.Code, apiv1.CodeMethodNotAllowed)
	}
	return nil
}
