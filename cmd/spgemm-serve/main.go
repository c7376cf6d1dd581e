// Command spgemm-serve is the overload-safe SpGEMM serving daemon: an
// HTTP front end over the engine registry with admission control,
// per-engine circuit breakers and graceful drain (internal/serve). It
// has three modes and no client side: load generation lives in bench/,
// behavioural assertions in go test (main_test.go runs this binary as
// real processes).
//
// Server mode (default):
//
//	spgemm-serve -addr :8097 -max-concurrent 4 -devmem 1048576 \
//	    -faults seed=7,loseafter=60 -snapshot serve-snapshot.json
//
// The listener is bound before anything else starts, so a port in use
// fails the process at once; the "listening on" log line names the
// bound address (the kernel's pick under -addr host:0).
//
// SIGTERM or SIGINT starts the graceful drain: admission stops,
// inflight jobs finish within -drain-timeout, and the final metrics
// snapshot is written to -snapshot before the process exits.
//
// Coordinator mode serves the same wire API through the
// internal/cluster coordinator: membership starts empty, replicas
// register themselves over POST /v1/join, requests shard by structural
// fingerprint on a consistent-hash ring, replica health is probed in
// the background, and failures re-route to ring successors:
//
//	spgemm-serve -coordinator -addr :8097 -probe-interval 500ms
//
// Replica mode is server mode plus -join: the server heartbeats the
// coordinator and re-registers with capped backoff after a coordinator
// restart; the coordinator dials replicas back over HTTP
// (internal/cluster.RemoteReplica) on -advertise, which defaults to
// the bound address, so a SIGKILLed replica is a real dead socket:
//
//	spgemm-serve -addr :8098 -name r1 -join http://127.0.0.1:8097
//	spgemm-serve -addr :8099 -name r2 -join http://127.0.0.1:8097
package main

import (
	"encoding/json"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/spgemm"
)

func main() {
	// A private FlagSet: the usage text lists this daemon's flags and
	// nothing a linked package registered on flag.CommandLine.
	fs := flag.NewFlagSet("spgemm-serve", flag.ExitOnError)
	addr := fs.String("addr", ":8097", "HTTP listen address")
	maxConc := fs.Int("max-concurrent", 2, "run slots: jobs and batch nodes computing at once")
	queueDepth := fs.Int("queue", 0, "jobs that may wait for a run slot (0 = 2*max-concurrent)")
	maxFlops := fs.Int64("max-inflight-flops", 0, "inflight flop budget for admission (0 = unlimited)")
	devmem := fs.Int64("devmem", 0, "simulated device memory in bytes (0 = full V100)")
	faultSpec := fs.String("faults", "", "base fault spec for device engines, e.g. seed=7,rate=0.02,loseafter=60")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful drain deadline on SIGTERM")
	snapshotPath := fs.String("snapshot", "serve-snapshot.json", "write the final metrics snapshot here on drain")
	tripLost := fs.Int64("trip-devices-lost", 0, "breaker: cumulative lost devices to trip (0 = default)")
	tripFailures := fs.Int("trip-failures", 0, "breaker: consecutive failures to trip (0 = default)")
	cooldownJobs := fs.Int("cooldown-jobs", 0, "breaker: degraded jobs before a half-open probe (0 = default)")
	planCacheBytes := fs.Int64("plan-cache-bytes", 0, "structure-reuse plan cache budget in bytes, all plans and grid memos together (0 = 512 MiB, negative disables)")
	storeBytes := fs.Int64("matrix-store-bytes", 0, "content-addressed matrix store budget in bytes (0 = 512 MiB)")

	coordMode := fs.Bool("coordinator", false, "run as a networked cluster coordinator: membership starts empty, replicas register via POST /v1/join")
	probeInterval := fs.Duration("probe-interval", 500*time.Millisecond, "coordinator mode: background health probe cadence")
	joinURL := fs.String("join", "", "coordinator base URL this replica registers with and heartbeats (server mode)")
	replicaName := fs.String("name", "", "replica name sent on join (default replica-<port>)")
	advertiseURL := fs.String("advertise", "", "base URL the coordinator dials this replica back on (default http://<bound address>)")
	fs.Parse(os.Args[1:])

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

	// Bind before anything starts: a port in use must fail the process
	// here, not after a joiner has registered a replica nobody can dial.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal("spgemm-serve: ", err)
	}

	var handler http.Handler
	var drain func(time.Duration) map[string]int64
	if *coordMode {
		coord := cluster.New(cluster.Config{})
		stopProbe := startProbeLoop(coord, *probeInterval)
		handler = coord.Handler()
		drain = func(t time.Duration) map[string]int64 {
			close(stopProbe)
			return coord.Drain(t)
		}
		log.Printf("spgemm-serve: coordinator mode; waiting for replicas on /v1/join (probe every %v)", *probeInterval)
	} else {
		srv := serve.New(serve.Config{
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
		})
		handler = srv.Handler()
		drain = srv.Drain
	}

	// Bodies are bounded in bytes per route (apiv1's readers); the two
	// timeouts bound them in time: the header read that happens before
	// any handler runs, and the whole request, so a client trickling a
	// body cannot hold a connection and its decode buffers open forever.
	// Two minutes carries the largest body a matrix route accepts under
	// the default store budget (2 GiB of JSON) at 18 MB/s.
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second, ReadTimeout: 2 * time.Minute}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal("spgemm-serve: ", err)
		}
	}()
	log.Printf("spgemm-serve: listening on %s (engines: %s)", ln.Addr(), strings.Join(spgemm.Engines(), ", "))

	var joiner *cluster.Joiner
	if *joinURL != "" {
		name, adv := replicaIdentity(ln.Addr().(*net.TCPAddr), *replicaName, *advertiseURL)
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
// bound listen address when the flags leave them blank. A wildcard
// bind advertises loopback: the coordinator needs a host it can dial.
func replicaIdentity(bound *net.TCPAddr, name, advertise string) (string, string) {
	host, port := bound.IP, strconv.Itoa(bound.Port)
	if host.IsUnspecified() {
		host = net.IPv4(127, 0, 0, 1)
	}
	if name == "" {
		name = "replica-" + port
	}
	if advertise == "" {
		advertise = "http://" + net.JoinHostPort(host.String(), port)
	}
	return name, advertise
}

func writeSnapshot(path string, snap map[string]int64) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
