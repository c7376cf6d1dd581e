// Package metrics is the unified observability layer of the SpGEMM
// framework: one low-overhead, concurrency-safe event/counter sink
// shared by both of the repository's time domains — simulated device
// runs (core, hybrid, multigpu, summa on the internal/sim clock) and
// real wall-clock CPU engines (cpuspgemm, partitioning, chunk
// assembly).
//
// A Collector records per-phase spans (analysis, symbolic, numeric,
// h2d, d2h, assemble, ...) and named counters (bytes moved, flops,
// chunks, device mallocs, accumulator-pool hits). It exports three
// views:
//
//   - a Chrome trace-event JSON file loadable in chrome://tracing /
//     Perfetto (WriteChromeTrace),
//   - a flat key/value snapshot consumed by spgemm-run and the serving
//     tier's /metricsz (Snapshot),
//   - the text Gantt and per-lane utilization tables that
//     internal/trace renders (Gantt, Utilizations).
//
// Instrumentation is disabled by default and must cost ~nothing when
// off: every method is safe on a nil *Collector and returns
// immediately, so hot paths guard with a single nil comparison.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Domain distinguishes the two time bases a Collector can hold.
// Spans from different domains never share a clock; exports keep them
// in separate Chrome-trace processes and snapshot key prefixes.
type Domain int

const (
	// Sim is virtual time from the discrete-event kernel
	// (internal/sim), in nanoseconds from simulation start.
	Sim Domain = iota
	// Wall is real elapsed time, in nanoseconds from collector
	// creation.
	Wall
)

func (d Domain) String() string {
	switch d {
	case Sim:
		return "sim"
	case Wall:
		return "wall"
	default:
		return "unknown"
	}
}

// Span is one recorded interval of work in a single time domain.
type Span struct {
	Domain Domain
	// Lane names the resource or actor ("kernel", "h2d", "d2h",
	// "cpu", "host", ...).
	Lane string
	// Label describes the work ("numeric c3", "symbolic phase", ...).
	Label string
	// Start and End are nanoseconds in the span's domain.
	Start, End int64
}

// Dur returns the span length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Collector accumulates spans and counters for one run. The zero
// value is not used directly; create one with New. A nil *Collector
// is the disabled state: every method no-ops.
//
// Collectors are safe for concurrent use: counter updates take an
// atomic fast path and span appends share one mutex (spans are
// recorded per phase or per simulated operation, far off any
// per-element hot loop).
type Collector struct {
	mu       sync.Mutex
	spans    []Span
	start    time.Time // wall-clock epoch for Wall-domain spans
	counters sync.Map  // string -> *int64
}

// New creates an empty collector whose wall-clock spans are measured
// from this moment.
func New() *Collector {
	return &Collector{start: time.Now()}
}

// Enabled reports whether the collector records anything (false for a
// nil collector). Callers with non-trivial setup cost gate on it.
func (c *Collector) Enabled() bool { return c != nil }

// AddSpan records a fully-formed span. Nil-safe.
func (c *Collector) AddSpan(s Span) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

// SimSpan records a simulated-time span from explicit nanosecond
// bounds. Nil-safe.
func (c *Collector) SimSpan(lane, label string, start, end int64) {
	if c == nil {
		return
	}
	c.AddSpan(Span{Domain: Sim, Lane: lane, Label: label, Start: start, End: end})
}

// StartWall begins a wall-clock span and returns a function that ends
// and records it. Nil-safe: the returned stop function of a nil
// collector does nothing.
//
//	stop := col.StartWall("cpu", "numeric phase")
//	... work ...
//	stop()
func (c *Collector) StartWall(lane, label string) func() {
	if c == nil {
		return func() {}
	}
	start := time.Since(c.start).Nanoseconds()
	return func() {
		end := time.Since(c.start).Nanoseconds()
		c.AddSpan(Span{Domain: Wall, Lane: lane, Label: label, Start: start, End: end})
	}
}

// Add increments a named counter by delta. Nil-safe.
func (c *Collector) Add(name string, delta int64) {
	if c == nil {
		return
	}
	v, ok := c.counters.Load(name)
	if !ok {
		v, _ = c.counters.LoadOrStore(name, new(int64))
	}
	atomic.AddInt64(v.(*int64), delta)
}

// Set stores a counter's absolute value. Nil-safe.
func (c *Collector) Set(name string, value int64) {
	if c == nil {
		return
	}
	v, ok := c.counters.Load(name)
	if !ok {
		v, _ = c.counters.LoadOrStore(name, new(int64))
	}
	atomic.StoreInt64(v.(*int64), value)
}

// Counter returns a counter's current value (0 when absent or nil).
func (c *Collector) Counter(name string) int64 {
	if c == nil {
		return 0
	}
	if v, ok := c.counters.Load(name); ok {
		return atomic.LoadInt64(v.(*int64))
	}
	return 0
}

// Spans returns a copy of the recorded spans in recording order.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Span(nil), c.spans...)
}

// Counters returns a copy of all counters.
func (c *Collector) Counters() map[string]int64 {
	if c == nil {
		return nil
	}
	out := map[string]int64{}
	c.counters.Range(func(k, v any) bool {
		out[k.(string)] = atomic.LoadInt64(v.(*int64))
		return true
	})
	return out
}

// LaneBusy sums span time on one lane of one domain, in nanoseconds.
func (c *Collector) LaneBusy(d Domain, lane string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, s := range c.spans {
		if s.Domain == d && s.Lane == lane {
			total += s.Dur()
		}
	}
	return total
}

// Makespan returns the latest span end per domain, in nanoseconds.
func (c *Collector) Makespan(d Domain) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var end int64
	for _, s := range c.spans {
		if s.Domain == d && s.End > end {
			end = s.End
		}
	}
	return end
}

// Standard counter names. Engines that report the same quantity use
// the same key so exports stay comparable across engines.
const (
	CounterFlops    = "flops"
	CounterBytesH2D = "bytes_h2d"
	CounterBytesD2H = "bytes_d2h"
	CounterChunks   = "chunks"
	CounterMallocs  = "mallocs"
	CounterMemPeak  = "mem_peak_bytes"
	CounterNnzC     = "nnz_c"
	CounterPoolGets = "accum_pool_gets"
	CounterPoolNews = "accum_pool_news"
	CounterRows     = "rows"

	// Recovery counters. Retries counts transient device faults
	// absorbed by retrying; Abandoned counts transient faults that
	// exhausted a chunk's budget (Retries+Abandoned reconciles with the
	// injector's fault count); Fallbacks counts GPU chunks recomputed
	// on the CPU; Failovers counts chunks redistributed off a failed
	// device; DevicesLost counts devices that died mid-run.
	CounterRetries     = "recovery_retries"
	CounterAbandoned   = "recovery_abandoned"
	CounterFallbacks   = "recovery_fallbacks"
	CounterFailovers   = "recovery_failovers"
	CounterDevicesLost = "recovery_devices_lost"

	// CounterMemInUse is the device memory still accounted at the end
	// of a run, after host-side teardown — nonzero means an allocation
	// leaked (the arena-leak audit asserts it is zero even for
	// deadline-aborted runs).
	CounterMemInUse = "mem_in_use_bytes"

	// Serving counters, published by internal/serve. Accepted counts
	// admissions; the rejected_* family counts load shedding before a
	// job ran (overload budget, bounded queue, drain); completed /
	// failed / panicked partition finished jobs; abandoned counts jobs
	// dropped at the drain deadline; degraded counts jobs routed to
	// the fallback engine by an open breaker; the breaker_* family
	// counts circuit state transitions.
	CounterServeAccepted         = "serve_jobs_accepted"
	CounterServeRejectedOverload = "serve_jobs_rejected_overload"
	CounterServeRejectedQueue    = "serve_jobs_rejected_queue_full"
	CounterServeRejectedDraining = "serve_jobs_rejected_draining"
	CounterServeCompleted        = "serve_jobs_completed"
	CounterServeFailed           = "serve_jobs_failed"
	CounterServePanicked         = "serve_jobs_panicked"
	CounterServeAbandoned        = "serve_jobs_abandoned"
	CounterServeDegraded         = "serve_jobs_degraded"
	CounterServeBreakerTrips     = "serve_breaker_trips"
	CounterServeBreakerProbes    = "serve_breaker_probes"
	CounterServeBreakerCloses    = "serve_breaker_closes"

	// Batch counters, published by the /v1/batch planner. Accepted and
	// completed count whole DAGs (a batch with failed nodes still
	// completes); skipped counts nodes never run because an upstream
	// dependency failed. Node outcomes feed the serve_jobs_* family
	// above, one unit per node.
	CounterServeBatchesAccepted  = "serve_batches_accepted"
	CounterServeBatchesCompleted = "serve_batches_completed"
	CounterServeBatchSkipped     = "serve_batch_nodes_skipped"

	// Plan-cache counters, published per run by engines given a
	// core.PlanCache (hits+misses reconciles with the job count) and in
	// aggregate by the serving layer's /metricsz. Evictions counts
	// entries dropped to keep the cache under its byte budget or
	// invalidated by a device loss or matrix-store eviction.
	CounterPlanCacheHits      = "plan_cache_hits"
	CounterPlanCacheMisses    = "plan_cache_misses"
	CounterPlanCacheEvictions = "plan_cache_evictions"

	// CounterIdentityPasses counts the O(nnz) passes spent establishing
	// what an operand is rather than multiplying it: one per structure
	// hash, values hash, validation or flop scan. An operand that comes
	// with its csr.Identity costs none; the serving layer aggregates the
	// per-job counts like plan_cache_*.
	CounterIdentityPasses = "identity_passes"

	// Matrix-store counters, published by internal/serve's
	// content-addressed store behind handle-based re-multiply.
	CounterMatrixStoreHits      = "matrix_store_hits"
	CounterMatrixStoreMisses    = "matrix_store_misses"
	CounterMatrixStoreEvictions = "matrix_store_evictions"

	// Cluster counters, published by internal/cluster's coordinator.
	// Requests/routes count client requests and the replica sends made
	// for them (a failover sends more than once); failover
	// counts re-routes to a ring successor after a replica failure;
	// retries counts shed-retry attempts against the same replica;
	// rebalance_moves counts spill-copy re-uploads
	// that moved a pattern to a new owner; degraded counts requests
	// funneled through a lone surviving replica; the replica_* pair
	// counts health-state-machine transitions into down and back up;
	// probe_failures counts failed health probes.
	CounterClusterRequests      = "cluster_requests_total"
	CounterClusterRoutes        = "cluster_routes_total"
	CounterClusterFailovers     = "cluster_failover_total"
	CounterClusterRetries       = "cluster_retries_total"
	CounterClusterRebalances    = "cluster_rebalance_moves_total"
	CounterClusterDegraded      = "cluster_degraded_requests_total"
	CounterClusterReplicaDown   = "cluster_replica_transitions_down"
	CounterClusterReplicaUp     = "cluster_replica_transitions_up"
	CounterClusterProbeFailures = "cluster_probe_failures_total"

	// Networked-transport counters, published by the cluster tier once
	// replicas live behind real sockets. The remote_* trio classifies
	// transport failures (connection refused, per-operation deadline
	// exceeded, connection reset / truncated body); joins counts every
	// /v1/join that changed membership (new replica, new URL, or a
	// revival) and rejoins the subset that brought a previously non-up
	// replica back — healthy heartbeats count neither; the
	// spill_reupload pair counts batched failover re-uploads and the
	// payload bytes they pipelined.
	CounterClusterRemoteRefused      = "cluster_remote_conn_refused"
	CounterClusterRemoteTimeouts     = "cluster_remote_timeouts"
	CounterClusterRemoteResets       = "cluster_remote_resets"
	CounterClusterJoins              = "cluster_join_total"
	CounterClusterRejoins            = "cluster_rejoin_total"
	CounterClusterSpillReuploadBatch = "cluster_spill_reupload_batches"
	CounterClusterSpillReuploadBytes = "cluster_spill_reupload_bytes"
)

// Snapshot flattens the collector into sorted key/value pairs: every
// counter plus, per domain present, "<domain>.<lane>_busy_ns" for each
// lane and "<domain>.makespan_ns". This is the machine-readable form
// spgemm-run and /metricsz consume instead of recomputing per-phase
// totals from raw timelines.
func (c *Collector) Snapshot() map[string]int64 {
	if c == nil {
		return nil
	}
	out := c.Counters()
	c.mu.Lock()
	type key struct {
		d    Domain
		lane string
	}
	busy := map[key]int64{}
	mk := map[Domain]int64{}
	for _, s := range c.spans {
		busy[key{s.Domain, s.Lane}] += s.Dur()
		if s.End > mk[s.Domain] {
			mk[s.Domain] = s.End
		}
	}
	c.mu.Unlock()
	for k, v := range busy {
		out[k.d.String()+"."+k.lane+"_busy_ns"] = v
	}
	for d, v := range mk {
		out[d.String()+".makespan_ns"] = v
	}
	return out
}

// SnapshotKeys returns the snapshot's keys in sorted order, for
// deterministic rendering.
func SnapshotKeys(snap map[string]int64) []string {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
