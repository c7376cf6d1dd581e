// Package serve is the overload-safe serving layer over the engine
// registry: a multi-tenant job scheduler that multiplexes SpGEMM jobs
// across the registered engines while staying up under overload,
// device failures and misbehaving jobs.
//
// Its safety mechanisms, in admission order:
//
//   - Admission control. Every job is sized before it is accepted
//     (spgemm.EstimateCost: exact flops plus, for device-backed
//     engines, the out-of-core plan against device memory). Jobs that
//     cannot fit the device are rejected up front; jobs that would
//     push the inflight flop total past the budget are shed with a
//     typed OverloadError carrying a retry-after hint; a bounded
//     queue sheds the rest with QueueFullError. Shedding never blocks
//     and never runs the job.
//   - Circuit breakers. Each device-backed engine has a breaker fed
//     by the recovery counters of its finished jobs (retries, lost
//     devices) and their terminal errors. A tripped breaker degrades
//     the engine's traffic to the CPU fallback engine until a
//     half-open probe completes healthily.
//   - Per-job isolation. An engine panic is recovered into a typed
//     PanicError for that job alone; deadlines and cancellation ride
//     on spgemm.RunOptions.DeadlineSec.
//   - Graceful drain. Drain stops admission, lets inflight jobs
//     finish within the drain deadline, abandons what remains, and
//     returns the final metrics snapshot.
//
// On top of single multiplies, SubmitBatch (POST /v1/batch) schedules
// a whole DAG of multiplies as one admission unit: validated up front
// (unknown handles, cycles, shape mismatches), planned so nodes
// sharing a structural fingerprint pay one cold symbolic phase and
// replay numeric-only via the shared plan cache, and pipelined so a
// chain stage consumes its predecessor's output from an in-flight
// namespace without a round trip through the matrix store. Failure is
// partial: a failed node fails alone, its downstream nodes are
// skipped, everything else completes.
//
// The HTTP surface (Handler) exposes /healthz, /readyz, /metricsz,
// POST /v1/multiply and POST /v1/batch; cmd/spgemm-serve wires it to
// a daemon with SIGTERM-triggered drain. The wire types live in the
// public versioned package repro/spgemm/api/v1.
package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/csr"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/spgemm"
)

// Config tunes a Server. The zero value is usable: two workers, a
// bounded queue of twice that, no flop budget (admission sheds only on
// queue depth), CPU fallback, default breaker thresholds.
type Config struct {
	// MaxConcurrent is the worker count — jobs running at once
	// (0 means 2).
	MaxConcurrent int
	// QueueDepth bounds the admission queue (0 means 2*MaxConcurrent).
	QueueDepth int
	// MaxInflightFlops is the admission budget: a job is shed when its
	// estimated flops plus the admitted-but-unfinished total exceed
	// it. 0 disables the budget (the queue still bounds admission).
	MaxInflightFlops int64
	// FlopsPerSec converts backlog flops into the OverloadError
	// retry-after hint (0 means 1e9).
	FlopsPerSec int64
	// FallbackEngine is where tripped breakers degrade traffic
	// (empty means "cpu").
	FallbackEngine string
	// Breaker tunes the per-engine circuit breakers.
	Breaker BreakerConfig
	// Base is the option set jobs inherit (device model, fault
	// injection, threads); per-job options override it.
	Base spgemm.RunOptions
	// PlanCacheBytes bounds the shared structure-reuse plan cache
	// every job inherits (0 means the spgemm default, negative
	// disables the cache and makes every job run cold).
	PlanCacheBytes int64
	// MatrixStoreBytes bounds the content-addressed matrix store
	// behind handle-based re-multiply (0 means 512 MiB).
	MatrixStoreBytes int64
	// DrainTimeout is the default Drain deadline (0 means 30s).
	DrainTimeout time.Duration
	// Metrics receives the serving counters (plus each job's
	// recovery_* counters, aggregated); nil means a fresh collector.
	Metrics *metrics.Collector
}

// Job is one multiply request: an engine name from the registry and
// the two operands — either as matrices or as handles into the
// server's matrix store (a handle wins over its matrix field). Opts
// may be nil to inherit the server's base options wholesale.
type Job struct {
	Engine string
	A, B   *spgemm.Matrix
	// AHandle and BHandle name stored matrices (see Server.StoreMatrix
	// and POST /v1/matrices); an unknown handle rejects the job at
	// admission.
	AHandle, BHandle string
	Opts             *spgemm.RunOptions
	// wantCID asks for the product's identity record in Result.CID (a
	// caller about to store the product).
	wantCID bool
}

// Result is a finished (or abandoned) job. Err is also returned by
// Submit; the rest documents what actually happened — which engine ran
// the job after breaker routing, its cost estimate, and the job's own
// metrics snapshot (spans and counters, including the recovery_*
// family the breaker consumed).
type Result struct {
	C         *spgemm.Matrix
	Report    spgemm.Report
	Requested string
	Engine    string
	Degraded  bool
	Probe     bool
	Abandoned bool
	Cost      spgemm.Cost
	Snapshot  map[string]int64
	Err       error
	// CID is C's identity record when the job asked for it and the
	// product came from a cached CPU plan; nil otherwise.
	CID *csr.Identity
}

// task is a Job after admission: routed, costed, instrumented.
type task struct {
	a, b      *spgemm.Matrix
	requested string
	engine    string
	degraded  bool
	probe     bool
	cost      spgemm.Cost
	opts      *spgemm.RunOptions
	col       *metrics.Collector
	wantCID   bool
	done      chan *Result
}

// Server is the scheduler. Create with New, submit with Submit (or
// the HTTP handler), shut down with Drain.
type Server struct {
	cfg     Config
	metrics *metrics.Collector
	queue   chan *task
	wg      sync.WaitGroup
	abandon atomic.Bool
	plans   *spgemm.PlanCache
	store   *matrixStore

	mu            sync.Mutex
	draining      bool
	inflight      int
	inflightFlops int64
	breakers      map[string]*breaker
}

// New starts a server and its worker pool.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.MaxConcurrent
	}
	if cfg.FlopsPerSec <= 0 {
		cfg.FlopsPerSec = 1e9
	}
	if cfg.FallbackEngine == "" {
		cfg.FallbackEngine = "cpu"
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	cfg.Breaker = cfg.Breaker.withDefaults()
	m := cfg.Metrics
	if m == nil {
		m = metrics.New()
	}
	s := &Server{
		cfg:      cfg,
		metrics:  m,
		queue:    make(chan *task, cfg.QueueDepth),
		breakers: map[string]*breaker{},
	}
	if cfg.PlanCacheBytes >= 0 {
		s.plans = spgemm.NewPlanCache(cfg.PlanCacheBytes)
	}
	s.store = newMatrixStore(cfg.MatrixStoreBytes, m, s.plans)
	s.wg.Add(cfg.MaxConcurrent)
	for i := 0; i < cfg.MaxConcurrent; i++ {
		go s.worker()
	}
	return s
}

// Submit admits and runs one job, blocking until it finishes.
// Admission rejections come back immediately as typed errors
// (OverloadError, QueueFullError, DrainingError — all classified by
// faults.Shedding) with a nil Result; admitted jobs always produce a
// Result, whose Err is echoed as the second return.
func (s *Server) Submit(job Job) (*Result, error) {
	t, err := s.admit(job)
	if err != nil {
		return nil, err
	}
	res := <-t.done
	return res, res.Err
}

// admit resolves, routes, sizes and enqueues one job. The cost estimate
// (an O(nnz) flop scan and, for a device engine, the grid planner on a
// plan miss) runs outside the server mutex; the draining re-check, the
// budget check and the enqueue that follow it are one critical section,
// so a concurrent Drain cannot close the queue between the draining
// check and the enqueue. Operands resolved from the store come with
// their identity records, with which the estimate and the run validate,
// hash and scan nothing.
func (s *Server) admit(job Job) (*task, error) {
	opts := s.jobOptions(job)
	if job.AHandle != "" {
		var ok bool
		if job.A, opts.AID, ok = s.store.get(job.AHandle); !ok {
			return nil, &UnknownHandleError{Handle: job.AHandle}
		}
	}
	if job.BHandle != "" {
		var ok bool
		if job.B, opts.BID, ok = s.store.get(job.BHandle); !ok {
			return nil, &UnknownHandleError{Handle: job.BHandle}
		}
	}
	if job.A == nil || job.B == nil {
		return nil, fmt.Errorf("serve: nil input matrix")
	}
	requested := job.Engine
	if requested == "" {
		requested = s.cfg.FallbackEngine
	}
	col := opts.Metrics
	if col == nil {
		col = metrics.New()
		opts.Metrics = col
	}

	// Route under the lock, estimate outside it, and come back: the loop
	// ends holding the lock, not draining, with an estimate made for the
	// route that holds now. The breaker can only have moved in between if
	// another admit took the half-open probe; the estimate then sized the
	// wrong engine and is made again.
	var engine string
	var degraded, probe bool
	var cost spgemm.Cost
	s.mu.Lock()
	for {
		if s.draining {
			s.metrics.Add(metrics.CounterServeRejectedDraining, 1)
			s.mu.Unlock()
			return nil, &DrainingError{}
		}
		e, d, p := s.routeLocked(requested)
		if e == engine && d == degraded && p == probe {
			break
		}
		engine, degraded, probe = e, d, p
		s.mu.Unlock()
		var err error
		if cost, err = spgemm.EstimateCost(engine, job.A, job.B, opts); err != nil {
			return nil, err
		}
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	if lim := s.cfg.MaxInflightFlops; lim > 0 && s.inflight > 0 && s.inflightFlops+cost.Flops > lim {
		s.metrics.Add(metrics.CounterServeRejectedOverload, 1)
		return nil, &OverloadError{
			RetryAfter:    s.retryAfterLocked(),
			InflightFlops: s.inflightFlops,
			JobFlops:      cost.Flops,
			BudgetFlops:   lim,
		}
	}
	t := &task{
		a: job.A, b: job.B,
		requested: requested, engine: engine,
		degraded: degraded, probe: probe,
		cost: cost, opts: opts, col: col, wantCID: job.wantCID,
		done: make(chan *Result, 1),
	}
	select {
	case s.queue <- t:
	default:
		s.metrics.Add(metrics.CounterServeRejectedQueue, 1)
		return nil, &QueueFullError{Depth: cap(s.queue)}
	}
	s.inflight++
	s.inflightFlops += cost.Flops
	s.metrics.Add(metrics.CounterServeAccepted, 1)
	if degraded {
		s.metrics.Add(metrics.CounterServeDegraded, 1)
	}
	if probe {
		s.metrics.Add(metrics.CounterServeBreakerProbes, 1)
	}
	if br := s.breakerFor(requested); br != nil {
		br.committed(degraded, probe)
	}
	return t, nil
}

// routeLocked asks the requested engine's breaker where the next job
// goes: the engine itself (possibly as the half-open probe) or the
// fallback. It changes no state; committed does, once the job is in.
func (s *Server) routeLocked(requested string) (engine string, degraded, probe bool) {
	engine = requested
	if br := s.breakerFor(requested); br != nil {
		fallback, p := br.route()
		if fallback {
			engine, degraded = s.cfg.FallbackEngine, true
		}
		probe = p
	}
	return engine, degraded, probe
}

// jobOptions merges a job's options over the server base: nil inherits
// the base wholesale; otherwise the job's options win, with unset
// device/faults/threads/deadline backfilled from the base. The
// metrics collector is per-job, never the base's: a job that brings
// its own keeps it (its spans stay readable by the caller), everyone
// else gets a fresh one in admit.
func (s *Server) jobOptions(job Job) *spgemm.RunOptions {
	o := s.cfg.Base
	o.Metrics = nil
	if job.Opts != nil {
		o = *job.Opts
		if o.Device == nil {
			o.Device = s.cfg.Base.Device
		}
		if !o.Faults.Enabled() {
			o.Faults = s.cfg.Base.Faults
		}
		if o.Threads == 0 {
			o.Threads = s.cfg.Base.Threads
		}
		if o.DeadlineSec == 0 {
			o.DeadlineSec = s.cfg.Base.DeadlineSec
		}
	}
	if o.PlanCache == nil && !o.Faults.Enabled() {
		// Jobs share the server's plan cache: repeated patterns across
		// requests hit warm plans. A job bringing its own cache keeps
		// it. Fault-injected jobs stay cold unless they bring one — a
		// warm run does less device work, which would silently shift
		// when (or whether) the job's seeded faults fire.
		o.PlanCache = s.plans
	}
	return &o
}

// breakerFor returns the engine's breaker, creating it lazily. Only
// device-backed engines other than the fallback get breakers — the
// fallback must always accept degraded traffic.
func (s *Server) breakerFor(name string) *breaker {
	if name == s.cfg.FallbackEngine || !spgemm.DeviceBacked(name) {
		return nil
	}
	br := s.breakers[name]
	if br == nil {
		br = newBreaker(s.cfg.Breaker)
		s.breakers[name] = br
	}
	return br
}

// retryAfterLocked sizes the retry-after hint from the backlog: the
// time the inflight flops take to drain at the configured rate,
// clamped to at least one millisecond so the hint is never zero.
func (s *Server) retryAfterLocked() time.Duration {
	d := time.Duration(float64(s.inflightFlops) / float64(s.cfg.FlopsPerSec) * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

func (s *Server) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		res := s.run(t)
		s.finish(t, res)
		t.done <- res
	}
}

// run executes one admitted task, converting an engine panic into a
// typed per-job error instead of crashing the worker.
func (s *Server) run(t *task) *Result {
	res := &Result{
		Requested: t.requested, Engine: t.engine,
		Degraded: t.degraded, Probe: t.probe, Cost: t.cost,
	}
	if s.abandon.Load() {
		res.Abandoned = true
		res.Err = fmt.Errorf("serve: job abandoned at drain deadline: %w", faults.ErrDeadline)
		return res
	}
	eng, err := spgemm.ByName(t.engine)
	if err != nil {
		res.Err = err
		return res
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.Err = &PanicError{Engine: t.engine, Value: r}
			}
		}()
		res.C, res.Report, res.Err = eng.Run(t.a, t.b, t.opts)
		if res.Err == nil && t.wantCID {
			res.CID = t.opts.PlanCache.ProductIdentity(t.a, t.b, res.C, *t.opts)
		}
	}()
	res.Snapshot = t.col.Snapshot()
	return res
}

// finish releases the job's admission budget, publishes its outcome
// counters, aggregates its recovery counters, and feeds its recovery
// signal to the engine's breaker.
func (s *Server) finish(t *task, res *Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	s.inflightFlops -= t.cost.Flops
	s.settleLocked(t, res)
}

// settleLocked publishes a finished task's outcome counters,
// aggregates its recovery/plan-cache/identity counters, and feeds its
// recovery signal to the engine's breaker. It does NOT touch the
// admission accounting — finish does that per job; the batch executor
// accounts a whole DAG as one unit and settles each node through here.
// The caller holds s.mu.
func (s *Server) settleLocked(t *task, res *Result) {
	switch {
	case res.Abandoned:
		s.metrics.Add(metrics.CounterServeAbandoned, 1)
	case res.Err == nil:
		s.metrics.Add(metrics.CounterServeCompleted, 1)
	case errors.Is(res.Err, faults.ErrJobPanic):
		s.metrics.Add(metrics.CounterServePanicked, 1)
	default:
		s.metrics.Add(metrics.CounterServeFailed, 1)
	}
	for k, v := range res.Snapshot {
		if strings.HasPrefix(k, "recovery_") || strings.HasPrefix(k, "plan_cache_") || k == metrics.CounterIdentityPasses {
			s.metrics.Add(k, v)
		}
	}
	if res.Abandoned || t.degraded {
		return
	}
	if br := s.breakers[t.engine]; br != nil {
		sig := faults.SignalFromCounters(res.Snapshot, res.Err)
		tripped, closedNow := br.record(sig, t.probe)
		if tripped {
			s.metrics.Add(metrics.CounterServeBreakerTrips, 1)
		}
		if closedNow {
			s.metrics.Add(metrics.CounterServeBreakerCloses, 1)
		}
	}
}

// Drain shuts the server down gracefully: stop admitting, let
// inflight and queued jobs finish within the deadline (0 means the
// configured DrainTimeout), abandon whatever the deadline catches
// still queued, and return the final metrics snapshot. Abandoned jobs
// resolve with an error wrapping faults.ErrDeadline. Drain is
// idempotent; every call waits for the workers and returns the
// snapshot.
func (s *Server) Drain(timeout time.Duration) map[string]int64 {
	if timeout <= 0 {
		timeout = s.cfg.DrainTimeout
	}
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		s.abandon.Store(true)
		<-done
	}
	return s.Snapshot()
}

// Snapshot returns the server's current flat metrics snapshot,
// including the authoritative plan-cache and matrix-store totals
// (the cache's own counters, which also cover evictions and hits
// recorded outside any job).
func (s *Server) Snapshot() map[string]int64 {
	snap := s.metrics.Snapshot()
	if s.plans != nil {
		hits, misses, evictions := s.plans.Counters()
		snap[metrics.CounterPlanCacheHits] = hits
		snap[metrics.CounterPlanCacheMisses] = misses
		snap[metrics.CounterPlanCacheEvictions] = evictions
	}
	entries, bytes, hits, misses, evictions := s.store.stats()
	snap["matrix_store_entries"] = int64(entries)
	snap["matrix_store_bytes"] = bytes
	snap[metrics.CounterMatrixStoreHits] = hits
	snap[metrics.CounterMatrixStoreMisses] = misses
	snap[metrics.CounterMatrixStoreEvictions] = evictions
	return snap
}

// StoreMatrix uploads a matrix into the content-addressed store and
// returns its handle. Identical content is idempotent.
func (s *Server) StoreMatrix(m *spgemm.Matrix) (string, error) { return s.store.put(m, nil) }

// Matrix resolves a stored handle.
func (s *Server) Matrix(handle string) (*spgemm.Matrix, bool) {
	m, _, ok := s.store.get(handle)
	return m, ok
}

// RevalueMatrix stores a fresh-valued copy of a stored pattern (same
// structure, deterministic new values from seed) and returns the new
// handle; the pattern's cached plans remain valid for it.
func (s *Server) RevalueMatrix(handle string, seed int64) (string, error) {
	return s.store.revalue(handle, seed)
}

// DeleteMatrix removes a stored handle; if it carried the last copy
// of its sparsity pattern, the pattern's plan-cache entries go with
// it. It reports whether the handle existed.
func (s *Server) DeleteMatrix(handle string) bool { return s.store.delete(handle) }

// PlanCache exposes the server's shared plan cache (nil when disabled).
func (s *Server) PlanCache() *spgemm.PlanCache { return s.plans }

// Draining reports whether Drain has begun (readiness turns false).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Abandoning reports whether the drain deadline has passed and queued
// jobs are being abandoned rather than run.
func (s *Server) Abandoning() bool { return s.abandon.Load() }

// Inflight reports the admitted-but-unfinished jobs and their summed
// flop estimates.
func (s *Server) Inflight() (jobs int, flops int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight, s.inflightFlops
}

// BreakerStates reports each engine breaker as "closed", "open" or
// "half-open". Engines without traffic have no entry.
func (s *Server) BreakerStates() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]string{}
	for name, br := range s.breakers {
		out[name] = br.state()
	}
	return out
}
