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
//     queue of jobs waiting for a run slot sheds the rest with
//     QueueFullError. Shedding never blocks and never runs the job.
//   - One bound. MaxConcurrent run slots bound the jobs and batch
//     nodes computing at once, server-wide; each computes on its
//     caller's goroutine while it holds a slot.
//   - Circuit breakers. Each device-backed engine has a breaker fed
//     by the recovery counters of its finished jobs (retries, lost
//     devices) and their terminal errors. A tripped breaker degrades
//     the engine's traffic to the CPU fallback engine until a
//     half-open probe completes healthily.
//   - Per-job isolation. An engine panic is recovered into a typed
//     PanicError for that job alone; deadlines and cancellation ride
//     on spgemm.RunOptions.DeadlineSec.
//   - Graceful drain. Drain stops admission, lets inflight jobs
//     finish within the drain deadline, abandons those still waiting
//     for a slot, and returns the final metrics snapshot.
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
	"reflect"
	"strings"
	"sync"
	"time"

	"repro/internal/csr"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/spgemm"
)

// Config tunes a Server. The zero value is usable: two run slots, a
// bounded queue of twice that, no flop budget (admission sheds only on
// queue depth), default breaker thresholds.
type Config struct {
	// MaxConcurrent is the number of run slots: jobs and batch nodes
	// computing at once, server-wide (0 means 2). It counts jobs, not
	// cores: one job takes its engine's host parallelism
	// (spgemm.RunOptions.Threads).
	MaxConcurrent int
	// QueueDepth bounds the /v1/multiply jobs waiting for a run slot
	// (0 means 2*MaxConcurrent).
	QueueDepth int
	// MaxInflightFlops is the admission budget: a job is shed when its
	// estimated flops plus the admitted-but-unfinished total exceed
	// it. 0 disables the budget (the queue still bounds admission).
	MaxInflightFlops int64
	// FlopsPerSec converts backlog flops into the OverloadError
	// retry-after hint (0 means 1e9).
	FlopsPerSec int64
	// Breaker tunes the per-engine circuit breakers.
	Breaker BreakerConfig
	// Base is the option set every job inherits; each field a job's
	// options set (to a non-zero value) overrides the base's.
	Base spgemm.RunOptions
	// PlanCacheBytes bounds the shared structure-reuse plan cache
	// every job inherits: its CPU plans, device plans and grid memos
	// together (0 means the spgemm default of 512 MiB, negative
	// disables the cache and makes every job run cold).
	PlanCacheBytes int64
	// MatrixStoreBytes bounds the content-addressed matrix store
	// behind handle-based re-multiply (0 means 512 MiB).
	MatrixStoreBytes int64
	// DrainTimeout is the default Drain deadline (0 means 30s).
	DrainTimeout time.Duration
}

// fallbackEngine is where tripped breakers degrade traffic, and the
// engine of a job that names none.
const fallbackEngine = "cpu"

// Job is one multiply request: an engine name from the registry and
// the two operands — either as matrices or as handles into the
// server's matrix store (a handle wins over its matrix field). Opts is
// laid over the server's base options field by field (Config.Base).
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
	job *task // the task that computed C; nil once the store owns C.Data
}

// release hands C.Data back to its plan; nothing else may reference it.
func (r *Result) release() {
	if t := r.job; t != nil && r.C != nil {
		t.opts.PlanCache.Release(t.a, t.b, r.C, *t.opts)
	}
}

// task is a job or batch node on its way to a run slot: routed,
// costed, instrumented (opts.Metrics is its own collector).
type task struct {
	a, b      *spgemm.Matrix
	requested string
	engine    string
	degraded  bool
	probe     bool
	cost      spgemm.Cost
	opts      *spgemm.RunOptions
	wantCID   bool
	// queued marks a job admitted while every run slot was taken: it
	// waits for one, counted against QueueDepth.
	queued bool
	// pinned lists the store handles the job holds until it finishes.
	pinned []string
}

func newTask(engine string, a, b *spgemm.Matrix, opts *spgemm.RunOptions, wantCID bool) *task {
	if engine == "" {
		engine = fallbackEngine
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.New()
	}
	return &task{a: a, b: b, requested: engine, opts: opts, wantCID: wantCID}
}

// Server is the scheduler. Create with New, submit with Submit (or
// the HTTP handler), shut down with Drain.
type Server struct {
	cfg     Config
	metrics *metrics.Collector
	// slots holds one token per job or batch node computing; its
	// capacity is MaxConcurrent.
	slots chan struct{}
	// abandoned closes once, at the drain deadline.
	abandoned   chan struct{}
	abandonOnce sync.Once
	wg          sync.WaitGroup // one per admission unit
	plans       *spgemm.PlanCache
	store       *matrixStore

	mu            sync.Mutex
	draining      bool
	inflight      int
	inflightFlops int64
	queued        int
	breakers      map[string]*breaker
}

// New makes a server; it starts no goroutine.
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
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	cfg.Breaker = cfg.Breaker.withDefaults()
	s := &Server{
		cfg:       cfg,
		metrics:   metrics.New(),
		slots:     make(chan struct{}, cfg.MaxConcurrent),
		abandoned: make(chan struct{}),
		breakers:  map[string]*breaker{},
	}
	if cfg.PlanCacheBytes >= 0 {
		s.plans = spgemm.NewPlanCache(cfg.PlanCacheBytes)
	}
	s.store = newMatrixStore(cfg.MatrixStoreBytes, s.metrics)
	return s
}

// Submit admits one job and computes it on the caller's goroutine in a
// run slot, blocking until it finishes. Admission rejections come back
// immediately as typed errors (OverloadError, QueueFullError,
// DrainingError — all classified by faults.Shedding) with a nil
// Result; admitted jobs always produce a Result, whose Err is echoed
// as the second return.
func (s *Server) Submit(job Job) (*Result, error) {
	t, err := s.admit(job)
	if err != nil {
		return nil, err
	}
	held := !t.queued
	if t.queued {
		held = s.acquire()
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
	}
	res := s.execute(t, held)
	s.store.unpinAll(t.pinned)
	s.finish(t.cost.Flops)
	return res, res.Err
}

// admit resolves (pinning handles), routes, sizes and admits one job,
// taking a free run slot if there is one and a queue place if not.
// Operands resolved from the store come with their identity records,
// with which the estimate and the run validate, hash and scan nothing.
func (s *Server) admit(job Job) (t *task, err error) {
	opts := s.jobOptions(job)
	var pinned []string
	defer func() {
		if err != nil {
			s.store.unpinAll(pinned)
		}
	}()
	if job.AHandle != "" {
		var ok bool
		if job.A, opts.AID, ok = s.store.getPin(job.AHandle); !ok {
			return nil, &UnknownHandleError{Handle: job.AHandle}
		}
		pinned = append(pinned, job.AHandle)
	}
	if job.BHandle != "" {
		var ok bool
		if job.B, opts.BID, ok = s.store.getPin(job.BHandle); !ok {
			return nil, &UnknownHandleError{Handle: job.BHandle}
		}
		pinned = append(pinned, job.BHandle)
	}
	if job.A == nil || job.B == nil {
		return nil, fmt.Errorf("serve: nil input matrix")
	}
	t = newTask(job.Engine, job.A, job.B, opts, job.wantCID)
	t.pinned = pinned

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.routeLocked(t); err != nil {
		return nil, err
	}
	if err := s.admitLocked(t.cost.Flops); err != nil {
		return nil, err
	}
	// The free slot is taken here, under the lock, so only a job that
	// found none counts against the queue.
	select {
	case s.slots <- struct{}{}:
	default:
		if s.queued >= s.cfg.QueueDepth {
			s.metrics.Add(metrics.CounterServeRejectedQueue, 1)
			return nil, &QueueFullError{Depth: s.cfg.QueueDepth}
		}
		s.queued++
		t.queued = true
	}
	s.acceptLocked(t.cost.Flops)
	s.metrics.Add(metrics.CounterServeAccepted, 1)
	s.commitLocked(t)
	return t, nil
}

// routeLocked asks the requested engine's breaker where t goes (the
// engine itself, possibly as the half-open probe, or the fallback) and
// sizes t for that route. It is called and returns with s.mu held, but
// the estimate (an O(nnz) flop scan and, for a device engine, the grid
// planner on a plan miss) runs outside the lock, so the loop ends once
// the route that holds now is the one estimated: the breaker can only
// have moved in between if another job took the probe. It changes no
// state; commitLocked does, once t is in.
func (s *Server) routeLocked(t *task) error {
	for {
		engine, degraded, probe := t.requested, false, false
		if br := s.breakerFor(t.requested); br != nil {
			if degraded, probe = br.route(); degraded {
				engine = fallbackEngine
			}
		}
		if engine == t.engine && degraded == t.degraded && probe == t.probe {
			return nil
		}
		t.engine, t.degraded, t.probe = engine, degraded, probe
		s.mu.Unlock()
		cost, err := spgemm.EstimateCost(t.engine, t.a, t.b, t.opts)
		s.mu.Lock()
		if err != nil {
			return err
		}
		t.cost = cost
	}
}

// admitLocked is the admission decision for one unit — a job or a whole
// batch — of flops: refused while draining, shed past the flop budget.
func (s *Server) admitLocked(flops int64) error {
	if s.draining {
		s.metrics.Add(metrics.CounterServeRejectedDraining, 1)
		return &DrainingError{}
	}
	if lim := s.cfg.MaxInflightFlops; lim > 0 && s.inflight > 0 && s.inflightFlops+flops > lim {
		s.metrics.Add(metrics.CounterServeRejectedOverload, 1)
		return &OverloadError{
			RetryAfter:    s.retryAfterLocked(),
			InflightFlops: s.inflightFlops,
			JobFlops:      flops,
			BudgetFlops:   lim,
		}
	}
	return nil
}

// acceptLocked takes the admission unit admitLocked allowed; finish
// returns it, and Drain waits for it. Drain flips draining under the
// same lock before it waits, so it never misses one.
func (s *Server) acceptLocked(flops int64) {
	s.inflight++
	s.inflightFlops += flops
	s.wg.Add(1)
}

// finish returns an admission unit taken by acceptLocked.
func (s *Server) finish(flops int64) {
	s.mu.Lock()
	s.inflight--
	s.inflightFlops -= flops
	s.mu.Unlock()
	s.wg.Done()
}

// commitLocked applies an admitted task's route to its breaker (a spent
// cooldown job, the probe in flight) and to the routing counters. Only
// a task that is sized and in commits, so a rejected one cannot wedge
// a probe.
func (s *Server) commitLocked(t *task) {
	if t.degraded {
		s.metrics.Add(metrics.CounterServeDegraded, 1)
	}
	if t.probe {
		s.metrics.Add(metrics.CounterServeBreakerProbes, 1)
	}
	if br := s.breakerFor(t.requested); br != nil {
		br.committed(t.degraded, t.probe)
	}
}

// jobOptions is the server base with every field the job sets (to a
// non-zero value) laid over it, for Submit, HTTP multiplies and batch
// nodes alike. The metrics collector is per-job, never the base's: a
// job that brings its own keeps it (its spans stay readable by the
// caller), everyone else gets a fresh one in newTask.
func (s *Server) jobOptions(job Job) *spgemm.RunOptions {
	o := s.cfg.Base
	o.Metrics = nil
	if job.Opts != nil {
		base, set := reflect.ValueOf(&o).Elem(), reflect.ValueOf(job.Opts).Elem()
		for i := 0; i < set.NumField(); i++ {
			if f := set.Field(i); !f.IsZero() {
				base.Field(i).Set(f)
			}
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
	if name == fallbackEngine || !spgemm.DeviceBacked(name) {
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

// acquire waits for a free run slot; false means the drain deadline
// came first.
func (s *Server) acquire() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	case <-s.abandoned:
		return false
	}
}

// execute computes t, gives back its run slot when held says it has
// one, and settles the outcome. A task without a slot only ever gets
// here past the drain deadline, where run resolves it abandoned.
func (s *Server) execute(t *task, held bool) *Result {
	res := s.run(t)
	if held {
		<-s.slots
	}
	s.mu.Lock()
	s.settleLocked(t, res)
	s.mu.Unlock()
	return res
}

// run computes one task, converting an engine panic into a typed
// per-job error instead of crashing the caller.
func (s *Server) run(t *task) *Result {
	res := &Result{
		Requested: t.requested, Engine: t.engine,
		Degraded: t.degraded, Probe: t.probe, Cost: t.cost, job: t,
	}
	if s.Abandoning() {
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
	res.Snapshot = t.opts.Metrics.Snapshot()
	return res
}

// settleLocked publishes a finished task's outcome counters,
// aggregates its recovery/plan-cache/identity counters, and feeds its
// recovery signal to the engine's breaker. It does NOT touch the
// admission accounting: finish does that per unit, and a batch is one
// unit whose nodes each settle here.
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

// Drain shuts the server down gracefully: stop admitting, let running
// jobs and those waiting for a run slot finish within the deadline (0
// means the configured DrainTimeout), abandon whatever the deadline
// catches still waiting, and return the final metrics snapshot.
// Abandoned jobs resolve with an error wrapping faults.ErrDeadline.
// Drain is idempotent; every call waits for every admitted job and
// batch and returns the snapshot.
func (s *Server) Drain(timeout time.Duration) map[string]int64 {
	if timeout <= 0 {
		timeout = s.cfg.DrainTimeout
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		s.abandonOnce.Do(func() { close(s.abandoned) })
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

// Counters is Snapshot: the server's /metricsz counters.
func (s *Server) Counters() map[string]int64 { return s.Snapshot() }

// StoreMatrix uploads a matrix into the content-addressed store and
// returns its handle. Identical content is idempotent.
func (s *Server) StoreMatrix(m *spgemm.Matrix) (string, error) {
	h, _, err := s.store.put(m, nil)
	return h, err
}

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

// Abandoning reports whether the drain deadline has passed and jobs
// still waiting for a run slot are being abandoned rather than run.
func (s *Server) Abandoning() bool {
	select {
	case <-s.abandoned:
		return true
	default:
		return false
	}
}

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
