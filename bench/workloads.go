package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/serve"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// A workload is one set of seeded inputs plus the operation a client
// repeats on them. The table is the benchmark's vocabulary: later
// issues refer to workloads by these names.
type workload struct {
	name string
	why  string
	// http workloads are driven by min(2, nproc) closed-loop clients on
	// keep-alive connections; library workloads by one caller.
	http bool
	// gen makes the inputs from the seed with the public generators;
	// setup starts whatever serves them. Both count towards setup_s.
	gen   func(seed int64) (*inputSet, error)
	setup func(in *inputSet, clients int) (*instance, error)
}

// inputSet is everything a workload generates from the seed. The
// program under test receives the matrices, never the seed.
type inputSet struct {
	mats  []*spgemm.Matrix // the distinct generated matrices
	rungs []rung           // lib_cold_ladder: the operand pair of each rung
	sec   float64          // generator wall time
}

// fingerprint hashes the structure and values of every generated
// matrix: equal for equal seeds, different otherwise.
func (in *inputSet) fingerprint() uint64 {
	var h uint64
	for _, m := range in.mats {
		h = mix(mix(h, spgemm.Fingerprint(m)), spgemm.FingerprintValues(m))
	}
	return h
}

// edges counts the generated non-zeros.
func (in *inputSet) edges() int64 {
	var n int64
	for _, m := range in.mats {
		n += m.Nnz()
	}
	return n
}

// generate times gen building n matrices.
func generate(n int, gen func(i int) *spgemm.Matrix) *inputSet {
	t0 := time.Now()
	in := &inputSet{mats: make([]*spgemm.Matrix, n)}
	for i := range in.mats {
		in.mats[i] = gen(i)
	}
	in.sec = time.Since(t0).Seconds()
	return in
}

var workloads = []workload{
	{name: "lib_cold_ladder", gen: genColdLadder, setup: setupColdLadder,
		why: "kernel layers do all the work, no serving: five cold cpu-engine products chosen so each kernel class (dense, hash, cseg, list) dominates one rung"},
	{name: "lib_hybrid_ooc", gen: genHybridOOC, setup: setupHybridOOC,
		why: "the paper's out-of-core CPU-GPU path (partition, core, gpusim, speck, hybrid, assemble) on a 4 MiB device, which uses the row kernel through speck, not cpuspgemm"},
	{name: "serve_small_warm", http: true, gen: genServeSmallWarm, setup: setupServeSmallWarm,
		why: "short warm handle multiplies over HTTP: per-request fixed cost (apiv1, serve, plan-cache hit) is a large share, so a kernel-only change must not move it much"},
	{name: "serve_payload_cold", http: true, gen: genServePayloadCold, setup: setupServePayloadCold,
		why: "upload, multiply with store_c, fetch and delete of never-seen matrices: JSON encode/decode, validation, fingerprints, store churn and plan-cache misses; the kernel is a small share"},
	{name: "cluster_batch_chain", http: true, gen: genClusterBatchChain, setup: setupClusterBatchChain,
		why: "a 4-node A^2..A^5 batch DAG through a coordinator over 3 remote replicas: prices the coordinator hop and the batch planner on a warm numeric kernel at 50 ms or more per op"},
}

// clients is the number of closed-loop callers that drive the workload.
func (w workload) clients() int {
	if w.http {
		return clientCount()
	}
	return 1
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opCtx identifies one operation of one closed-loop caller and carries
// the tracer (nil on untraced runs) with the operation's root span.
type opCtx struct {
	client int // which caller
	iter   int // that caller's operation counter
	tr     *tracer
	root   int
	op     int64
}

// span opens a child span of the operation and returns its closer.
func (c *opCtx) span(name string) func() {
	if c == nil || c.tr == nil {
		return func() {}
	}
	id := c.tr.begin(name, c.root, c.op, c.client)
	return func() { c.tr.end(id) }
}

// opResult is what one operation reports beside its latency. check,
// when non-nil, is the operation's output verification; the runner
// calls it after the latency clock has stopped and counts an error as
// a failed operation.
type opResult struct {
	engineSec float64 // engine seconds the responses reported (0 for library ops)
	// dur, when non-zero, replaces the measured wall time: used where a
	// layer reports its own time (summed batch node seconds).
	dur   time.Duration
	check func() error
}

// entry performs one operation from some public entry point down.
type entry func(c *opCtx) (opResult, error)

// level is one public entry point an operation can be replayed at.
type level struct {
	name string
	call entry
}

// instance is a set-up workload: servers listening, handles uploaded,
// every distinct pattern run once cold.
type instance struct {
	clients    int
	in         *inputSet
	flopsPerOp float64 // mean multiply-add flops (x2) of one operation

	op entry
	// verify builds the local references, checks the cold results of
	// set-up against them and, when full, checks the references against
	// cpuspgemm.Sequential. It runs outside every clock.
	verify func(full bool) error
	// refFingerprint hashes the verified references; rounds of one
	// invocation regenerate identical inputs, so later rounds require
	// it unchanged instead of repeating the Sequential check.
	refFingerprint func() uint64
	// counters returns the serving counters the diagnostics are
	// derived from (nil for library workloads).
	counters func() map[string]int64
	// ladder lists deeper entry points of the same operation,
	// outermost first; the operation itself is the implicit top.
	ladder []level
	close  func()
}

// mix folds a value into a running 64-bit hash (splitmix64 finalizer).
func mix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// subSeed derives the k-th generator seed of a workload from the
// benchmark seed.
func subSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// product is a verified reference product and what a timed operation
// is compared against.
type product struct {
	c       *spgemm.Matrix
	nnz     int64
	fp, fpv uint64
	flops   int64
	handle  string
}

func newProduct(a, b, c *spgemm.Matrix) *product {
	p := &product{c: c, nnz: c.Nnz(), fp: spgemm.Fingerprint(c), fpv: spgemm.FingerprintValues(c), flops: spgemm.Flops(a, b)}
	p.handle = contentHandle(p.fp, p.fpv)
	return p
}

// contentHandle is the handle the matrix store gives content with these
// two fingerprints. serve keeps its formatter private, so the format is
// repeated here; upload holds every handle a server returns against it,
// so a change of format stops set-up instead of failing every operation.
func contentHandle(fp, fpv uint64) string { return fmt.Sprintf("m-%016x%016x", fp, fpv) }

// same reports whether c is bit-identical to the reference.
func (p *product) same(c *spgemm.Matrix) error {
	if c.Nnz() != p.nnz || spgemm.Fingerprint(c) != p.fp || spgemm.FingerprintValues(c) != p.fpv {
		return fmt.Errorf("product differs from reference (nnz %d vs %d)", c.Nnz(), p.nnz)
	}
	return nil
}

// againstSequential checks a reference product against the repository's
// ground truth: values within 1e-9, structure exact.
func againstSequential(a, b *spgemm.Matrix, p *product) error {
	seq, err := cpuspgemm.Sequential(a, b)
	if err != nil {
		return err
	}
	if spgemm.Fingerprint(seq) != p.fp {
		return fmt.Errorf("reference structure differs from cpuspgemm.Sequential")
	}
	if !csr.Equal(p.c, seq, 1e-9) {
		return fmt.Errorf("reference values differ from cpuspgemm.Sequential: %s", csr.Diff(p.c, seq, 1e-9))
	}
	return nil
}

// forEach calls fn(0) .. fn(n-1) from one goroutine per processor and
// returns their errors joined. Verification uses it: it runs outside
// every clock, while clients and servers are idle, and the products of
// different inputs are independent.
func forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// meanFlops is the mean flop count of the reference products.
func meanFlops(refs []*product) float64 {
	var f float64
	for _, r := range refs {
		f += float64(r.flops) / float64(len(refs))
	}
	return f
}

var libOpts = spgemm.RunOptions{Threads: 1}

func mustEngine(name string) spgemm.Engine {
	e, err := spgemm.ByName(name)
	if err != nil {
		panic(err)
	}
	return e
}

// ---- lib_cold_ladder ----

type rung struct {
	name string
	a, b *spgemm.Matrix
	ref  *product
}

var rungNames = []string{"rmat", "er", "tallskinny", "band_wide", "stencil"}

// genColdLadder generates the five kernel-class rungs. Sizes are fixed;
// only the random structure and values depend on the seed. The rungs
// are cut to a few thousand output rows so a pass stays near 50 ms and
// a run yields well over the 100 samples p90 needs even in a slow phase
// of the host. The er and
// tallskinny products keep 2^14 columns because that width is what
// sends their rows to the hash class (at 2^13 columns the dense
// accumulator takes them); band_wide keeps B just over 2^16 columns
// because only such widths run cseg in both phases.
func genColdLadder(seed int64) (*inputSet, error) {
	const width = 1 << 14
	const bandWidth = 17 << 12 // 69632: just over the 2^16 columns above which cseg runs both phases
	t0 := time.Now()
	rmat := spgemm.RMAT(11, 8, 0.57, 0.19, 0.19, subSeed(seed, 1))
	er := spgemm.ER(width, width, 6.0/width, subSeed(seed, 2))
	tall := spgemm.ER(1<<11, 1<<9, 6.0/(1<<9), subSeed(seed, 3))
	skinny := spgemm.ER(1<<9, width, 6.0/width, subSeed(seed, 4))
	band := spgemm.Band(bandWidth, 8, subSeed(seed, 5))
	stencil := spgemm.Stencil2D(128, 128)
	in := &inputSet{mats: []*spgemm.Matrix{rmat, er, tall, skinny, band, stencil}, sec: time.Since(t0).Seconds()}
	erTop, err := er.ExtractRows(0, 1<<11)
	if err != nil {
		return nil, err
	}
	bandTop, err := band.ExtractRows(0, 1<<12)
	if err != nil {
		return nil, err
	}
	in.rungs = []rung{
		{name: "rmat", a: rmat, b: rmat},
		{name: "er", a: erTop, b: er},
		{name: "tallskinny", a: tall, b: skinny},
		{name: "band_wide", a: bandTop, b: band},
		{name: "stencil", a: stencil, b: stencil},
	}
	return in, nil
}

func setupColdLadder(in *inputSet, _ int) (*instance, error) {
	rungs := in.rungs
	inst := &instance{clients: 1, in: in}
	eng := mustEngine("cpu")
	for i := range rungs {
		r := &rungs[i]
		c, _, err := eng.Run(r.a, r.b, &libOpts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		r.ref = newProduct(r.a, r.b, c)
		inst.flopsPerOp += float64(r.ref.flops)
	}
	inst.verify = func(full bool) error {
		if !full {
			return nil
		}
		for i := range rungs {
			if err := againstSequential(rungs[i].a, rungs[i].b, rungs[i].ref); err != nil {
				return fmt.Errorf("%s: %w", rungs[i].name, err)
			}
		}
		return nil
	}
	inst.refFingerprint = func() uint64 {
		var h uint64
		for i := range rungs {
			h = mix(mix(h, rungs[i].ref.fp), rungs[i].ref.fpv)
		}
		return h
	}
	inst.op = func(c *opCtx) (opResult, error) {
		out := make([]*spgemm.Matrix, len(rungs))
		for i := range rungs {
			end := c.span("spgemm.Engine.Run:" + rungs[i].name)
			m, _, err := eng.Run(rungs[i].a, rungs[i].b, &libOpts)
			end()
			if err != nil {
				return opResult{}, err
			}
			out[i] = m
		}
		return opResult{check: func() error {
			for i := range rungs {
				if err := rungs[i].ref.same(out[i]); err != nil {
					return fmt.Errorf("%s: %w", rungs[i].name, err)
				}
			}
			return nil
		}}, nil
	}
	inst.ladder = []level{{name: "cpuspgemm.MultiplyPlanned", call: func(c *opCtx) (opResult, error) {
		for i := range rungs {
			end := c.span("cpuspgemm.MultiplyPlanned:" + rungs[i].name)
			_, _, err := cpuspgemm.MultiplyPlanned(rungs[i].a, rungs[i].b, cpuspgemm.Options{Threads: 1})
			end()
			if err != nil {
				return opResult{}, err
			}
		}
		return opResult{}, nil
	}}}
	inst.close = func() {}
	return inst, nil
}

// ---- lib_hybrid_ooc ----

// hybridDeviceBytes is small enough that RMAT(10, 24)^2 needs a
// 12-chunk out-of-core grid (4 chunks to the GPU, 8 to the CPU).
const hybridDeviceBytes = 4 << 20

func genHybridOOC(seed int64) (*inputSet, error) {
	return generate(1, func(int) *spgemm.Matrix { return spgemm.RMAT(10, 24, 0.57, 0.19, 0.19, subSeed(seed, 1)) }), nil
}

func hybridOpts() *spgemm.RunOptions {
	dev := spgemm.V100WithMemory(hybridDeviceBytes)
	return &spgemm.RunOptions{Threads: 1, Device: &dev}
}

func setupHybridOOC(in *inputSet, _ int) (*instance, error) {
	a := in.mats[0]
	inst := &instance{clients: 1, in: in}
	eng := mustEngine("hybrid")
	c, _, err := eng.Run(a, a, hybridOpts())
	if err != nil {
		return nil, err
	}
	ref := newProduct(a, a, c)
	inst.flopsPerOp = float64(ref.flops)
	inst.verify = func(full bool) error {
		if !full {
			return nil
		}
		return againstSequential(a, a, ref)
	}
	inst.refFingerprint = func() uint64 { return mix(mix(0, ref.fp), ref.fpv) }
	inst.op = func(c *opCtx) (opResult, error) {
		m, _, err := eng.Run(a, a, hybridOpts())
		if err != nil {
			return opResult{}, err
		}
		return opResult{check: func() error { return ref.same(m) }}, nil
	}
	inst.ladder = []level{{name: "hybrid.parts", call: func(c *opCtx) (opResult, error) {
		return opResult{}, hybridParts(c, a)
	}}}
	inst.close = func() {}
	return inst, nil
}

// ---- servers ----

// replica is one serve.Server on a real loopback socket.
type replica struct {
	srv *serve.Server
	ts  *httptest.Server
}

// newReplica starts a server with the configuration every serving
// workload uses: two workers, single-threaded kernels.
func newReplica() *replica {
	srv := serve.New(serve.Config{MaxConcurrent: 2, Base: spgemm.RunOptions{Threads: 1}})
	return &replica{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

func (r *replica) close() {
	r.ts.Close()
	r.srv.Drain(5 * time.Second)
}

// newClient returns an API client holding one keep-alive connection,
// optionally counting the body bytes it sends and receives.
func newClient(baseURL string, wire *wireCounter) *apiv1.Client {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	if wire != nil {
		rt = &countingTransport{inner: rt, wire: wire}
	}
	return &apiv1.Client{BaseURL: baseURL, HTTP: &http.Client{Transport: rt, Timeout: 2 * time.Minute}}
}

func closeClients(cs []*apiv1.Client) {
	for _, c := range cs {
		c.HTTP.CloseIdleConnections()
	}
}

// clientCount clamps the closed-loop client count of the serving
// workloads to the processors the host actually has.
func clientCount() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// upload stores a matrix as a raw CSR payload: servers only ever see
// generated data, never the seed.
func upload(cl *apiv1.Client, m *spgemm.Matrix) (string, error) {
	resp, err := cl.StoreMatrix(apiv1.MatrixRequest{Data: apiv1.MatrixDataFrom(m)})
	if err != nil {
		return "", err
	}
	if want := contentHandle(spgemm.Fingerprint(m), spgemm.FingerprintValues(m)); resp.Handle != want {
		return "", fmt.Errorf("server stored the matrix as %s, the benchmark computes %s: the content-handle format changed", resp.Handle, want)
	}
	return resp.Handle, nil
}

// localProduct multiplies with the plain cpu engine, the reference of
// every serving workload.
func localProduct(a, b *spgemm.Matrix) (*product, error) {
	c, _, err := mustEngine("cpu").Run(a, b, &libOpts)
	if err != nil {
		return nil, err
	}
	return newProduct(a, b, c), nil
}

func checkMultiply(resp *apiv1.MultiplyResponse, ref *product, wantHandle bool) error {
	if resp.NnzC != ref.nnz || resp.Flops != ref.flops {
		return fmt.Errorf("response nnz_c=%d flops=%d, reference nnz=%d flops=%d", resp.NnzC, resp.Flops, ref.nnz, ref.flops)
	}
	if wantHandle && resp.CHandle != ref.handle {
		return fmt.Errorf("c_handle %s differs from the reference content handle %s", resp.CHandle, ref.handle)
	}
	return nil
}

// ---- serve_small_warm ----

const smallPatterns = 4

func genServeSmallWarm(seed int64) (*inputSet, error) {
	// BlockDiag's pattern depends only on its shape, so the four
	// patterns differ by block count (n = 4096, 4064, 4032, 4000).
	return generate(smallPatterns, func(i int) *spgemm.Matrix { return spgemm.BlockDiag(512-4*i, 8, subSeed(seed, i)) }), nil
}

func setupServeSmallWarm(in *inputSet, clients int) (*instance, error) {
	inputs := in.mats
	inst := &instance{clients: clients, in: in}
	rep := newReplica()
	cls := make([]*apiv1.Client, clients)
	for i := range cls {
		cls[i] = newClient(rep.ts.URL, nil)
	}
	inst.close = func() { closeClients(cls); rep.close() }
	handles := make([]string, len(inputs))
	cold := make([]*apiv1.MultiplyResponse, len(inputs))
	for i, m := range inputs {
		var err error
		if handles[i], err = upload(cls[0], m); err != nil {
			inst.close()
			return nil, err
		}
		if cold[i], err = cls[0].Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: handles[i]}); err != nil {
			inst.close()
			return nil, err
		}
	}
	refs := make([]*product, len(inputs))
	inst.verify = func(full bool) error {
		err := forEach(len(inputs), func(i int) error {
			m := inputs[i]
			var err error
			if refs[i], err = localProduct(m, m); err != nil {
				return err
			}
			if err := checkMultiply(cold[i], refs[i], false); err != nil {
				return fmt.Errorf("cold multiply %d: %w", i, err)
			}
			if full {
				if err := againstSequential(m, m, refs[i]); err != nil {
					return fmt.Errorf("pattern %d: %w", i, err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		inst.flopsPerOp = meanFlops(refs)
		return nil
	}
	inst.refFingerprint = func() uint64 { return productsHash(refs) }
	pick := func(c *opCtx) int { return (c.iter*clients + c.client) % len(inputs) }
	inst.op = func(c *opCtx) (opResult, error) {
		i := pick(c)
		resp, err := cls[c.client].Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: handles[i]})
		if err != nil {
			return opResult{}, err
		}
		return opResult{engineSec: resp.Seconds, check: func() error { return checkMultiply(resp, refs[i], false) }}, nil
	}
	inst.counters = rep.srv.Snapshot

	// Deeper entry points: the server's Go API, then the engine with a
	// warm plan cache of its own, then the numeric kernel on the cached
	// symbolic structure.
	pc := spgemm.NewPlanCache(0)
	warmOpts := &spgemm.RunOptions{Threads: 1, PlanCache: pc}
	syms := make([]*cpuspgemm.SymbolicResult, len(inputs))
	eng := mustEngine("cpu")
	for i, m := range inputs {
		if _, _, err := eng.Run(m, m, warmOpts); err != nil {
			inst.close()
			return nil, err
		}
		var err error
		if _, syms[i], err = cpuspgemm.MultiplyPlanned(m, m, cpuspgemm.Options{Threads: 1}); err != nil {
			inst.close()
			return nil, err
		}
	}
	inst.ladder = []level{
		{name: "serve.Server.Multiply", call: func(c *opCtx) (opResult, error) {
			_, err := rep.srv.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: handles[pick(c)]})
			return opResult{}, err
		}},
		{name: "spgemm.Engine.Run", call: func(c *opCtx) (opResult, error) {
			m := inputs[pick(c)]
			_, _, err := eng.Run(m, m, warmOpts)
			return opResult{}, err
		}},
		{name: "cpuspgemm.Numeric", call: func(c *opCtx) (opResult, error) {
			i := pick(c)
			_, err := cpuspgemm.Numeric(syms[i], inputs[i], inputs[i], cpuspgemm.Options{Threads: 1})
			return opResult{}, err
		}},
	}
	return inst, nil
}

func productsHash(refs []*product) uint64 {
	var h uint64
	for _, r := range refs {
		h = mix(mix(h, r.fp), r.fpv)
	}
	return h
}

// ---- serve_payload_cold ----

const (
	payloadInputs = 16
	payloadN      = 1 << 12
)

func genServePayloadCold(seed int64) (*inputSet, error) {
	return generate(payloadInputs, func(i int) *spgemm.Matrix {
		return spgemm.ER(payloadN, payloadN, 6.0/payloadN, subSeed(seed, i))
	}), nil
}

func setupServePayloadCold(in *inputSet, clients int) (*instance, error) {
	inputs := in.mats
	inst := &instance{clients: clients, in: in}
	rep := newReplica()
	wire := &wireCounter{}
	inst.counters = func() map[string]int64 {
		snap := rep.srv.Snapshot()
		snap[counterWireBytes] = wire.bytes.Load()
		return snap
	}
	cls := make([]*apiv1.Client, clients)
	for i := range cls {
		cls[i] = newClient(rep.ts.URL, wire)
	}
	inst.close = func() { closeClients(cls); rep.close() }
	refs := make([]*product, len(inputs))
	// Each client cycles through its own share of the inputs, so two
	// clients never upload (and then delete) the same content at once.
	pick := func(c *opCtx) int { return (c.iter*clients + c.client) % len(inputs) }

	type fetched struct {
		mul  *apiv1.MultiplyResponse
		data *apiv1.MatrixData
	}
	httpOp := func(c *opCtx, i int) (fetched, error) {
		cl := cls[c.client]
		end := c.span("http.upload")
		h, err := upload(cl, inputs[i])
		end()
		if err != nil {
			return fetched{}, err
		}
		end = c.span("http.multiply")
		mul, err := cl.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: h, StoreC: true})
		end()
		if err != nil {
			return fetched{}, err
		}
		end = c.span("http.fetch")
		data, err := cl.FetchMatrix(context.Background(), mul.CHandle)
		end()
		if err != nil {
			return fetched{}, err
		}
		end = c.span("http.delete")
		defer end()
		if err := cl.DeleteMatrix(h); err != nil {
			return fetched{}, err
		}
		if err := cl.DeleteMatrix(mul.CHandle); err != nil {
			return fetched{}, err
		}
		return fetched{mul: mul, data: data}, nil
	}
	checkFetched := func(f fetched, ref *product) error {
		if err := checkMultiply(f.mul, ref, true); err != nil {
			return err
		}
		m, err := f.data.Matrix()
		if err != nil {
			return fmt.Errorf("fetched payload: %w", err)
		}
		return ref.same(m)
	}
	// Every operation here is cold by design; set-up runs one per
	// client so connections exist and code paths are faulted in.
	cold := make([]fetched, clients)
	for k := 0; k < clients; k++ {
		var err error
		if cold[k], err = httpOp(&opCtx{client: k}, k%len(inputs)); err != nil {
			inst.close()
			return nil, err
		}
	}
	inst.verify = func(full bool) error {
		err := forEach(len(inputs), func(i int) error {
			m := inputs[i]
			var err error
			if refs[i], err = localProduct(m, m); err != nil {
				return err
			}
			if full {
				if err := againstSequential(m, m, refs[i]); err != nil {
					return fmt.Errorf("input %d: %w", i, err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		inst.flopsPerOp = meanFlops(refs)
		for k := range cold {
			if err := checkFetched(cold[k], refs[k%len(inputs)]); err != nil {
				return fmt.Errorf("cold operation %d: %w", k, err)
			}
		}
		return nil
	}
	inst.refFingerprint = func() uint64 { return productsHash(refs) }
	inst.op = func(c *opCtx) (opResult, error) {
		i := pick(c)
		f, err := httpOp(c, i)
		if err != nil {
			return opResult{}, err
		}
		return opResult{engineSec: f.mul.Seconds, check: func() error { return checkFetched(f, refs[i]) }}, nil
	}
	eng := mustEngine("cpu")
	inst.ladder = []level{
		{name: "serve.Server.ops", call: func(c *opCtx) (opResult, error) {
			// The same five steps through the server's Go API: no
			// sockets, no JSON.
			in := inputs[pick(c)]
			up, err := rep.srv.StoreFromRequest(apiv1.MatrixRequest{Data: apiv1.MatrixDataFrom(in)})
			if err != nil {
				return opResult{}, err
			}
			mul, err := rep.srv.Multiply(apiv1.MultiplyRequest{Engine: "cpu", AHandle: up.Handle, StoreC: true})
			if err != nil {
				return opResult{}, err
			}
			if m, ok := rep.srv.Matrix(mul.CHandle); !ok || apiv1.MatrixDataFrom(m) == nil {
				return opResult{}, fmt.Errorf("stored product %s not found", mul.CHandle)
			}
			rep.srv.DeleteMatrix(up.Handle)
			rep.srv.DeleteMatrix(mul.CHandle)
			return opResult{}, nil
		}},
		{name: "spgemm.Engine.Run", call: func(c *opCtx) (opResult, error) {
			// A fresh plan cache per call reproduces the miss the
			// server takes on a never-seen pattern.
			in := inputs[pick(c)]
			_, _, err := eng.Run(in, in, &spgemm.RunOptions{Threads: 1, PlanCache: spgemm.NewPlanCache(0)})
			return opResult{}, err
		}},
		{name: "cpuspgemm.MultiplyPlanned", call: func(c *opCtx) (opResult, error) {
			in := inputs[pick(c)]
			_, _, err := cpuspgemm.MultiplyPlanned(in, in, cpuspgemm.Options{Threads: 1})
			return opResult{}, err
		}},
	}
	return inst, nil
}

// ---- cluster_batch_chain ----

const (
	clusterReplicas = 3
	clusterHandles  = 6
	chainNodes      = 4 // A^2 .. A^5
)

// chainRequest is the 4-node DAG A^2, A^3, A^4, A^5 over one stored
// handle; only the last node is persisted.
func chainRequest(handle string) apiv1.BatchRequest {
	req := apiv1.BatchRequest{Engine: "cpu"}
	for k := 0; k < chainNodes; k++ {
		node := apiv1.BatchNode{ID: fmt.Sprintf("p%d", k+2), B: &apiv1.Operand{Handle: handle}}
		if k == 0 {
			node.A = apiv1.Operand{Handle: handle}
		} else {
			node.A = apiv1.Operand{Node: fmt.Sprintf("p%d", k+1)}
		}
		node.Store = k == chainNodes-1
		req.Nodes = append(req.Nodes, node)
	}
	return req
}

// chainRef is the local reference of one chain: every node's product.
type chainRef []*product

func localChain(a *spgemm.Matrix) (chainRef, error) {
	ref := make(chainRef, chainNodes)
	cur := a
	for k := range ref {
		p, err := localProduct(cur, a)
		if err != nil {
			return nil, err
		}
		ref[k], cur = p, p.c
	}
	return ref, nil
}

func checkChain(resp *apiv1.BatchResponse, ref chainRef) error {
	if resp.Completed != chainNodes || len(resp.Nodes) != chainNodes {
		return fmt.Errorf("batch completed %d of %d nodes (failed %d, skipped %d)", resp.Completed, chainNodes, resp.Failed, resp.Skipped)
	}
	for k, n := range resp.Nodes {
		if n.Status != apiv1.StatusOK || n.NnzC != ref[k].nnz || n.Flops != ref[k].flops {
			return fmt.Errorf("node %s: status %s nnz_c=%d flops=%d, reference nnz=%d flops=%d", n.ID, n.Status, n.NnzC, n.Flops, ref[k].nnz, ref[k].flops)
		}
	}
	if got, want := resp.Nodes[chainNodes-1].Handle, ref[chainNodes-1].handle; got != want {
		return fmt.Errorf("stored node handle %s differs from the reference content handle %s", got, want)
	}
	return nil
}

func nodeSeconds(resp *apiv1.BatchResponse) float64 {
	var s float64
	for _, n := range resp.Nodes {
		s += n.Seconds
	}
	return s
}

func genClusterBatchChain(seed int64) (*inputSet, error) {
	// Distinct block counts give distinct structural fingerprints, which
	// is what the coordinator's ring routes by (n = 8192, 8160, ... with
	// 32x32 blocks).
	return generate(clusterHandles, func(i int) *spgemm.Matrix { return spgemm.BlockDiag(256-i, 32, subSeed(seed, i)) }), nil
}

func setupClusterBatchChain(in *inputSet, clients int) (*instance, error) {
	inputs := in.mats
	inst := &instance{clients: clients, in: in}

	reps := make([]*replica, clusterReplicas)
	backends := make([]cluster.Backend, clusterReplicas)
	for i := range reps {
		reps[i] = newReplica()
		backends[i] = cluster.NewRemoteReplica(fmt.Sprintf("r%d", i), reps[i].ts.URL, cluster.RemoteConfig{})
	}
	coord := cluster.New(cluster.Config{}, backends...)
	cts := httptest.NewServer(coord.Handler())
	cls := make([]*apiv1.Client, clients)
	for i := range cls {
		cls[i] = newClient(cts.URL, nil)
	}
	var direct []*apiv1.Client // one per client, re-pointed at the owning replica per call
	inst.close = func() {
		closeClients(cls)
		closeClients(direct)
		cts.Close()
		for _, r := range reps {
			r.close()
		}
	}
	handles := make([]string, len(inputs))
	cold := make([]*apiv1.BatchResponse, len(inputs))
	for i, m := range inputs {
		var err error
		if handles[i], err = upload(cls[0], m); err != nil {
			inst.close()
			return nil, err
		}
		if cold[i], err = cls[0].Batch(chainRequest(handles[i])); err != nil {
			inst.close()
			return nil, err
		}
	}
	refs := make([]chainRef, len(inputs))
	inst.verify = func(full bool) error {
		err := forEach(len(inputs), func(i int) error {
			m := inputs[i]
			var err error
			if refs[i], err = localChain(m); err != nil {
				return err
			}
			if err := checkChain(cold[i], refs[i]); err != nil {
				return fmt.Errorf("cold chain %d: %w", i, err)
			}
			if !full {
				return nil
			}
			cur := m
			for k, p := range refs[i] {
				if err := againstSequential(cur, m, p); err != nil {
					return fmt.Errorf("chain %d node %d: %w", i, k, err)
				}
				cur = p.c
			}
			return nil
		})
		if err != nil {
			return err
		}
		inst.flopsPerOp = 0
		for _, chain := range refs {
			inst.flopsPerOp += meanFlops(chain) * chainNodes / float64(len(refs))
		}
		return nil
	}
	inst.refFingerprint = func() uint64 {
		var h uint64
		for _, r := range refs {
			h = mix(h, productsHash(r))
		}
		return h
	}
	pick := func(c *opCtx) int { return (c.iter*clients + c.client) % len(inputs) }
	inst.op = func(c *opCtx) (opResult, error) {
		i := pick(c)
		resp, err := cls[c.client].Batch(chainRequest(handles[i]))
		if err != nil {
			return opResult{}, err
		}
		return opResult{engineSec: nodeSeconds(resp), check: func() error { return checkChain(resp, refs[i]) }}, nil
	}
	inst.counters = coord.Counters

	// The owner of each handle is the replica whose store holds it.
	owner := make([]*replica, len(inputs))
	for i, h := range handles {
		for _, r := range reps {
			if _, ok := r.srv.Matrix(h); ok {
				owner[i] = r
			}
		}
		if owner[i] == nil {
			inst.close()
			return nil, fmt.Errorf("no replica holds handle %s", h)
		}
	}
	direct = make([]*apiv1.Client, clients)
	for i := range direct {
		direct[i] = newClient("", nil)
	}
	inst.ladder = []level{
		{name: "http.replica.batch", call: func(c *opCtx) (opResult, error) {
			i := pick(c)
			cl := *direct[c.client]
			cl.BaseURL = owner[i].ts.URL
			_, err := cl.Batch(chainRequest(handles[i]))
			return opResult{}, err
		}},
		{name: "serve.Server.SubmitBatch", call: func(c *opCtx) (opResult, error) {
			i := pick(c)
			req := chainRequest(handles[i])
			_, err := owner[i].srv.SubmitBatch(&req)
			return opResult{}, err
		}},
		{name: "batch.node_seconds", call: func(c *opCtx) (opResult, error) {
			i := pick(c)
			req := chainRequest(handles[i])
			resp, err := owner[i].srv.SubmitBatch(&req)
			if err != nil {
				return opResult{}, err
			}
			return opResult{dur: time.Duration(nodeSeconds(resp) * float64(time.Second))}, nil
		}},
	}
	return inst, nil
}
