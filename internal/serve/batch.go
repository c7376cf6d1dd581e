package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/csr"
	"repro/internal/metrics"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// SubmitBatch validates, admits and executes one /v1/batch DAG,
// blocking until every node has resolved.
//
// Validation happens before admission and rejects the whole batch with
// a typed BatchError (HTTP 400): an empty or oversized graph,
// duplicate or missing node ids, a reference to an unknown node, a
// dependency cycle, or an operand shape mismatch anywhere in the DAG
// (output shapes are statically known — rows(A)×cols(B) — so the whole
// chain is checked without running anything).
//
// Admission is one decision for the whole DAG: the summed per-node
// flop estimate (upstream outputs estimated through the standard
// row-product model) is weighed against the inflight budget exactly
// like a single job's cost, and the batch is shed with OverloadError
// or rejected with DrainingError as a unit.
//
// Execution pipelines the DAG: min(MaxConcurrent, nodes) goroutines
// start nodes as their dependencies resolve, each node computing in one
// of the server's run slots and its output living in an in-flight
// namespace its consumers read directly — no round trip through the
// matrix store unless the node asked for `store: true`. Nodes sharing a structural fingerprint pair are
// grouped: the first of a group runs the cold symbolic phase alone,
// the rest wait for its plan and replay numeric-only via the shared
// plan cache.
//
// Failure is partial and the response is always complete: a node that
// cannot resolve its handle fails alone (code unknown_handle), a
// panicking or erroring engine fails its node (the envelope carries
// the taxonomy code), and every node downstream of a failure is
// skipped with code upstream_failed naming the dependency. An
// admitted batch never turns into an HTTP error.
func (s *Server) SubmitBatch(req *apiv1.BatchRequest) (*apiv1.BatchResponse, error) {
	nodes, pinned, total, err := s.planBatch(req)
	if err != nil {
		return nil, err
	}
	// Handle operands stay pinned in the matrix store for the batch's
	// lifetime: concurrent uploads cannot evict a pattern (or its cached
	// plans) out from under an admitted-but-unfinished node.
	defer s.store.unpinAll(pinned)

	// The batch holds one admission unit for its whole flop estimate.
	s.mu.Lock()
	if err := s.admitLocked(total); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.acceptLocked(total)
	s.metrics.Add(metrics.CounterServeBatchesAccepted, 1)
	s.metrics.Add(metrics.CounterServeAccepted, int64(len(nodes)))
	s.mu.Unlock()
	defer func() {
		s.metrics.Add(metrics.CounterServeBatchesCompleted, 1)
		s.finish(total)
	}()

	run := &batchRun{
		s: s, req: req, nodes: nodes,
		results: make([]apiv1.NodeResult, len(nodes)),
		outputs: make([]*Result, len(nodes)),
		ready:   make(chan int, len(nodes)),
		groups:  map[spgemm.PlanKey]chan struct{}{},
	}
	start := time.Now()
	run.execute()
	return run.response(total, time.Since(start)), nil
}

// bnode is one batch node after validation: resolved concrete
// operands, dependency edges, statically propagated output shape and
// the admission flop estimate.
type bnode struct {
	node apiv1.BatchNode
	// a and b are concrete operands (handle or spec); nil when the
	// operand is an upstream node's output. aID and bID are the identity
	// records of handle operands.
	a, b     *spgemm.Matrix
	aID, bID *csr.Identity
	// aFrom/bFrom index the upstream node an operand comes from (-1 for
	// concrete operands).
	aFrom, bFrom int
	// deps lists the distinct upstream indices; pending counts the
	// unresolved ones during execution.
	deps    []int
	pending int
	// consumers counts the nodes reading this node's output, each once
	// (the unresolved ones, during execution): a consumed output's
	// identity is worth asking the plan for.
	consumers int
	// outRows/outCols is the statically known output shape; estFlops
	// the admission estimate (0 when unknowable because an input
	// already failed validation).
	outRows, outCols int
	estNnz           float64
	estFlops         int64
	// failed carries a validation-time per-node failure (unknown
	// handle, bad spec): the node is admitted but resolves failed, and
	// its downstream resolves skipped.
	failed *apiv1.ErrorResponse
	// shapeKnown marks nodes whose operand shapes all resolved (false
	// only downstream of a validation failure).
	shapeKnown bool
}

// planBatch validates the DAG and computes the admission estimate.
// Whole-batch rejections return a *BatchError; per-node problems
// (unknown handle, bad spec) are recorded on the node and surface as
// node statuses after execution. Every handle operand that resolved is
// pinned in the store; the returned pinned list is the caller's
// obligation to unpin (planBatch unpins itself on whole-batch errors).
func (s *Server) planBatch(req *apiv1.BatchRequest) ([]*bnode, []string, int64, error) {
	if req == nil || len(req.Nodes) == 0 {
		return nil, nil, 0, &BatchError{Code: apiv1.CodeInvalidDAG, Reason: "batch has no nodes"}
	}
	if len(req.Nodes) > apiv1.MaxBatchNodes {
		return nil, nil, 0, &BatchError{
			Code:   apiv1.CodeInvalidDAG,
			Reason: fmt.Sprintf("%d nodes exceed the %d-node cap", len(req.Nodes), apiv1.MaxBatchNodes),
		}
	}
	index := make(map[string]int, len(req.Nodes))
	for i, n := range req.Nodes {
		if n.ID == "" {
			return nil, nil, 0, &BatchError{Code: apiv1.CodeInvalidDAG, Reason: fmt.Sprintf("node %d has an empty id", i)}
		}
		if _, dup := index[n.ID]; dup {
			return nil, nil, 0, &BatchError{Code: apiv1.CodeInvalidDAG, Node: n.ID, Reason: "duplicate node id"}
		}
		index[n.ID] = i
	}

	var pinned []string
	fail := func(err error) ([]*bnode, []string, int64, error) {
		s.store.unpinAll(pinned)
		return nil, nil, 0, err
	}
	nodes := make([]*bnode, len(req.Nodes))
	for i, n := range req.Nodes {
		bn := &bnode{node: n, aFrom: -1, bFrom: -1}
		var err error
		if bn.a, bn.aID, bn.aFrom, err = s.resolveOperand(n.A, n.ID, "a", index, bn, &pinned); err != nil {
			return fail(err)
		}
		b := n.B
		if b == nil {
			// B defaults to the same operand as A (the A·A convention).
			b = &n.A
		}
		if bn.b, bn.bID, bn.bFrom, err = s.resolveOperand(*b, n.ID, "b", index, bn, &pinned); err != nil {
			return fail(err)
		}
		seen := map[int]bool{}
		for _, from := range []int{bn.aFrom, bn.bFrom} {
			if from >= 0 && !seen[from] {
				seen[from] = true
				bn.deps = append(bn.deps, from)
			}
		}
		nodes[i] = bn
	}

	order, err := topoOrder(nodes)
	if err != nil {
		return fail(err)
	}
	for _, bn := range nodes {
		for _, d := range bn.deps {
			nodes[d].consumers++
		}
	}

	// Shape propagation in topological order: every output shape is
	// rows(A)×cols(B), so the whole chain is checked statically. A
	// validation-failed input makes downstream shapes unknowable; those
	// nodes skip the check (they resolve skipped, never run).
	var total int64
	for _, i := range order {
		bn := nodes[i]
		if bn.failed != nil {
			// A validation-failed operand (unknown handle, bad spec) has no
			// shape to propagate; the node resolves failed, downstream skips.
			continue
		}
		aRows, aCols, aNnz, aOK := operandShape(bn.a, bn.aFrom, nodes)
		bRows, bCols, bNnz, bOK := operandShape(bn.b, bn.bFrom, nodes)
		if !aOK || !bOK {
			continue
		}
		if aCols != bRows {
			return fail(&BatchError{
				Code: apiv1.CodeShapeMismatch, Node: bn.node.ID,
				Reason: fmt.Sprintf("a is %dx%d but b is %dx%d", aRows, aCols, bRows, bCols),
			})
		}
		bn.outRows, bn.outCols, bn.shapeKnown = aRows, bCols, true
		// The standard row-product estimate: each nonzero of A meets the
		// average B row. Upstream outputs carry their own estimate.
		est := 2 * aNnz * bNnz / float64(max(bRows, 1))
		bn.estFlops = int64(est)
		bn.estNnz = est / 2
		if dense := float64(bn.outRows) * float64(bn.outCols); bn.estNnz > dense {
			bn.estNnz = dense
		}
		total += bn.estFlops
	}
	return nodes, pinned, total, nil
}

// resolveOperand checks the exactly-one-field rule, resolves node
// references against the id index, and materializes concrete operands
// (a handle's with the identity record the store minted for it).
// Handle misses and spec errors are per-node failures recorded on bn;
// structural problems (no field, two fields, unknown node id) reject
// the whole batch.
func (s *Server) resolveOperand(op apiv1.Operand, nodeID, side string, index map[string]int, bn *bnode, pinned *[]string) (*spgemm.Matrix, *csr.Identity, int, error) {
	set := 0
	if op.Handle != "" {
		set++
	}
	if op.Node != "" {
		set++
	}
	if op.Spec != nil {
		set++
	}
	if set != 1 {
		return nil, nil, -1, &BatchError{
			Code: apiv1.CodeInvalidDAG, Node: nodeID,
			Reason: fmt.Sprintf("operand %s must set exactly one of handle, node, spec (got %d)", side, set),
		}
	}
	switch {
	case op.Node != "":
		from, ok := index[op.Node]
		if !ok {
			return nil, nil, -1, &BatchError{
				Code: apiv1.CodeInvalidDAG, Node: nodeID,
				Reason: fmt.Sprintf("operand %s references unknown node %q", side, op.Node),
			}
		}
		return nil, nil, from, nil
	case op.Handle != "":
		// Resolve-and-pin in one store critical section: from here until
		// the batch finishes, eviction pressure cannot drop this handle.
		m, id, ok := s.store.getPin(op.Handle)
		if !ok {
			bn.fail(apiv1.CodeUnknownHandle, (&UnknownHandleError{Handle: op.Handle}).Error())
			return nil, nil, -1, nil
		}
		*pinned = append(*pinned, op.Handle)
		return m, id, -1, nil
	default:
		m, err := op.Spec.Build()
		if err != nil {
			bn.fail(apiv1.CodeBadRequest, err.Error())
			return nil, nil, -1, nil
		}
		return m, nil, -1, nil
	}
}

// fail records the first validation failure of a node.
func (bn *bnode) fail(code, msg string) {
	if bn.failed == nil {
		bn.failed = &apiv1.ErrorResponse{Code: code, Error: msg}
	}
}

// operandShape reports an operand's dimensions and (estimated) nnz:
// exact for concrete matrices, propagated for upstream outputs, ok
// false when the upstream shape is unknowable.
func operandShape(m *spgemm.Matrix, from int, nodes []*bnode) (rows, cols int, nnz float64, ok bool) {
	if m != nil {
		return m.Rows, m.Cols, float64(m.Nnz()), true
	}
	up := nodes[from]
	if !up.shapeKnown {
		return 0, 0, 0, false
	}
	return up.outRows, up.outCols, up.estNnz, true
}

// topoOrder returns a topological order of the nodes (Kahn), or a
// BatchError naming a node on a cycle.
func topoOrder(nodes []*bnode) ([]int, error) {
	pending := make([]int, len(nodes))
	dependents := make([][]int, len(nodes))
	for i, bn := range nodes {
		pending[i] = len(bn.deps)
		for _, d := range bn.deps {
			dependents[d] = append(dependents[d], i)
		}
	}
	var order []int
	var queue []int
	for i := range nodes {
		if pending[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, d := range dependents[i] {
			if pending[d]--; pending[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(order) < len(nodes) {
		for i, bn := range nodes {
			if pending[i] > 0 {
				return nil, &BatchError{Code: apiv1.CodeInvalidDAG, Node: bn.node.ID, Reason: "dependency cycle"}
			}
		}
	}
	return order, nil
}

// batchRun is the execution state of one admitted batch.
type batchRun struct {
	s     *Server
	req   *apiv1.BatchRequest
	nodes []*bnode

	mu       sync.Mutex
	results  []apiv1.NodeResult
	outputs  []*Result // until the output's last consumer resolves
	resolved int
	groups   map[spgemm.PlanKey]chan struct{}

	ready chan int
}

// execute runs the DAG to completion on min(MaxConcurrent, nodes)
// goroutines that take ready nodes in order, releasing each node the
// moment its dependencies resolve. A node takes a run slot only to
// compute, never while it waits for a dependency or its plan group.
func (r *batchRun) execute() {
	for i, bn := range r.nodes {
		bn.pending = len(bn.deps)
		if bn.pending == 0 {
			r.ready <- i
		}
	}
	workers := min(r.s.cfg.MaxConcurrent, len(r.nodes))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range r.ready {
				res, out := r.runNode(i)
				r.resolve(i, res, out)
			}
		}()
	}
	wg.Wait()
}

// resolve publishes a node's result and releases its dependents; the
// last resolution closes the ready channel and ends the pool. An output
// whose consumers have all resolved leaves the run (Result.release).
func (r *batchRun) resolve(i int, res apiv1.NodeResult, out *Result) {
	var unblocked []int
	var unread []*Result
	r.mu.Lock()
	r.results[i], r.outputs[i] = res, out
	r.resolved++
	for _, d := range r.nodes[i].deps {
		r.nodes[d].consumers--
	}
	for _, d := range append([]int{i}, r.nodes[i].deps...) {
		if r.nodes[d].consumers == 0 && r.outputs[d] != nil {
			unread = append(unread, r.outputs[d])
			r.outputs[d] = nil
		}
	}
	for j, bn := range r.nodes {
		for _, d := range bn.deps {
			if d == i {
				if bn.pending--; bn.pending == 0 {
					unblocked = append(unblocked, j)
				}
				break
			}
		}
	}
	done := r.resolved == len(r.nodes)
	r.mu.Unlock()
	for _, out := range unread {
		out.release()
	}
	for _, j := range unblocked {
		r.ready <- j
	}
	if done {
		close(r.ready)
	}
}

// runNode executes one ready node: skip on failed upstream, route and
// size it as admit does, serialize the cold symbolic phase within its
// plan group, compute in a run slot with full per-job isolation,
// optionally persist. A node's output carries its identity record (the
// plan's, when the product came from a cached plan) to its consumers
// and into the store, so a chain over one pattern validates and hashes
// nothing past its first cold product.
func (r *batchRun) runNode(i int) (apiv1.NodeResult, *Result) {
	s := r.s
	bn := r.nodes[i]
	res := apiv1.NodeResult{ID: bn.node.ID}
	if bn.failed != nil {
		res.Status = apiv1.StatusFailed
		res.Error = bn.failed
		return res, nil
	}
	// A failed or skipped dependency skips this node before any work.
	r.mu.Lock()
	for _, d := range bn.deps {
		if r.results[d].Status != apiv1.StatusOK {
			dep := r.nodes[d].node.ID
			r.mu.Unlock()
			res.Status = apiv1.StatusSkipped
			res.Error = &apiv1.ErrorResponse{
				Code:  apiv1.CodeUpstreamFailed,
				Error: fmt.Sprintf("serve: upstream node %q did not complete", dep),
			}
			return res, nil
		}
	}
	a, aID, b, bID := bn.a, bn.aID, bn.b, bn.bID
	if a == nil {
		a, aID = r.outputs[bn.aFrom].C, r.outputs[bn.aFrom].CID
	}
	if b == nil {
		b, bID = r.outputs[bn.bFrom].C, r.outputs[bn.bFrom].CID
	}
	r.mu.Unlock()

	engine := bn.node.Engine
	if engine == "" {
		engine = r.req.Engine
	}
	opts := s.jobOptions(Job{Opts: &spgemm.RunOptions{
		DeadlineSec: r.req.DeadlineSec,
		Threads:     r.req.Threads,
		NumGPUs:     r.req.NumGPUs,
	}})
	opts.AID, opts.BID = aID, bID
	t := newTask(engine, a, b, opts, bn.consumers > 0 || bn.node.Store)
	fail := func(err error) (apiv1.NodeResult, *Result) {
		res.Status = apiv1.StatusFailed
		res.Error = &apiv1.ErrorResponse{Code: ErrorCode(err), Error: err.Error()}
		return res, nil
	}
	s.mu.Lock()
	err := s.routeLocked(t)
	if err == nil {
		s.commitLocked(t)
	}
	s.mu.Unlock()
	if err != nil {
		return fail(err)
	}

	if release := r.acquireGroup(a, b, opts); release != nil {
		defer release()
	}
	out := s.execute(t, s.acquire())
	res.Engine, res.Degraded = out.Engine, out.Degraded
	if out.Err != nil {
		return fail(out.Err)
	}
	res.Status = apiv1.StatusOK
	res.Rows, res.Cols, res.NnzC = out.C.Rows, out.C.Cols, out.C.Nnz()
	res.Flops = t.cost.Flops
	if out.Report != nil {
		res.Seconds = out.Report.Seconds()
	}
	res.PlanCacheHit = out.Snapshot[metrics.CounterPlanCacheHits] > 0
	if bn.node.Store {
		handle, adopted, err := s.store.put(out.C, out.CID)
		if err != nil {
			return fail(err)
		}
		if adopted {
			out.job = nil // a stored array is never released
		}
		res.Handle = handle
	}
	return res, out
}

// acquireGroup serializes the cold symbolic phase within a plan group:
// the first node of a group (nodes under one spgemm.PlanKey)
// runs alone and the rest wait for its plan, so an N-node group pays
// one cold symbolic phase and N-1 numeric-only replays. Groups whose
// pattern is already warm in the shared cache — and nodes not using it
// (fault-injected bases, disabled cache) — skip serialization. The
// returned release is nil when no serialization happened; a leader's
// release opens the group even if its run failed (followers then race
// cold, which the cache's first-store-wins handles).
func (r *batchRun) acquireGroup(a, b *spgemm.Matrix, opts *spgemm.RunOptions) func() {
	plans := r.s.plans
	if plans == nil || opts.PlanCache != plans {
		return nil
	}
	key := opts.PlanKey(a, b)
	if plans.HasPlan(key) {
		return nil
	}
	r.mu.Lock()
	gate, ok := r.groups[key]
	if !ok {
		gate = make(chan struct{})
		r.groups[key] = gate
		r.mu.Unlock()
		return func() { close(gate) } // leader
	}
	r.mu.Unlock()
	<-gate
	return nil
}

// response assembles the batch response: per-node results in request
// order plus batch-level accounting.
func (r *batchRun) response(total int64, elapsed time.Duration) *apiv1.BatchResponse {
	resp := &apiv1.BatchResponse{
		Nodes:          r.results,
		Seconds:        elapsed.Seconds(),
		EstimatedFlops: total,
	}
	for i := range r.results {
		switch r.results[i].Status {
		case apiv1.StatusOK:
			resp.Completed++
			if r.results[i].PlanCacheHit {
				resp.PlanCacheHits++
			} else {
				resp.PlanCacheMisses++
			}
		case apiv1.StatusFailed:
			resp.Failed++
		default:
			resp.Skipped++
		}
	}
	if n := resp.PlanCacheHits + resp.PlanCacheMisses; n > 0 {
		resp.PlanCacheHitRate = float64(resp.PlanCacheHits) / float64(n)
	}
	if resp.Skipped > 0 {
		r.s.metrics.Add(metrics.CounterServeBatchSkipped, int64(resp.Skipped))
	}
	return resp
}
