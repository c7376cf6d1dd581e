package serve

import (
	"fmt"

	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// Request-level API: the operations of the HTTP surface as typed Go
// calls speaking the apiv1 wire types. The HTTP handlers are thin
// wrappers over these, and the cluster coordinator's in-process
// replica backend calls them directly — so a replica behind the
// coordinator behaves exactly like a standalone server, including its
// typed error taxonomy (ErrorCode / WriteError map it to the wire).

// Multiply resolves one MultiplyRequest into a Job, submits it, and
// shapes the result. Errors are the scheduler's typed taxonomy
// (OverloadError, QueueFullError, DrainingError, UnknownHandleError,
// ...) plus plain errors for malformed specs.
func (s *Server) Multiply(req apiv1.MultiplyRequest) (*apiv1.MultiplyResponse, error) {
	var a, b *spgemm.Matrix
	var err error
	if req.AHandle == "" {
		if a, err = req.A.Build(); err != nil {
			return nil, err
		}
	}
	bHandle := req.BHandle
	switch {
	case req.B != nil:
		if b, err = req.B.Build(); err != nil {
			return nil, err
		}
	case bHandle == "":
		// B defaults to A, in whichever form A came.
		b, bHandle = a, req.AHandle
	}
	opts := &spgemm.RunOptions{
		DeadlineSec: req.DeadlineSec,
		Threads:     req.Threads,
		NumGPUs:     req.NumGPUs,
	}
	res, err := s.Submit(Job{
		Engine: req.Engine, A: a, B: b,
		AHandle: req.AHandle, BHandle: bHandle,
		Opts: opts, wantCID: req.StoreC,
	})
	if err != nil {
		return nil, err
	}
	resp := &apiv1.MultiplyResponse{
		Requested: res.Requested, Engine: res.Engine, Degraded: res.Degraded,
		Rows: res.C.Rows, Cols: res.C.Cols, NnzC: res.C.Nnz(),
		Flops: res.Cost.Flops,
	}
	if res.Report != nil {
		resp.Seconds = res.Report.Seconds()
		resp.GFLOPS = res.Report.Throughput()
	}
	if req.StoreC {
		if resp.CHandle, err = s.store.put(res.C, res.CID); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// StoreFromRequest serves one MatrixRequest: store a raw CSR payload,
// re-value a stored handle, or build-and-store a spec (in that
// precedence order). The response describes the stored matrix; a
// missing revalue handle returns *UnknownHandleError.
func (s *Server) StoreFromRequest(req apiv1.MatrixRequest) (*apiv1.MatrixResponse, error) {
	var handle string
	var err error
	switch {
	case req.Data != nil:
		// Raw upload: the cluster's spill re-homing path. Validated once,
		// by the store, where its identity is minted; the handle is
		// content-addressed, so an upload of bytes the server already
		// holds is a no-op dedup.
		var m *spgemm.Matrix
		if m, err = req.Data.Unchecked(); err == nil {
			handle, err = s.StoreMatrix(m)
		}
		if err != nil {
			return nil, err
		}
	case req.Handle != "":
		if handle, err = s.RevalueMatrix(req.Handle, req.ValuesSeed); err != nil {
			return nil, err
		}
	case req.Spec != nil:
		var m *spgemm.Matrix
		if m, err = req.Spec.Build(); err == nil {
			handle, err = s.StoreMatrix(m)
		}
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("serve: matrix request needs data, spec or handle")
	}
	m, id, _ := s.store.get(handle)
	return &apiv1.MatrixResponse{
		Handle: handle, Rows: m.Rows, Cols: m.Cols, Nnz: m.Nnz(), Bytes: m.Bytes(),
		StructureFP: fmt.Sprintf("%016x", id.Fingerprint()),
	}, nil
}

// StoreBulk serves one MatrixBatchRequest: every matrix stored in
// order, all-or-nothing validated (the first bad entry fails the whole
// batch before anything else is inspected — stores already made stick,
// which is safe because handles are content-addressed). This is the
// pipelined transfer behind a cluster failover re-upload: one round
// trip instead of N.
func (s *Server) StoreBulk(req apiv1.MatrixBatchRequest) (*apiv1.MatrixBatchResponse, error) {
	if len(req.Matrices) == 0 {
		return nil, fmt.Errorf("serve: bulk store needs at least one matrix")
	}
	out := &apiv1.MatrixBatchResponse{Matrices: make([]apiv1.MatrixResponse, 0, len(req.Matrices))}
	for i := range req.Matrices {
		resp, err := s.StoreFromRequest(req.Matrices[i])
		if err != nil {
			return nil, fmt.Errorf("serve: bulk store entry %d: %w", i, err)
		}
		out.Matrices = append(out.Matrices, *resp)
	}
	return out, nil
}

// Ready reports the server's readiness: "draining" once Drain began,
// "degraded" while any engine breaker is open or probing (device
// traffic is being rerouted through the CPU fallback path), "ready"
// otherwise. The strings are wire contract (apiv1.ReadyStatus*).
func (s *Server) Ready() apiv1.ReadyResponse {
	jobs, flops := s.Inflight()
	breakers := s.BreakerStates()
	status := apiv1.ReadyStatusReady
	for _, st := range breakers {
		if st != "closed" {
			status = apiv1.ReadyStatusDegraded
			break
		}
	}
	draining := s.Draining()
	if draining {
		status = apiv1.ReadyStatusDraining
	}
	return apiv1.ReadyResponse{
		Status:        status,
		Draining:      draining,
		InflightJobs:  jobs,
		InflightFlops: flops,
		Breakers:      breakers,
	}
}
