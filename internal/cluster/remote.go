package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// Transport failure kinds. The distinction feeds the health machine
// with different evidence weights: a refused connection means no
// process is listening (condemn immediately), while a timeout or a
// reset may be a slow peer or one bad exchange (one unit of suspect
// evidence; downAfter of them condemn).
const (
	// TransportRefused: connect failed outright — nothing listening.
	TransportRefused = "refused"
	// TransportTimeout: the per-operation deadline expired (slow peer,
	// network black hole, or a partition that eats SYNs).
	TransportTimeout = "timeout"
	// TransportReset: the exchange started and died — connection reset,
	// truncated body, undecodable partial response.
	TransportReset = "reset"
)

// TransportError is a network-layer failure talking to a remote
// replica, classified into one of the transport kinds. It matches
// errors.Is(err, faults.ErrReplicaDown) so every existing coordinator
// path (failover, spill re-upload, shed classification) treats it as
// the replica being unreachable, while errors.As(*TransportError)
// exposes the kind for evidence-weighted health accounting.
type TransportError struct {
	// Replica is the backend name; Kind one of the Transport* kinds.
	Replica string
	Kind    string
	// Err is the underlying transport error.
	Err error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("cluster: replica %s transport %s: %v", e.Replica, e.Kind, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// Is makes the error satisfy errors.Is(err, faults.ErrReplicaDown)
// without hiding the underlying transport error from Unwrap.
func (e *TransportError) Is(target error) bool { return target == faults.ErrReplicaDown }

// classifyTransport maps a raw client error onto a transport kind.
func classifyTransport(err error) string {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return TransportTimeout
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return TransportTimeout
	}
	if errors.Is(err, syscall.ECONNREFUSED) {
		return TransportRefused
	}
	// Everything else — resets, truncated bodies, undecodable partial
	// JSON, EOFs mid-exchange — is evidence the process answered and
	// then died on us.
	return TransportReset
}

// RemoteConfig tunes one remote replica's failure domain: every
// operation class gets its own context deadline, distinct from any job
// deadline inside the request body. The zero value is usable.
type RemoteConfig struct {
	// MultiplyTimeout bounds one multiply or batch exchange end to end
	// (0 means 90s — requests carry their own engine deadline; this
	// only catches a dead transport).
	MultiplyTimeout time.Duration
	// StoreTimeout bounds store/fetch/delete exchanges (0 means 30s).
	StoreTimeout time.Duration
	// ProbeTimeout bounds health probes and counter scrapes (0 means
	// 2s) — the point of the satellite: a probe must not wait out a
	// multiply-sized budget to notice a hung peer.
	ProbeTimeout time.Duration
	// HTTP overrides the transport (tests inject a fault proxy or an
	// httptest client). Nil means a plain http.Client with no
	// client-wide timeout: the per-operation contexts govern.
	HTTP *http.Client
}

func (c RemoteConfig) withDefaults() RemoteConfig {
	if c.MultiplyTimeout <= 0 {
		c.MultiplyTimeout = 90 * time.Second
	}
	if c.StoreTimeout <= 0 {
		c.StoreTimeout = 30 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.HTTP == nil {
		c.HTTP = &http.Client{}
	}
	return c
}

// RemoteReplica is a serve replica behind a real socket, adapted to
// the Backend interface over apiv1. Wire error envelopes are decoded
// back into the exact typed errors the serve.Server raised, so every
// dispatch the coordinator performs (shed retry, draining exclusion,
// failover, unknown-handle re-upload) reads the same errors the server
// returns in process.
type RemoteReplica struct {
	name   string
	cfg    RemoteConfig
	client *apiv1.Client

	mu        sync.Mutex
	transport map[string]int64
}

// NewRemoteReplica returns a Backend speaking apiv1 to the serve
// process at url. No client-level retry policy is installed: the
// coordinator owns retries and failover.
func NewRemoteReplica(name, url string, cfg RemoteConfig) *RemoteReplica {
	cfg = cfg.withDefaults()
	return &RemoteReplica{
		name: name, cfg: cfg,
		client:    &apiv1.Client{BaseURL: strings.TrimRight(url, "/"), HTTP: cfg.HTTP},
		transport: map[string]int64{},
	}
}

func (r *RemoteReplica) Name() string { return r.name }

// wrap classifies an error from the wire: an *APIError envelope is
// decoded back into the server's typed taxonomy; anything else is a
// transport failure, counted and classified.
func (r *RemoteReplica) wrap(err error, handle string) error {
	if err == nil {
		return nil
	}
	var ae *apiv1.APIError
	if errors.As(err, &ae) {
		return decodeAPIError(ae, handle)
	}
	kind := classifyTransport(err)
	r.mu.Lock()
	switch kind {
	case TransportRefused:
		r.transport[metrics.CounterClusterRemoteRefused]++
	case TransportTimeout:
		r.transport[metrics.CounterClusterRemoteTimeouts]++
	default:
		r.transport[metrics.CounterClusterRemoteResets]++
	}
	r.mu.Unlock()
	return &TransportError{Replica: r.name, Kind: kind, Err: err}
}

// decodeAPIError turns a wire envelope back into the typed error the
// remote server raised, so errors.Is/As dispatch in the coordinator is
// transport-agnostic. handle seeds UnknownHandleError when the caller
// knows which handle the request named.
func decodeAPIError(ae *apiv1.APIError, handle string) error {
	retry := time.Duration(ae.RetryAfterSec * float64(time.Second))
	switch ae.Code {
	case apiv1.CodeReplicaDown:
		return fmt.Errorf("remote: %s: %w", ae.Message, faults.ErrReplicaDown)
	case apiv1.CodeDraining:
		return &serve.DrainingError{}
	case apiv1.CodeOverloaded:
		return &serve.OverloadError{RetryAfter: retry}
	case apiv1.CodeQueueFull:
		return &serve.QueueFullError{}
	case apiv1.CodeUnknownHandle:
		return &serve.UnknownHandleError{Handle: handle}
	case apiv1.CodeJobPanic:
		return fmt.Errorf("remote: %s: %w", ae.Message, faults.ErrJobPanic)
	case apiv1.CodeDeadline:
		return fmt.Errorf("remote: %s: %w", ae.Message, faults.ErrDeadline)
	case apiv1.CodeOOM:
		return fmt.Errorf("remote: %s: %w", ae.Message, faults.ErrOOM)
	case apiv1.CodeDeviceLost:
		return fmt.Errorf("remote: %s: %w", ae.Message, faults.ErrDeviceLost)
	case apiv1.CodeInvalidDAG, apiv1.CodeShapeMismatch:
		return &serve.BatchError{Code: ae.Code, Reason: ae.Message}
	default:
		return ae
	}
}

func (r *RemoteReplica) Multiply(req apiv1.MultiplyRequest) (*apiv1.MultiplyResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.MultiplyTimeout)
	defer cancel()
	resp, err := r.client.MultiplyCtx(ctx, req)
	if err != nil {
		handle := req.AHandle
		if req.BHandle != "" {
			handle = req.BHandle
		}
		return nil, r.wrap(err, handle)
	}
	return resp, nil
}

func (r *RemoteReplica) Batch(req *apiv1.BatchRequest) (*apiv1.BatchResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.MultiplyTimeout)
	defer cancel()
	resp, err := r.client.BatchCtx(ctx, *req)
	if err != nil {
		return nil, r.wrap(err, "")
	}
	return resp, nil
}

func (r *RemoteReplica) Store(m *spgemm.Matrix) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.StoreTimeout)
	defer cancel()
	resp, err := r.client.StoreMatrixCtx(ctx, apiv1.MatrixRequest{Data: apiv1.MatrixDataFrom(m)})
	if err != nil {
		return "", r.wrap(err, "")
	}
	return resp.Handle, nil
}

// StoreMany uploads several matrices in one bulk round trip — the
// pipelined spill re-upload of a failover takeover.
func (r *RemoteReplica) StoreMany(ms []*spgemm.Matrix) ([]string, error) {
	if len(ms) == 0 {
		return nil, nil
	}
	req := apiv1.MatrixBatchRequest{Matrices: make([]apiv1.MatrixRequest, len(ms))}
	for i, m := range ms {
		req.Matrices[i] = apiv1.MatrixRequest{Data: apiv1.MatrixDataFrom(m)}
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.StoreTimeout)
	defer cancel()
	resp, err := r.client.StoreMatrixBulk(ctx, req)
	if err != nil {
		return nil, r.wrap(err, "")
	}
	handles := make([]string, len(resp.Matrices))
	for i := range resp.Matrices {
		handles[i] = resp.Matrices[i].Handle
	}
	return handles, nil
}

func (r *RemoteReplica) Matrix(handle string) (*spgemm.Matrix, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.StoreTimeout)
	defer cancel()
	data, err := r.client.FetchMatrix(ctx, handle)
	if err != nil {
		return nil, false
	}
	m, err := data.Matrix()
	if err != nil {
		return nil, false
	}
	return m, true
}

func (r *RemoteReplica) Delete(handle string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.StoreTimeout)
	defer cancel()
	return r.client.DeleteMatrixCtx(ctx, handle) == nil
}

// Ready is the probe path: bounded by ProbeTimeout, not the multiply
// budget, so a hung replica is detected in probe time.
func (r *RemoteReplica) Ready() (apiv1.ReadyResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
	defer cancel()
	resp, err := r.client.ReadyCtx(ctx)
	if err != nil {
		return apiv1.ReadyResponse{}, r.wrap(err, "")
	}
	return *resp, nil
}

// Counters scrapes the replica's /metricsz and merges the local
// transport counters on top. Derived *_rate ratios are skipped — the
// aggregated snapshot is integer counters, and the coordinator's
// /metricsz derives the rates again from their sums. An unreachable
// replica still reports its transport counters: the evidence of its
// unreachability.
func (r *RemoteReplica) Counters() map[string]int64 {
	out := map[string]int64{}
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
	defer cancel()
	snap, err := r.client.MetricsCtx(ctx)
	if err == nil {
		for k, v := range snap {
			if strings.HasSuffix(k, "_rate") {
				continue
			}
			out[k] = int64(v)
		}
	}
	r.mu.Lock()
	for k, v := range r.transport {
		out[k] += v
	}
	r.mu.Unlock()
	return out
}

// Drain asks the remote process to drain and returns its final
// counters. The context allows the drain deadline plus slack for the
// transport; an unreachable replica answers nil (there is nothing to
// reconcile from a process that is gone).
func (r *RemoteReplica) Drain(timeout time.Duration) map[string]int64 {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout+r.cfg.StoreTimeout)
	defer cancel()
	resp, err := r.client.Drain(ctx, apiv1.DrainRequest{TimeoutSec: timeout.Seconds()})
	if err != nil {
		return nil
	}
	return resp.Counters
}
