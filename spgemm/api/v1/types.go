// Package apiv1 is the versioned wire package of the serving layer:
// the request, response and error-envelope types spoken on every /v1/*
// endpoint, their two encodings, the server-side body readers and
// response writers both HTTP surfaces (internal/serve, internal/cluster)
// are built on, and the thin Client.
//
// Everything is JSON, and the JSON field names are the wire contract.
// They are covered by a stability test (wire_test.go) and must never
// change within v1; additions are allowed, renames and removals get a
// new version package.
//
// Matrix payloads (MatrixData) have a second, binary encoding —
// MediaTypeCSR: a fixed header and the three CSR arrays verbatim,
// written by WriteMatrixBinary and read by the bounded, validating
// ReadMatrixBinary. Which one a message uses follows from its headers
// alone (Content-Type on uploads, Accept on fetches); a client that
// sets neither sees JSON exactly as before. The frame layout is pinned
// byte for byte beside the field names.
//
// Every error, on every endpoint, is the same envelope
// (ErrorResponse): a machine-readable code from the Code* taxonomy, a
// human-readable message, and — on 429 responses — a retry-after hint
// mirroring the Retry-After header.
package apiv1

import (
	"fmt"
	"math"

	"repro/spgemm"
)

// MatrixSpec describes a generated operand, so clients submit matrix
// *recipes* instead of shipping coordinate data. Kind selects the
// generator: "rmat" (Scale, EdgeFactor), "er" (Rows, Cols, Density),
// "band" (N, Half), "blocks" (N, Block — dense diagonal blocks, whose
// sparsity pattern is closed under multiplication: the pattern of A²
// equals the pattern of A, the iterative-chain workload). Seed feeds
// all of them.
type MatrixSpec struct {
	Kind       string  `json:"kind"`
	Scale      uint    `json:"scale,omitempty"`
	EdgeFactor int     `json:"edge_factor,omitempty"`
	Rows       int     `json:"rows,omitempty"`
	Cols       int     `json:"cols,omitempty"`
	Density    float64 `json:"density,omitempty"`
	N          int     `json:"n,omitempty"`
	Half       int     `json:"half,omitempty"`
	Block      int     `json:"block,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
}

// maxGenDim caps generated matrix dimensions so a single request
// cannot ask the server to materialize an absurd operand: generation
// happens before admission control can weigh the job.
const maxGenDim = 1 << 22

// Build materializes the spec.
func (m MatrixSpec) Build() (*spgemm.Matrix, error) {
	switch m.Kind {
	case "rmat":
		scale := m.Scale
		if scale == 0 {
			scale = 10
		}
		if scale > 22 {
			return nil, fmt.Errorf("apiv1: rmat scale %d too large (max 22)", scale)
		}
		ef := m.EdgeFactor
		if ef <= 0 {
			ef = 8
		}
		return spgemm.RMAT(scale, ef, 0.57, 0.19, 0.19, m.Seed), nil
	case "er":
		rows, cols := m.Rows, m.Cols
		if rows <= 0 {
			rows = 1024
		}
		if cols <= 0 {
			cols = rows
		}
		if rows > maxGenDim || cols > maxGenDim {
			return nil, fmt.Errorf("apiv1: er dimensions %dx%d too large (max %d)", rows, cols, maxGenDim)
		}
		p := m.Density
		if p <= 0 {
			p = 0.01
		}
		return spgemm.ER(rows, cols, p, m.Seed), nil
	case "band":
		n, half := m.N, m.Half
		if n <= 0 {
			n = 1024
		}
		if n > maxGenDim {
			return nil, fmt.Errorf("apiv1: band n %d too large (max %d)", n, maxGenDim)
		}
		if half <= 0 {
			half = 8
		}
		return spgemm.Band(n, half, m.Seed), nil
	case "blocks":
		n, bs := m.N, m.Block
		if n <= 0 {
			n = 1024
		}
		if n > maxGenDim {
			return nil, fmt.Errorf("apiv1: blocks n %d too large (max %d)", n, maxGenDim)
		}
		if bs <= 0 {
			bs = 16
		}
		if bs > n {
			bs = n
		}
		return spgemm.BlockDiag(n/bs, bs, m.Seed), nil
	default:
		return nil, fmt.Errorf("apiv1: unknown matrix kind %q (want rmat, er, band or blocks)", m.Kind)
	}
}

// MultiplyRequest is the POST /v1/multiply body. Operands come either
// as specs or as handles into the matrix store (a handle wins over
// its spec); B defaults to the same matrix as A (the common A·A graph
// workload). StoreC additionally persists the product into the matrix
// store and returns its handle, so a client can chain multiplies
// across sequential requests.
type MultiplyRequest struct {
	Engine      string      `json:"engine"`
	A           MatrixSpec  `json:"a"`
	B           *MatrixSpec `json:"b,omitempty"`
	AHandle     string      `json:"a_handle,omitempty"`
	BHandle     string      `json:"b_handle,omitempty"`
	StoreC      bool        `json:"store_c,omitempty"`
	DeadlineSec float64     `json:"deadline_sec,omitempty"`
	Threads     int         `json:"threads,omitempty"`
	NumGPUs     int         `json:"num_gpus,omitempty"`
}

// MatrixData is a raw CSR payload on the wire: the three arrays of the
// internal representation, verbatim. It exists for the cluster tier —
// a coordinator re-uploading its spill copy of a stored matrix to a
// failover successor ships the actual bytes, not a recipe — but any
// client may use it to upload real data instead of a generator spec.
// Both encodings round-trip float64 exactly — encoding/json by
// shortest-representation printing, the binary frame by bit pattern —
// so an upload and its re-download are byte-identical
// (content-addressed handles depend on this). Only the binary frame
// can carry NaN and ±Inf.
type MatrixData struct {
	Rows       int       `json:"rows"`
	Cols       int       `json:"cols"`
	RowOffsets []int64   `json:"row_offsets"`
	ColIDs     []int32   `json:"col_ids"`
	Values     []float64 `json:"values"`
}

// MatrixDataFrom converts a matrix into its wire payload. The slices
// alias the matrix storage — marshal before mutating.
func MatrixDataFrom(m *spgemm.Matrix) *MatrixData {
	return &MatrixData{
		Rows: m.Rows, Cols: m.Cols,
		RowOffsets: m.RowOffsets, ColIDs: m.ColIDs, Values: m.Data,
	}
}

// Matrix validates the payload and returns it as a matrix. The matrix
// aliases the payload slices.
func (d *MatrixData) Matrix() (*spgemm.Matrix, error) {
	m, err := d.Unchecked()
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("apiv1: matrix data rejected: %w", err)
	}
	return m, nil
}

// Unchecked returns the payload as a matrix aliasing its slices after
// the O(1) checks only: dimensions in range and array lengths
// consistent with them and each other. The content — monotone offsets,
// sorted in-range columns — is NOT validated: this is for the consumer
// that validates where it mints the matrix's identity (the serving
// layer's matrix store); everyone else wants Matrix. Nil RowOffsets
// stand for the all-empty-rows offsets and are only legal without
// non-zeros; a server bounds that allocation before it gets here
// (ReadMatrixRequest).
func (d *MatrixData) Unchecked() (*spgemm.Matrix, error) {
	if err := d.checkShape(); err != nil {
		return nil, fmt.Errorf("apiv1: matrix data rejected: %w", err)
	}
	m := &spgemm.Matrix{
		Rows: d.Rows, Cols: d.Cols,
		RowOffsets: d.RowOffsets, ColIDs: d.ColIDs, Data: d.Values,
	}
	if m.RowOffsets == nil {
		m.RowOffsets = make([]int64, d.Rows+1)
	}
	return m, nil
}

// checkShape holds the payload's dimensions and array lengths against
// each other, allocating nothing.
func (d *MatrixData) checkShape() error {
	switch {
	case d.Rows < 0 || d.Cols < 0 || d.Rows > math.MaxInt32 || d.Cols > math.MaxInt32:
		return fmt.Errorf("dimensions %dx%d out of range (max %d)", d.Rows, d.Cols, math.MaxInt32)
	case len(d.ColIDs) != len(d.Values):
		return fmt.Errorf("%d col_ids but %d values", len(d.ColIDs), len(d.Values))
	case d.RowOffsets == nil && len(d.ColIDs) != 0:
		return fmt.Errorf("%d non-zeros but no row_offsets", len(d.ColIDs))
	case d.RowOffsets != nil && len(d.RowOffsets) != d.Rows+1:
		return fmt.Errorf("row_offsets length %d, want rows+1 = %d", len(d.RowOffsets), d.Rows+1)
	}
	return nil
}

// charge is the server-side guard of a JSON-decoded payload, the
// counterpart of the binary decoder's header check: the shape must be
// consistent and the CSR bytes it stands for — 8(rows+1)+12·nnz, what
// Matrix.Bytes reports and Unchecked may have to allocate for nil
// row_offsets — must fit what is left of budget, from which they are
// deducted.
func (d *MatrixData) charge(budget *int64) error {
	if err := d.checkShape(); err != nil {
		return fmt.Errorf("apiv1: matrix data rejected: %w", err)
	}
	payload := 8*(int64(d.Rows)+1) + 12*int64(len(d.ColIDs))
	if payload > *budget {
		return fmt.Errorf("%w: %dx%d with %d non-zeros, %d payload bytes left",
			ErrBinaryTooLarge, d.Rows, d.Cols, len(d.ColIDs), max(*budget, 0))
	}
	*budget -= payload
	return nil
}

// MatrixRequest is the POST /v1/matrices body: a spec to build and
// store, raw CSR data to store verbatim, or a stored handle plus a
// values seed to re-value (same pattern, fresh deterministic values —
// the iterative-workload upload that keeps cached plans warm). Data
// wins over Handle wins over Spec.
type MatrixRequest struct {
	Spec       *MatrixSpec `json:"spec,omitempty"`
	Handle     string      `json:"handle,omitempty"`
	ValuesSeed int64       `json:"values_seed,omitempty"`
	Data       *MatrixData `json:"data,omitempty"`
}

// MatrixBatchRequest is the POST /v1/matrices/bulk body: several
// uploads admitted as one pipelined transfer. The cluster coordinator
// uses it to re-home every spill copy a failover successor is missing
// in a single round trip instead of N serial ones.
type MatrixBatchRequest struct {
	Matrices []MatrixRequest `json:"matrices"`
}

// MatrixBatchResponse answers a bulk upload, one response per request
// in order. The whole batch either stores or fails as a unit.
type MatrixBatchResponse struct {
	Matrices []MatrixResponse `json:"matrices"`
}

// MatrixResponse describes a stored matrix. StructureFP is the
// sparsity-pattern fingerprint: two handles sharing it share cached
// plans.
type MatrixResponse struct {
	Handle      string `json:"handle"`
	Rows        int    `json:"rows"`
	Cols        int    `json:"cols"`
	Nnz         int64  `json:"nnz"`
	Bytes       int64  `json:"bytes"`
	StructureFP string `json:"structure_fingerprint"`
}

// MultiplyResponse reports a completed job. CHandle is set only when
// the request asked for StoreC.
type MultiplyResponse struct {
	Requested string  `json:"requested"`
	Engine    string  `json:"engine"`
	Degraded  bool    `json:"degraded"`
	Rows      int     `json:"rows"`
	Cols      int     `json:"cols"`
	NnzC      int64   `json:"nnz_c"`
	Flops     int64   `json:"flops"`
	Seconds   float64 `json:"seconds"`
	GFLOPS    float64 `json:"gflops"`
	CHandle   string  `json:"c_handle,omitempty"`
}

// ReadyResponse is the GET /readyz body: a coarse machine-readable
// Status (one of the ReadyStatus* strings) plus the detail behind it.
// A single server reports its own drain flag, inflight load and
// breaker states; a cluster coordinator additionally reports every
// replica's health-state-machine position in Replicas and omits the
// single-server fields that do not apply.
type ReadyResponse struct {
	// Status is "ready" (serving normally), "degraded" (serving, but
	// through a fallback path: an open breaker, or a cluster with
	// replicas down), or "draining" (shutting down, not admitting).
	Status        string `json:"status"`
	Draining      bool   `json:"draining"`
	InflightJobs  int    `json:"inflight_jobs"`
	InflightFlops int64  `json:"inflight_flops"`
	// Breakers maps engine name to circuit state
	// (closed/open/half-open) on a single server.
	Breakers map[string]string `json:"breakers,omitempty"`
	// Replicas maps replica name to health state
	// (up/suspect/down/draining) on a cluster coordinator.
	Replicas map[string]string `json:"replicas,omitempty"`
}

// Readiness statuses of the /readyz body. Like the error codes these
// are wire contract: clients and load balancers dispatch on them.
const (
	// ReadyStatusReady is a server (or cluster) serving normally.
	ReadyStatusReady = "ready"
	// ReadyStatusDegraded is a server still serving but through a
	// fallback path: a tripped breaker routing device traffic to the
	// CPU engine, or a cluster with at least one replica not up
	// (including the single-survivor funnel mode).
	ReadyStatusDegraded = "degraded"
	// ReadyStatusDraining is a server that stopped admitting (HTTP 503
	// on /readyz; in-flight work is finishing).
	ReadyStatusDraining = "draining"
)

// JoinRequest is the POST /v1/join body a serve replica sends to a
// cluster coordinator to register itself (and thereafter as a
// heartbeat): the replica's stable name and the base URL the
// coordinator should dial it on. Re-joining an existing name is how a
// restarted replica re-enters the ring — the coordinator voids its
// placement records (the restart lost the store) and revives it.
type JoinRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// JoinResponse acknowledges a registration. Rejoined reports that the
// coordinator already knew the name and treated the join as a
// recovery (replica restart or partition heal) rather than a first
// registration or a routine heartbeat. HeartbeatSec is the cadence the
// coordinator wants subsequent heartbeat joins at.
type JoinResponse struct {
	Name         string  `json:"name"`
	Rejoined     bool    `json:"rejoined"`
	Replicas     int     `json:"replicas"`
	HeartbeatSec float64 `json:"heartbeat_sec"`
}

// DrainRequest is the POST /v1/admin/drain body: the graceful-drain
// deadline. Zero means the server's configured default.
type DrainRequest struct {
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// DrainResponse reports a completed drain: the final counter snapshot
// the process would have written to its snapshot file.
type DrainResponse struct {
	Counters map[string]int64 `json:"counters"`
}

// ErrorResponse is the uniform error envelope of every /v1 endpoint
// (and of per-node failures inside a batch response): a
// machine-readable code from the Code* taxonomy, the human-readable
// message, and — when the job was shed — the retry-after hint also
// carried by the Retry-After header.
type ErrorResponse struct {
	Code          string  `json:"code"`
	Error         string  `json:"error"`
	RetryAfterSec float64 `json:"retry_after_sec,omitempty"`
}

// Machine-readable error codes of the envelope, mapped from the
// serving layer's faults taxonomy. Clients dispatch on these, never on
// message text.
const (
	// CodeBadRequest is a malformed or unsatisfiable request body
	// (HTTP 400).
	CodeBadRequest = "bad_request"
	// CodeMethodNotAllowed is a wrong HTTP method on a known route
	// (HTTP 405; the Allow header lists the accepted method).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeUnknownHandle is a matrix handle the store does not hold —
	// never uploaded, deleted, or evicted (HTTP 404; re-upload).
	CodeUnknownHandle = "unknown_handle"
	// CodeOverloaded is the admission controller's flop-budget shed
	// (HTTP 429 with Retry-After).
	CodeOverloaded = "overloaded"
	// CodeQueueFull is the bounded admission queue shed (HTTP 429 with
	// Retry-After).
	CodeQueueFull = "queue_full"
	// CodeDraining rejects jobs submitted after graceful drain began
	// (HTTP 503; try another replica).
	CodeDraining = "draining"
	// CodeJobPanic is an engine panic isolated to the job (HTTP 500).
	CodeJobPanic = "job_panic"
	// CodeDeadline is a run that exceeded its deadline, or a job
	// abandoned at the drain deadline (HTTP 504).
	CodeDeadline = "deadline"
	// CodeOOM is an up-front rejection of a job that cannot fit the
	// device at any chunk grid, or a store-budget overflow (HTTP 413).
	CodeOOM = "oom"
	// CodeDeviceLost is a permanent simulated-device failure that the
	// engine could not recover from (HTTP 500).
	CodeDeviceLost = "device_lost"
	// CodeInvalidDAG is a /v1/batch request whose node graph cannot be
	// scheduled: empty, too large, duplicate or missing ids, unknown
	// node references, or a dependency cycle (HTTP 400).
	CodeInvalidDAG = "invalid_dag"
	// CodeShapeMismatch is a /v1/batch request with incompatible
	// operand dimensions somewhere in the DAG, rejected before
	// admission (HTTP 400).
	CodeShapeMismatch = "shape_mismatch"
	// CodeUpstreamFailed marks a batch node skipped because a node it
	// depends on failed (node status "skipped", never a top-level
	// HTTP error).
	CodeUpstreamFailed = "upstream_failed"
	// CodeReplicaDown is a cluster request that no replica could
	// serve: the owning replica and every successor on the ring are
	// down or draining (HTTP 503 with Retry-After; the request was
	// never admitted anywhere and is safe to retry).
	CodeReplicaDown = "replica_down"
	// CodeNotAcceptable is a response JSON cannot represent — a stored
	// matrix holding NaN or ±Inf fetched without Accept: MediaTypeCSR
	// (HTTP 406; ask for the binary encoding).
	CodeNotAcceptable = "not_acceptable"
)
