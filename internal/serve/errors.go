package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/faults"
)

// OverloadError is the admission controller's load-shed rejection: the
// job's estimated flop cost on top of the work already admitted would
// exceed the server's inflight budget. It wraps faults.ErrOverloaded
// so errors.Is classification survives any further wrapping, and
// carries a retry-after hint sized from the backlog.
type OverloadError struct {
	// RetryAfter estimates when enough inflight work will have drained
	// for the job to fit (backlog flops over the configured drain
	// rate). It is a hint, not a promise.
	RetryAfter time.Duration
	// InflightFlops, JobFlops and BudgetFlops document the rejection:
	// inflight + job exceeded budget.
	InflightFlops, JobFlops, BudgetFlops int64
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: %v: %d inflight + %d job flops exceed budget %d (retry in %v)",
		faults.ErrOverloaded, e.InflightFlops, e.JobFlops, e.BudgetFlops, e.RetryAfter)
}

func (e *OverloadError) Unwrap() error { return faults.ErrOverloaded }

// QueueFullError is the bounded-queue rejection: every worker is busy
// and the admission queue has no free slot. It wraps
// faults.ErrQueueFull.
type QueueFullError struct {
	// Depth is the queue's capacity.
	Depth int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("serve: %v (depth %d)", faults.ErrQueueFull, e.Depth)
}

func (e *QueueFullError) Unwrap() error { return faults.ErrQueueFull }

// DrainingError rejects jobs submitted after Drain began: the server
// is shutting down and admits nothing. It wraps faults.ErrOverloaded
// (the job never ran; another replica may take it).
type DrainingError struct{}

func (e *DrainingError) Error() string {
	return fmt.Sprintf("serve: draining, not admitting jobs: %v", faults.ErrOverloaded)
}

func (e *DrainingError) Unwrap() error { return faults.ErrOverloaded }

// PanicError converts an engine panic into a typed per-job error so
// one crashed job cannot take the server down. It wraps
// faults.ErrJobPanic.
type PanicError struct {
	// Engine is the engine that panicked; Value is the recovered panic
	// value.
	Engine string
	Value  any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: engine %q: %v: %v", e.Engine, faults.ErrJobPanic, e.Value)
}

func (e *PanicError) Unwrap() error { return faults.ErrJobPanic }

// UnknownHandleError rejects a job referencing a matrix handle the
// store does not hold (never uploaded, deleted, or evicted). The
// client re-uploads and retries; the HTTP layer maps it to 404.
type UnknownHandleError struct {
	// Handle is the unresolved handle.
	Handle string
}

func (e *UnknownHandleError) Error() string {
	return fmt.Sprintf("serve: unknown matrix handle %q (re-upload via /v1/matrices)", e.Handle)
}

// CollisionError refuses an upload whose 64-bit fingerprints match a
// resident matrix or sparsity pattern it is not bit-for-bit equal to.
// Content addresses are lookups, not proofs: aliasing the upload to the
// resident handle (or letting it share the pattern's cached plans)
// would hand later jobs the wrong matrix, so it is stored nowhere.
type CollisionError struct {
	// Handle is the content address the upload hashes to.
	Handle string
	// Structure is true when the sparsity patterns differ under one
	// structural fingerprint, false when the patterns are equal and
	// the values differ under one values fingerprint.
	Structure bool
}

func (e *CollisionError) Error() string {
	what := "values"
	if e.Structure {
		what = "sparsity pattern"
	}
	return fmt.Sprintf("serve: matrix hashes to %s but its %s differs from the resident copy (fingerprint collision); not stored", e.Handle, what)
}

// BatchError rejects a whole /v1/batch request before admission: the
// DAG cannot be scheduled (invalid graph or an operand shape
// mismatch). Code is the apiv1 envelope code; the HTTP layer maps any
// BatchError to 400.
type BatchError struct {
	// Code is the machine-readable envelope code ("invalid_dag" or
	// "shape_mismatch").
	Code string
	// Node is the offending node id ("" when the whole graph is at
	// fault); Reason is the human-readable diagnosis.
	Node   string
	Reason string
}

func (e *BatchError) Error() string {
	if e.Node == "" {
		return fmt.Sprintf("serve: batch rejected (%s): %s", e.Code, e.Reason)
	}
	return fmt.Sprintf("serve: batch rejected (%s) at node %q: %s", e.Code, e.Node, e.Reason)
}

// RetryAfter extracts the retry-after hint from a shedding error
// chain (ok is false when err carries none).
func RetryAfter(err error) (d time.Duration, ok bool) {
	var oe *OverloadError
	if errors.As(err, &oe) {
		return oe.RetryAfter, true
	}
	return 0, false
}
