package cluster

import (
	"time"

	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// Backend is one serve replica as the coordinator sees it: the
// request-level operations of the serving API plus the introspection
// the health prober and the aggregated /metricsz need. RemoteReplica
// is the implementation; it speaks apiv1 to a replica process and
// decodes its error envelopes back into serve's typed errors, so the
// coordinator's dispatch does not depend on the transport. Tests
// script single replicas with stub Backends.
type Backend interface {
	Name() string
	Multiply(req apiv1.MultiplyRequest) (*apiv1.MultiplyResponse, error)
	Batch(req *apiv1.BatchRequest) (*apiv1.BatchResponse, error)
	Store(m *spgemm.Matrix) (string, error)
	// StoreMany uploads a set of matrices as one pipelined transfer —
	// the failover re-upload path. Implementations may fan it out to
	// Store, but a remote backend turns it into a single round trip.
	StoreMany(ms []*spgemm.Matrix) ([]string, error)
	Matrix(handle string) (*spgemm.Matrix, bool)
	Delete(handle string) bool
	Ready() (apiv1.ReadyResponse, error)
	Counters() map[string]int64
	Drain(timeout time.Duration) map[string]int64
}
