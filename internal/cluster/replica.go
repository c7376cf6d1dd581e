package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// Backend is one serve replica as the coordinator sees it: the
// request-level operations of the serving API plus the introspection
// the health prober and the aggregated /metricsz need. The in-process
// implementation wraps *serve.Server directly; a remote one would
// speak apiv1 over HTTP — the coordinator cannot tell the difference,
// which is what makes the chaos wrapper below an honest stand-in for
// a killed process.
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

// localReplica adapts *serve.Server to the Backend interface for the
// in-process cluster mode (CI, tests, the -cluster flag).
type localReplica struct {
	name string
	s    *serve.Server
}

// NewLocalReplica wraps a serve.Server as an in-process Backend.
func NewLocalReplica(name string, s *serve.Server) Backend {
	return &localReplica{name: name, s: s}
}

func (r *localReplica) Name() string { return r.name }
func (r *localReplica) Multiply(req apiv1.MultiplyRequest) (*apiv1.MultiplyResponse, error) {
	return r.s.Multiply(req)
}
func (r *localReplica) Batch(req *apiv1.BatchRequest) (*apiv1.BatchResponse, error) {
	return r.s.SubmitBatch(req)
}
func (r *localReplica) Store(m *spgemm.Matrix) (string, error) { return r.s.StoreMatrix(m) }
func (r *localReplica) StoreMany(ms []*spgemm.Matrix) ([]string, error) {
	handles := make([]string, len(ms))
	for i, m := range ms {
		h, err := r.s.StoreMatrix(m)
		if err != nil {
			return nil, err
		}
		handles[i] = h
	}
	return handles, nil
}
func (r *localReplica) Matrix(h string) (*spgemm.Matrix, bool) { return r.s.Matrix(h) }
func (r *localReplica) Delete(h string) bool                   { return r.s.DeleteMatrix(h) }
func (r *localReplica) Ready() (apiv1.ReadyResponse, error)    { return r.s.Ready(), nil }
func (r *localReplica) Counters() map[string]int64             { return r.s.Snapshot() }
func (r *localReplica) Drain(t time.Duration) map[string]int64 { return r.s.Drain(t) }

// ChaosConfig is the deterministic failure model of one replica, in
// the style of internal/faults: a seed and the schedule replay the
// identical failure sequence, so every cluster chaos scenario is a
// reproducible test case.
type ChaosConfig struct {
	// Seed feeds the per-replica RNG used by FailRate draws.
	Seed int64
	// FailRate is the per-operation probability the replica drops the
	// request as if the process vanished mid-call (the request is NOT
	// admitted — the coordinator may safely re-route it).
	FailRate float64
	// KillAfterOps kills the replica permanently after that many
	// operations (0 disables); Revive brings it back.
	KillAfterOps int
}

// ChaosBackend wraps a Backend with seeded fault injection. A dead
// replica fails every call — including health probes — with an error
// wrapping faults.ErrReplicaDown, exactly what a connection refused
// would map to for a remote backend.
type ChaosBackend struct {
	inner Backend
	cfg   ChaosConfig

	mu   sync.Mutex
	rng  *rand.Rand
	ops  int
	dead bool
}

// NewChaosBackend wraps inner with the given failure schedule.
func NewChaosBackend(inner Backend, cfg ChaosConfig) *ChaosBackend {
	return &ChaosBackend{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Kill marks the replica dead immediately (the external loss event of
// the chaos suite).
func (c *ChaosBackend) Kill() {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
}

// Revive brings a killed replica back; its op counter restarts so a
// KillAfterOps schedule applies afresh.
func (c *ChaosBackend) Revive() {
	c.mu.Lock()
	c.dead = false
	c.ops = 0
	c.mu.Unlock()
}

// Dead reports whether the replica is currently dead.
func (c *ChaosBackend) Dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// step advances the op counter and decides this operation's fate.
func (c *ChaosBackend) step() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return fmt.Errorf("cluster: replica %s: %w", c.inner.Name(), faults.ErrReplicaDown)
	}
	c.ops++
	if c.cfg.KillAfterOps > 0 && c.ops >= c.cfg.KillAfterOps {
		c.dead = true
		return fmt.Errorf("cluster: replica %s: %w", c.inner.Name(), faults.ErrReplicaDown)
	}
	if c.cfg.FailRate > 0 && c.rng.Float64() < c.cfg.FailRate {
		return fmt.Errorf("cluster: replica %s dropped the request: %w", c.inner.Name(), faults.ErrReplicaDown)
	}
	return nil
}

func (c *ChaosBackend) Name() string { return c.inner.Name() }

func (c *ChaosBackend) Multiply(req apiv1.MultiplyRequest) (*apiv1.MultiplyResponse, error) {
	if err := c.step(); err != nil {
		return nil, err
	}
	return c.inner.Multiply(req)
}

func (c *ChaosBackend) Batch(req *apiv1.BatchRequest) (*apiv1.BatchResponse, error) {
	if err := c.step(); err != nil {
		return nil, err
	}
	return c.inner.Batch(req)
}

func (c *ChaosBackend) Store(m *spgemm.Matrix) (string, error) {
	if err := c.step(); err != nil {
		return "", err
	}
	return c.inner.Store(m)
}

// StoreMany charges one fault-schedule step for the whole batch: on
// the wire it is one exchange, and the chaos model mirrors that.
func (c *ChaosBackend) StoreMany(ms []*spgemm.Matrix) ([]string, error) {
	if err := c.step(); err != nil {
		return nil, err
	}
	return c.inner.StoreMany(ms)
}

func (c *ChaosBackend) Matrix(h string) (*spgemm.Matrix, bool) {
	if err := c.step(); err != nil {
		return nil, false
	}
	return c.inner.Matrix(h)
}

func (c *ChaosBackend) Delete(h string) bool {
	if err := c.step(); err != nil {
		return false
	}
	return c.inner.Delete(h)
}

// Ready is the probe path: a dead replica's probe fails like a refused
// connection, but probes do not advance the kill schedule — only
// request traffic does, so KillAfterOps stays meaningful regardless of
// the probing cadence.
func (c *ChaosBackend) Ready() (apiv1.ReadyResponse, error) {
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead {
		return apiv1.ReadyResponse{}, fmt.Errorf("cluster: replica %s: %w", c.inner.Name(), faults.ErrReplicaDown)
	}
	return c.inner.Ready()
}

func (c *ChaosBackend) Counters() map[string]int64 { return c.inner.Counters() }

func (c *ChaosBackend) Drain(t time.Duration) map[string]int64 { return c.inner.Drain(t) }
