// Package cluster is the distributed serving tier: a coordinator that
// consistent-hashes the content-addressed matrix store across N serve
// replicas and keeps the service answering through replica failures.
//
// Requests route by structural fingerprint — the quantity the whole
// stack below already keys on. A handle-based multiply lands on the
// replica whose matrix store holds the operand and whose plan cache
// holds the pattern's symbolic plan, so sharding preserves exactly the
// locality the single-server fast path earns. A batch routes as one
// unit (its nodes share plans by design), and spec-only requests hash
// their canonical spec so identical generators land together too.
//
// Health is a per-replica state machine (up → suspect → down, plus
// draining) driven by two evidence streams: synchronous /readyz-style
// probes and request-path failures. Failover walks the key's ring
// successor list, re-uploading the coordinator's spill copy of any
// handle the new owner is missing — an admitted request is lost only
// when every replica is gone.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/spgemm"
	apiv1 "repro/spgemm/api/v1"
)

// Replica health states of the coordinator's state machine. The wire
// strings appear in the aggregated /readyz body, so they are contract.
const (
	// HealthUp is a replica answering probes and taking traffic.
	HealthUp = "up"
	// HealthSuspect is a replica that failed recent evidence but not
	// enough to condemn; it still takes traffic (removing it too eagerly
	// would dump its arc's cache locality on the successors).
	HealthSuspect = "suspect"
	// HealthDown is a replica confirmed unreachable; its arc re-routes
	// to ring successors until a probe sees it again.
	HealthDown = "down"
	// HealthDraining is a replica that answered "draining": finishing
	// in-flight work, not admitting. Routed around, but not condemned.
	HealthDraining = "draining"
)

// Config tunes the coordinator. The zero value is usable.
type Config struct {
	// VirtualNodes per replica on the ring (0 = DefaultVirtualNodes).
	VirtualNodes int
	// ShedRetries is how many times a shed request (429-class) is
	// retried against the same replica before the rejection surfaces to
	// the client. Default 2; DisableShedRetries turns them off.
	ShedRetries int
	// DisableShedRetries turns shed retries off outright. It wins over
	// any ShedRetries value, so a zero-valued Config stays on the
	// default policy and disabling is an explicit field, not a
	// sentinel.
	DisableShedRetries bool
	// RetryBase and RetryMax bound the exponential backoff between shed
	// retries; a Retry-After hint from the replica overrides the
	// exponential schedule but still respects RetryMax. Defaults
	// 5ms / 250ms.
	RetryBase, RetryMax time.Duration
	// DownAfter is the count of consecutive failed probes (or
	// request-path failures) that moves a replica suspect → down.
	// Default 2; the first failure always moves up → suspect.
	DownAfter int
	// Heartbeat is the cadence the coordinator hands to joining
	// replicas (0 = 2s): miss enough heartbeats and the probe loop's
	// evidence condemns as usual — the join protocol adds membership,
	// not a second health machine.
	Heartbeat time.Duration
	// NewBackend constructs the Backend for a /v1/join registration.
	// Nil means a RemoteReplica with default timeouts; tests swap in
	// stubs or fault-proxied transports.
	NewBackend func(name, url string) Backend
	// Sleep is the backoff clock, swappable in tests. Defaults to
	// time.Sleep.
	Sleep func(time.Duration)
}

func (c Config) withDefaults() Config {
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = DefaultVirtualNodes
	}
	if c.ShedRetries == 0 {
		c.ShedRetries = 2
	}
	if c.DisableShedRetries {
		c.ShedRetries = 0
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 2 * time.Second
	}
	if c.NewBackend == nil {
		c.NewBackend = func(name, url string) Backend {
			return NewRemoteReplica(name, url, RemoteConfig{})
		}
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 5 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 250 * time.Millisecond
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 2
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// replicaState is one replica's position in the health state machine.
type replicaState struct {
	backend    Backend
	health     string
	probeFails int
	// url is the advertised base URL of a joined remote replica (""
	// for in-process backends); the membership table keys rejoin
	// detection on it.
	url string
}

// spillEntry is the coordinator's durable copy of one stored matrix:
// the payload it re-uploads when a handle's owner dies and the ring
// successor needs the operand.
type spillEntry struct {
	m        *spgemm.Matrix
	structFP uint64
	placed   map[string]bool // replica name → handle resident there
}

// Coordinator routes apiv1 requests across the replica set.
type Coordinator struct {
	cfg Config
	col *metrics.Collector

	mu       sync.Mutex
	ring     *Ring
	replicas map[string]*replicaState
	spill    map[string]*spillEntry
	draining bool
}

// New creates a coordinator over the given replicas, all starting up.
func New(cfg Config, backends ...Backend) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:      cfg,
		col:      metrics.New(),
		ring:     NewRing(cfg.VirtualNodes),
		replicas: map[string]*replicaState{},
		spill:    map[string]*spillEntry{},
	}
	for _, b := range backends {
		c.AddReplica(b)
	}
	return c
}

// AddReplica joins a replica to the ring in state up.
func (c *Coordinator) AddReplica(b Backend) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.replicas[b.Name()]; dup {
		return
	}
	c.replicas[b.Name()] = &replicaState{backend: b, health: HealthUp}
	c.ring.Add(b.Name())
}

// Join serves a /v1/join registration or heartbeat. Three cases:
//
//   - Unknown name: a new replica. Build its Backend (Config.NewBackend),
//     add it to the ring in state up, count a join.
//   - Known name, not up (or a changed URL): a rejoin — the process
//     behind the name restarted, so its placements are void (its store
//     restarted empty; any record to the contrary is healed by the
//     unknown_handle → re-upload path anyway). Revive to up, count a
//     join and a rejoin.
//   - Known name, up, same URL: a plain heartbeat; nothing counted.
//
// The response tells the replica the heartbeat cadence and the current
// membership size. Join never removes anyone: leaving is the health
// machine's call, not the protocol's.
func (c *Coordinator) Join(req apiv1.JoinRequest) (*apiv1.JoinResponse, error) {
	if req.Name == "" || req.URL == "" {
		return nil, fmt.Errorf("cluster: join needs name and url")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return nil, &serve.DrainingError{}
	}
	st := c.replicas[req.Name]
	rejoined := false
	switch {
	case st == nil:
		b := c.cfg.NewBackend(req.Name, req.URL)
		c.replicas[req.Name] = &replicaState{backend: b, health: HealthUp, url: req.URL}
		c.ring.Add(req.Name)
		c.col.Add(metrics.CounterClusterJoins, 1)
	case st.health != HealthUp || st.url != req.URL:
		rejoined = true
		if st.url != req.URL {
			st.backend = c.cfg.NewBackend(req.Name, req.URL)
			st.url = req.URL
		}
		st.probeFails = 0
		c.setHealthLocked(req.Name, HealthUp)
		for _, ent := range c.spill {
			delete(ent.placed, req.Name)
		}
		c.col.Add(metrics.CounterClusterJoins, 1)
		c.col.Add(metrics.CounterClusterRejoins, 1)
	default:
		// Healthy heartbeat: refresh the probe evidence, count nothing.
		st.probeFails = 0
	}
	return &apiv1.JoinResponse{
		Name:         req.Name,
		Rejoined:     rejoined,
		Replicas:     len(c.replicas),
		HeartbeatSec: c.cfg.Heartbeat.Seconds(),
	}, nil
}

// Health reports every replica's current state (a copy).
func (c *Coordinator) Health() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.replicas))
	for name, st := range c.replicas {
		out[name] = st.health
	}
	return out
}

// Probe runs one synchronous health round over every replica, in name
// order so a seeded scenario replays identically. A failed probe is
// one unit of evidence: the first moves up → suspect, DownAfter
// consecutive ones condemn to down. A successful probe clears the
// evidence and revives a down replica (counting the up transition).
func (c *Coordinator) Probe() {
	c.mu.Lock()
	names := make([]string, 0, len(c.replicas))
	for name := range c.replicas {
		names = append(names, name)
	}
	sort.Strings(names)
	c.mu.Unlock()

	for _, name := range names {
		c.mu.Lock()
		st := c.replicas[name]
		b := st.backend
		c.mu.Unlock()
		ready, err := b.Ready()

		c.mu.Lock()
		if err != nil {
			st.probeFails++
			c.col.Add(metrics.CounterClusterProbeFailures, 1)
			if st.probeFails >= c.cfg.DownAfter {
				c.setHealthLocked(name, HealthDown)
			} else if st.health == HealthUp || st.health == HealthDraining {
				c.setHealthLocked(name, HealthSuspect)
			}
		} else {
			st.probeFails = 0
			if ready.Status == apiv1.ReadyStatusDraining {
				c.setHealthLocked(name, HealthDraining)
			} else {
				c.setHealthLocked(name, HealthUp)
			}
		}
		c.mu.Unlock()
	}
}

// setHealthLocked applies a transition and counts down/up edges.
func (c *Coordinator) setHealthLocked(name, health string) {
	st := c.replicas[name]
	if st.health == health {
		return
	}
	wasServing := st.health == HealthUp || st.health == HealthSuspect
	nowServing := health == HealthUp || health == HealthSuspect
	if wasServing && health == HealthDown {
		c.col.Add(metrics.CounterClusterReplicaDown, 1)
	}
	if !wasServing && nowServing {
		c.col.Add(metrics.CounterClusterReplicaUp, 1)
	}
	st.health = health
}

// noteFailure feeds request-path evidence into the state machine,
// weighted by what the failure says about the replica. A refused
// connection or a plain ErrReplicaDown is direct proof nothing is
// listening: condemn immediately. A transport timeout or reset may be
// one slow peer or one bad exchange, so it is one unit of suspect
// evidence — DownAfter of them condemn, exactly like failed probes.
// Placements are voided only on the condemning transition: whatever a
// dead replica held is gone when (if) it returns.
func (c *Coordinator) noteFailure(name string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.replicas[name]
	if st == nil {
		return
	}
	var te *TransportError
	if errors.As(err, &te) && te.Kind != TransportRefused {
		st.probeFails++
		if st.probeFails < c.cfg.DownAfter {
			if st.health == HealthUp || st.health == HealthDraining {
				c.setHealthLocked(name, HealthSuspect)
			}
			return
		}
	} else {
		st.probeFails = c.cfg.DownAfter
	}
	c.setHealthLocked(name, HealthDown)
	for _, ent := range c.spill {
		delete(ent.placed, name)
	}
}

// candidates returns the key's failover order: the ring successor list
// filtered to replicas currently taking traffic (up or suspect).
func (c *Coordinator) candidates(key uint64) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, name := range c.ring.Successors(key, c.ring.Size()) {
		if h := c.replicas[name].health; h == HealthUp || h == HealthSuspect {
			out = append(out, name)
		}
	}
	return out
}

// backendOf resolves a replica's Backend under the lock.
func (c *Coordinator) backendOf(name string) Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.replicas[name]; st != nil {
		return st.backend
	}
	return nil
}

// noHealthyReplica is the terminal routing failure: every replica on
// the key's successor walk is down or draining.
func noHealthyReplica() error {
	return fmt.Errorf("cluster: no healthy replica: %w", faults.ErrReplicaDown)
}

// --- routing keys -----------------------------------------------------

// handleStructFP parses the structural fingerprint out of a matrix
// handle ("m-" + 16 hex structFP + 16 hex valuesFP) — the property
// that makes handles routable without a lookup table.
func handleStructFP(handle string) (uint64, bool) {
	if len(handle) < 18 || handle[:2] != "m-" {
		return 0, false
	}
	fp, err := strconv.ParseUint(handle[2:18], 16, 64)
	if err != nil {
		return 0, false
	}
	return fp, true
}

// specKey hashes a generated-operand spec canonically, so identical
// specs land on the same replica and share its plan cache.
func specKey(spec *apiv1.MatrixSpec) uint64 {
	buf, _ := json.Marshal(spec)
	h := fnv.New64a()
	_, _ = h.Write(buf)
	return h.Sum64()
}

// multiplyKey routes a multiply: by A's handle when it has one, by B's
// otherwise, by the canonical spec hash when fully inline.
func multiplyKey(req apiv1.MultiplyRequest) uint64 {
	if fp, ok := handleStructFP(req.AHandle); ok {
		return fp
	}
	if fp, ok := handleStructFP(req.BHandle); ok {
		return fp
	}
	return specKey(&req.A)
}

// multiplyHandles lists the stored operands a replica must hold to run
// the request.
func multiplyHandles(req apiv1.MultiplyRequest) []string {
	var hs []string
	if req.AHandle != "" {
		hs = append(hs, req.AHandle)
	}
	if req.BHandle != "" && req.BHandle != req.AHandle {
		hs = append(hs, req.BHandle)
	}
	return hs
}

// batchKey routes a whole DAG as one unit: the first handle operand
// wins (plan-group locality), else the first spec.
func batchKey(req *apiv1.BatchRequest) uint64 {
	for _, n := range req.Nodes {
		ops := []*apiv1.Operand{&n.A}
		if n.B != nil {
			ops = append(ops, n.B)
		}
		for _, op := range ops {
			if fp, ok := handleStructFP(op.Handle); ok {
				return fp
			}
		}
	}
	for _, n := range req.Nodes {
		if n.A.Spec != nil {
			return specKey(n.A.Spec)
		}
		if n.B != nil && n.B.Spec != nil {
			return specKey(n.B.Spec)
		}
	}
	return 0
}

// batchHandles lists every distinct handle operand of the DAG.
func batchHandles(req *apiv1.BatchRequest) []string {
	seen := map[string]bool{}
	var hs []string
	for _, n := range req.Nodes {
		ops := []*apiv1.Operand{&n.A}
		if n.B != nil {
			ops = append(ops, n.B)
		}
		for _, op := range ops {
			if op.Handle != "" && !seen[op.Handle] {
				seen[op.Handle] = true
				hs = append(hs, op.Handle)
			}
		}
	}
	return hs
}

// --- placement and spill ----------------------------------------------

// recordSpill remembers a stored matrix and where it lives.
func (c *Coordinator) recordSpill(handle string, m *spgemm.Matrix, structFP uint64, replica string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent := c.spill[handle]
	if ent == nil {
		ent = &spillEntry{m: m, structFP: structFP, placed: map[string]bool{}}
		c.spill[handle] = ent
	}
	ent.placed[replica] = true
}

// ensurePlaced re-uploads any of the handles the named replica is
// missing, from the coordinator's spill copies — batched into one
// StoreMany call, so a successor takeover during failover is one
// pipelined transfer rather than N serial round trips. A handle with
// no spill copy (stored before the coordinator, or already deleted) is
// the replica's own problem — the request will surface unknown_handle.
func (c *Coordinator) ensurePlaced(name string, handles []string) error {
	c.mu.Lock()
	var missing []*spgemm.Matrix
	var missingHandles []string
	var bytes int64
	for _, h := range handles {
		if ent := c.spill[h]; ent != nil && !ent.placed[name] {
			missing = append(missing, ent.m)
			missingHandles = append(missingHandles, h)
			bytes += ent.m.Bytes()
		}
	}
	st := c.replicas[name]
	c.mu.Unlock()
	if len(missing) == 0 || st == nil {
		return nil
	}
	if _, err := st.backend.StoreMany(missing); err != nil {
		return err
	}
	c.col.Add(metrics.CounterClusterRebalances, int64(len(missing)))
	c.col.Add(metrics.CounterClusterSpillReuploadBatch, 1)
	c.col.Add(metrics.CounterClusterSpillReuploadBytes, bytes)
	c.mu.Lock()
	for _, h := range missingHandles {
		if ent := c.spill[h]; ent != nil {
			ent.placed[name] = true
		}
	}
	c.mu.Unlock()
	return nil
}

// --- request paths ----------------------------------------------------

// StoreFromRequest serves the cluster /v1/matrices endpoint. Both
// variants materialize the matrix at the coordinator first — that copy
// is the spill the failover path re-uploads from — then place it on
// the key's owner. A re-value is computed from the spill copy (same
// pattern, fresh seeded values), so it works even while the handle's
// owner is down.
func (c *Coordinator) StoreFromRequest(req apiv1.MatrixRequest) (*apiv1.MatrixResponse, error) {
	var m *spgemm.Matrix
	switch {
	case req.Data != nil:
		var err error
		if m, err = req.Data.Matrix(); err != nil {
			return nil, err
		}
	case req.Handle != "":
		c.mu.Lock()
		ent := c.spill[req.Handle]
		c.mu.Unlock()
		if ent == nil {
			return nil, &serve.UnknownHandleError{Handle: req.Handle}
		}
		m = spgemm.Revalue(ent.m, req.ValuesSeed)
	case req.Spec != nil:
		var err error
		if m, err = req.Spec.Build(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("cluster: matrix request needs spec or handle")
	}
	handle, structFP, err := c.storeMatrix(m)
	if err != nil {
		return nil, err
	}
	return &apiv1.MatrixResponse{
		Handle: handle, Rows: m.Rows, Cols: m.Cols, Nnz: m.Nnz(), Bytes: m.Bytes(),
		StructureFP: fmt.Sprintf("%016x", structFP),
	}, nil
}

// StoreBulk places each matrix of the batch through the normal
// store path (ring owner + spill), failing on the first bad entry.
func (c *Coordinator) StoreBulk(req apiv1.MatrixBatchRequest) (*apiv1.MatrixBatchResponse, error) {
	if len(req.Matrices) == 0 {
		return nil, fmt.Errorf("cluster: bulk store needs at least one matrix")
	}
	out := &apiv1.MatrixBatchResponse{Matrices: make([]apiv1.MatrixResponse, 0, len(req.Matrices))}
	for i := range req.Matrices {
		resp, err := c.StoreFromRequest(req.Matrices[i])
		if err != nil {
			return nil, fmt.Errorf("cluster: bulk store entry %d: %w", i, err)
		}
		out.Matrices = append(out.Matrices, *resp)
	}
	return out, nil
}

// StoreMatrix places a matrix on its ring owner and keeps the spill
// copy. Failing owners are condemned and the walk continues to their
// successors.
func (c *Coordinator) StoreMatrix(m *spgemm.Matrix) (string, error) {
	handle, _, err := c.storeMatrix(m)
	return handle, err
}

// storeMatrix is StoreMatrix returning the structural fingerprint it
// routed by as well: the one hash serves the ring key, the spill
// record and the response.
func (c *Coordinator) storeMatrix(m *spgemm.Matrix) (string, uint64, error) {
	c.col.Add(metrics.CounterClusterRequests, 1)
	key := spgemm.Fingerprint(m)
	cands := c.candidates(key)
	if len(cands) == 0 {
		return "", 0, noHealthyReplica()
	}
	c.noteDegradedIfFunneling(len(cands))
	var lastErr error
	for i, name := range cands {
		b := c.backendOf(name)
		if b == nil {
			continue
		}
		handle, err := b.Store(m)
		if err == nil {
			if i > 0 {
				c.col.Add(metrics.CounterClusterFailovers, 1)
			}
			c.col.Add(metrics.CounterClusterRoutes, 1)
			c.recordSpill(handle, m, key, name)
			return handle, key, nil
		}
		lastErr = err
		if errors.Is(err, faults.ErrReplicaDown) {
			c.noteFailure(name, err)
			continue
		}
		return "", 0, err
	}
	return "", 0, lastErr
}

// DeleteMatrix drops a handle everywhere it might live, plus the
// spill copy. The delete broadcasts to every replica rather than
// trusting the placement records: a replica that was condemned and
// revived may still hold copies the coordinator wrote off. True when
// any replica (or the spill) knew the handle.
func (c *Coordinator) DeleteMatrix(handle string) bool {
	c.col.Add(metrics.CounterClusterRequests, 1)
	c.mu.Lock()
	ent := c.spill[handle]
	delete(c.spill, handle)
	targets := make([]Backend, 0, len(c.replicas))
	for _, st := range c.replicas {
		targets = append(targets, st.backend)
	}
	c.mu.Unlock()
	found := ent != nil
	for _, b := range targets {
		if b.Delete(handle) {
			found = true
		}
	}
	return found
}

// Multiply routes one multiply: owner first, ring successors on
// failure, shed retries with backoff against whichever replica shed.
func (c *Coordinator) Multiply(req apiv1.MultiplyRequest) (*apiv1.MultiplyResponse, error) {
	c.col.Add(metrics.CounterClusterRequests, 1)
	key := multiplyKey(req)
	handles := multiplyHandles(req)
	cands := c.candidates(key)
	if len(cands) == 0 {
		return nil, noHealthyReplica()
	}
	c.noteDegradedIfFunneling(len(cands))

	var lastErr error
	for i, name := range cands {
		resp, err := c.multiplyOn(name, req, handles)
		if err == nil {
			if i > 0 {
				c.col.Add(metrics.CounterClusterFailovers, 1)
			}
			c.col.Add(metrics.CounterClusterRoutes, 1)
			return resp, nil
		}
		lastErr = err
		switch {
		case errors.Is(err, faults.ErrReplicaDown):
			c.noteFailure(name, err)
			continue
		case isDraining(err):
			c.setDraining(name)
			continue
		default:
			// Engine failures, deadlines, bad requests and exhausted
			// sheds are the replica's honest answer, not its absence.
			return nil, err
		}
	}
	return nil, lastErr
}

// multiplyOn runs the request on one replica: placement first, then
// the shed-retry loop. An unknown_handle answer means the replica lost
// the operand since placement was recorded (restart, eviction): the
// spill is re-uploaded and the request retried once.
func (c *Coordinator) multiplyOn(name string, req apiv1.MultiplyRequest, handles []string) (*apiv1.MultiplyResponse, error) {
	if err := c.ensurePlaced(name, handles); err != nil {
		return nil, err
	}
	b := c.backendOf(name)
	if b == nil {
		return nil, noHealthyReplica()
	}
	resp, err := c.withShedRetry(func() (*apiv1.MultiplyResponse, error) { return b.Multiply(req) })
	var uh *serve.UnknownHandleError
	if errors.As(err, &uh) && c.reupload(name, handles) {
		resp, err = c.withShedRetry(func() (*apiv1.MultiplyResponse, error) { return b.Multiply(req) })
	}
	if err == nil && req.StoreC && resp.CHandle != "" {
		// The stored product is cluster state now: spill it so failover
		// can re-home it like any client upload.
		if m, ok := b.Matrix(resp.CHandle); ok {
			c.recordSpill(resp.CHandle, m, spgemm.Fingerprint(m), name)
		}
	}
	return resp, err
}

// reupload voids the placement record for the handles on one replica
// and pushes the spill copies again; false when nothing was pushed.
func (c *Coordinator) reupload(name string, handles []string) bool {
	c.mu.Lock()
	any := false
	for _, h := range handles {
		if ent := c.spill[h]; ent != nil && ent.placed[name] {
			delete(ent.placed, name)
			any = true
		}
	}
	c.mu.Unlock()
	if !any {
		return false
	}
	return c.ensurePlaced(name, handles) == nil
}

// withShedRetry runs one replica call with the shed-retry policy:
// capped exponential backoff, Retry-After hint honored, draining
// excluded (a draining replica will not change its mind).
func (c *Coordinator) withShedRetry(call func() (*apiv1.MultiplyResponse, error)) (*apiv1.MultiplyResponse, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := call()
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if isDraining(err) || !faults.Shedding(err) || attempt >= c.cfg.ShedRetries {
			return nil, lastErr
		}
		delay := c.cfg.RetryBase << uint(attempt)
		if hint, ok := serve.RetryAfter(err); ok {
			delay = hint
		}
		if delay > c.cfg.RetryMax {
			delay = c.cfg.RetryMax
		}
		c.col.Add(metrics.CounterClusterRetries, 1)
		c.cfg.Sleep(delay)
	}
}

// Batch routes one DAG as a unit, with the same failover walk as
// Multiply. Keeping the whole batch on one replica is deliberate: its
// nodes share symbolic plans, and splitting them would turn the plan
// group's one cold phase into many.
func (c *Coordinator) Batch(req *apiv1.BatchRequest) (*apiv1.BatchResponse, error) {
	c.col.Add(metrics.CounterClusterRequests, 1)
	key := batchKey(req)
	handles := batchHandles(req)
	cands := c.candidates(key)
	if len(cands) == 0 {
		return nil, noHealthyReplica()
	}
	c.noteDegradedIfFunneling(len(cands))

	var lastErr error
	for i, name := range cands {
		resp, err := c.batchOn(name, req, handles)
		if err == nil {
			if i > 0 {
				c.col.Add(metrics.CounterClusterFailovers, 1)
			}
			c.col.Add(metrics.CounterClusterRoutes, 1)
			return resp, nil
		}
		lastErr = err
		switch {
		case errors.Is(err, faults.ErrReplicaDown):
			c.noteFailure(name, err)
			continue
		case isDraining(err):
			c.setDraining(name)
			continue
		default:
			return nil, err
		}
	}
	return nil, lastErr
}

// batchOn runs the batch on one replica with placement and the
// shed-retry policy.
func (c *Coordinator) batchOn(name string, req *apiv1.BatchRequest, handles []string) (*apiv1.BatchResponse, error) {
	if err := c.ensurePlaced(name, handles); err != nil {
		return nil, err
	}
	b := c.backendOf(name)
	if b == nil {
		return nil, noHealthyReplica()
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := b.Batch(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if isDraining(err) || !faults.Shedding(err) || attempt >= c.cfg.ShedRetries {
			return nil, lastErr
		}
		delay := c.cfg.RetryBase << uint(attempt)
		if hint, ok := serve.RetryAfter(err); ok {
			delay = hint
		}
		if delay > c.cfg.RetryMax {
			delay = c.cfg.RetryMax
		}
		c.col.Add(metrics.CounterClusterRetries, 1)
		c.cfg.Sleep(delay)
	}
}

// isDraining classifies the replica's draining rejection. Checked
// before Shedding everywhere: DrainingError wraps ErrOverloaded, and
// retrying a draining replica would wait on a server that already said
// it will never admit again.
func isDraining(err error) bool {
	var de *serve.DrainingError
	return errors.As(err, &de)
}

// setDraining moves a replica to draining off request-path evidence.
func (c *Coordinator) setDraining(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.replicas[name]; ok {
		c.setHealthLocked(name, HealthDraining)
	}
}

// noteDegradedIfFunneling counts requests served in degraded mode: a
// multi-replica cluster funneling through a single survivor.
func (c *Coordinator) noteDegradedIfFunneling(healthy int) {
	c.mu.Lock()
	size := c.ring.Size()
	c.mu.Unlock()
	if size > 1 && healthy == 1 {
		c.col.Add(metrics.CounterClusterDegraded, 1)
	}
}

// Ready aggregates the cluster readiness: "ready" with every replica
// up, "degraded" while any is not (including the single-survivor
// funnel), "draining" once the coordinator or every replica drains.
func (c *Coordinator) Ready() apiv1.ReadyResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	replicas := make(map[string]string, len(c.replicas))
	up, serving := 0, 0
	for name, st := range c.replicas {
		replicas[name] = st.health
		if st.health == HealthUp {
			up++
		}
		if st.health == HealthUp || st.health == HealthSuspect {
			serving++
		}
	}
	status := apiv1.ReadyStatusReady
	if up < len(c.replicas) {
		status = apiv1.ReadyStatusDegraded
	}
	if c.draining || (len(c.replicas) > 0 && serving == 0) {
		status = apiv1.ReadyStatusDraining
	}
	return apiv1.ReadyResponse{
		Status:   status,
		Draining: c.draining,
		Replicas: replicas,
	}
}

// Snapshot returns the coordinator's own cluster_* counters.
func (c *Coordinator) Snapshot() map[string]int64 { return c.col.Snapshot() }

// Counters merges the coordinator's cluster_* counters with the sum of
// every replica's serving counters — the /metricsz body of the cluster
// endpoint, so dashboards pointed at a single server keep working when
// it becomes a cluster.
func (c *Coordinator) Counters() map[string]int64 {
	c.mu.Lock()
	backends := make([]Backend, 0, len(c.replicas))
	for _, st := range c.replicas {
		backends = append(backends, st.backend)
	}
	c.mu.Unlock()
	out := c.col.Snapshot()
	for _, b := range backends {
		for k, v := range b.Counters() {
			out[k] += v
		}
	}
	return out
}

// Drain drains every replica (in name order) and marks the coordinator
// draining; new requests are rejected by the replicas' own draining
// answers. Returns the merged final counters.
func (c *Coordinator) Drain(timeout time.Duration) map[string]int64 {
	c.mu.Lock()
	c.draining = true
	names := make([]string, 0, len(c.replicas))
	for name := range c.replicas {
		names = append(names, name)
	}
	sort.Strings(names)
	backends := make([]Backend, 0, len(names))
	for _, name := range names {
		backends = append(backends, c.replicas[name].backend)
		c.setHealthLocked(name, HealthDraining)
	}
	c.mu.Unlock()
	for _, b := range backends {
		b.Drain(timeout)
	}
	return c.Counters()
}
