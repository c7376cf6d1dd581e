// Package summa implements distributed-memory sparse SUMMA SpGEMM on
// a simulated cluster — the algorithm behind the paper's reference
// [33] (Selvitopi et al., "Optimizing high performance Markov
// clustering for pre-exascale architectures"), which the related-work
// section singles out as the CPU-GPU distributed counterpart of the
// paper's single-node framework.
//
// The classic 2-D SUMMA formulation runs on a q x q process grid: A
// and B are partitioned into q x q blocks, C(i,j) lives on process
// (i,j), and in stage k process (i,j) receives A(i,k) (broadcast along
// its process row) and B(k,j) (broadcast along its process column),
// multiplies them and accumulates into its local C block. As
// everywhere in this repository, the arithmetic is real (the returned
// matrix is exact) while time comes from a cluster cost model: tree
// broadcasts over links with finite bandwidth and latency, and a
// per-node compute model.
package summa

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim"
)

// Cluster describes the simulated cluster.
type Cluster struct {
	// Q is the process-grid side: Q*Q nodes. Zero means 1.
	Q int
	// NetBandwidth is the per-link bandwidth in bytes/second; zero
	// means 10 GB/s (a 100 Gb/s fabric).
	NetBandwidth float64
	// NetLatency is the per-message latency in seconds; zero means
	// 5 microseconds.
	NetLatency float64
	// NodeFlopRate is a node's effective SpGEMM throughput in flops/s;
	// zero means 2 GFLOP/s (one multicore CPU node, matching the
	// hybrid package's host model).
	NodeFlopRate float64
	// Pipelined enables the pipelined variant of reference [33]: block
	// fetches run ahead of the computation and the per-stage global
	// barrier is dropped, so a node proceeds as soon as its own blocks
	// arrive. This is what lets band-structured matrices (whose work
	// concentrates in one stage per node) scale.
	Pipelined bool
}

// Config is one run on a simulated cluster: the cluster, and the run's
// host threads, metrics sink and deadline.
type Config struct {
	Cluster
	// Threads bounds the real computation's parallelism per block
	// multiply (0 = GOMAXPROCS).
	Threads int
	// Metrics is an optional observability sink receiving the cluster
	// timeline (net and compute lanes) and the run counters.
	Metrics *metrics.Collector
	// DeadlineSec aborts the run with faults.ErrDeadline once the
	// simulated clock passes it (checked between SUMMA stages). 0 means
	// no deadline.
	DeadlineSec float64
}

func (c Config) withDefaults() Config {
	if c.Q < 1 {
		c.Q = 1
	}
	if c.NetBandwidth == 0 {
		c.NetBandwidth = 10e9
	}
	if c.NetLatency == 0 {
		c.NetLatency = 5e-6
	}
	if c.NodeFlopRate == 0 {
		c.NodeFlopRate = 2e9
	}
	return c
}

// Stats reports a distributed run.
type Stats struct {
	// Totals: TotalSec is the simulated makespan of all stages.
	metrics.Totals
	// CommSec and CompSec are the maximum per-node communication and
	// computation times (the critical path splits).
	CommSec, CompSec float64
	// Nodes is Q*Q.
	Nodes int
	// NetBytes is the total payload broadcast over the fabric.
	NetBytes int64
}

// Counters returns the flat key/value snapshot of the run.
func (s Stats) Counters() map[string]int64 {
	return map[string]int64{
		metrics.CounterFlops: s.Flops,
		metrics.CounterNnzC:  s.NnzC,
		"nodes":              int64(s.Nodes),
		"net_bytes":          s.NetBytes,
	}
}

// block is one distributed block of a matrix with its global offsets.
type block struct {
	m        *csr.Matrix
	rowStart int
	colStart int
}

// partition2D splits m into q x q blocks using even boundaries.
func partition2D(m *csr.Matrix, q int) ([][]block, error) {
	rows, err := partition.RowPanels(m, q)
	if err != nil {
		return nil, err
	}
	out := make([][]block, q)
	for i, rp := range rows {
		cps, err := partition.ColPanels(rp.M, q)
		if err != nil {
			return nil, err
		}
		out[i] = make([]block, q)
		for j, cp := range cps {
			out[i][j] = block{m: cp.M, rowStart: rp.Start, colStart: cp.Start}
		}
	}
	return out, nil
}

// Run multiplies A·B with sparse SUMMA on a simulated Q x Q cluster.
func Run(a, b *csr.Matrix, cfg Config) (*csr.Matrix, Stats, error) {
	if a.Cols != b.Rows {
		return nil, Stats{}, fmt.Errorf("summa: dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	cfg = cfg.withDefaults()
	q := cfg.Q
	if q > a.Rows || q > a.Cols || q > b.Cols {
		return nil, Stats{}, fmt.Errorf("summa: grid %dx%d too fine for %dx%d · %dx%d", q, q, a.Rows, a.Cols, b.Rows, b.Cols)
	}

	// Distribute. A's column blocks and B's row blocks share the inner
	// boundaries, so local indices line up.
	ab, err := partition2D(a, q)
	if err != nil {
		return nil, Stats{}, err
	}
	bb, err := partition2D(b, q)
	if err != nil {
		return nil, Stats{}, err
	}

	// bcast models a binomial-tree broadcast among q nodes.
	bcast := func(bytes int64) float64 {
		if q == 1 {
			return 0
		}
		steps := bits.Len(uint(q - 1)) // ceil(log2(q))
		return float64(steps) * (cfg.NetLatency + float64(bytes)/cfg.NetBandwidth)
	}

	env := sim.NewEnv()
	type nodeState struct {
		c       *csr.Matrix // local C block
		commSec float64
		compSec float64
		err     error
	}
	nodes := make([][]nodeState, q)
	for i := range nodes {
		nodes[i] = make([]nodeState, q)
	}

	// Stage barrier for the plain variant: all nodes finish stage k
	// before k+1 (the broadcasts are collectives). The pipelined
	// variant drops it and instead gates each node on its own fetches.
	barriers := make([]*sim.Signal, q+1)
	for k := range barriers {
		barriers[k] = &sim.Signal{}
	}
	arrived := make([]int, q+1)

	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			i, j := i, j
			env.Spawn(fmt.Sprintf("node(%d,%d)", i, j), func(p *sim.Proc) {
				st := &nodes[i][j]

				// stageComm is the node's receive time for stage k.
				stageComm := func(k int) float64 {
					var comm float64
					if k != j {
						comm += bcast(ab[i][k].m.Bytes())
					}
					if k != i {
						comm += bcast(bb[k][j].m.Bytes())
					}
					return comm
				}

				// Pipelined mode: a fetcher process runs the receives
				// ahead of the compute loop.
				var fetched []*sim.Signal
				if cfg.Pipelined {
					fetched = make([]*sim.Signal, q)
					for k := range fetched {
						fetched[k] = &sim.Signal{}
					}
					env.Spawn(fmt.Sprintf("fetch(%d,%d)", i, j), func(f *sim.Proc) {
						for k := 0; k < q; k++ {
							if comm := stageComm(k); comm > 0 {
								f.Span("net", fmt.Sprintf("n(%d,%d) stage %d", i, j, k), sim.Seconds(comm))
								st.commSec += comm
							}
							fetched[k].Fire(f)
						}
					})
				}

				for k := 0; k < q; k++ {
					if d := cfg.DeadlineSec; d > 0 && sim.SecondsAt(env.Now()) > d {
						st.err = fmt.Errorf("summa: node(%d,%d) stage %d: %w: simulated clock at %.6fs past %.6fs",
							i, j, k, faults.ErrDeadline, sim.SecondsAt(env.Now()), d)
						return
					}
					if cfg.Pipelined {
						p.Await(fetched[k])
					} else if comm := stageComm(k); comm > 0 {
						p.Span("net", fmt.Sprintf("n(%d,%d) stage %d", i, j, k), sim.Seconds(comm))
						st.commSec += comm
					}
					// Local multiply-accumulate (real arithmetic).
					prod, err := cpuspgemm.Multiply(ab[i][k].m, bb[k][j].m, cpuspgemm.Options{Threads: cfg.Threads})
					if err != nil {
						st.err = err
						return
					}
					flops := csr.Flops(ab[i][k].m, bb[k][j].m)
					comp := float64(flops) / cfg.NodeFlopRate
					if comp > 0 {
						p.Span("compute", fmt.Sprintf("n(%d,%d) stage %d", i, j, k), sim.Seconds(comp))
						st.compSec += comp
					}
					if st.c == nil {
						st.c = prod
					} else if st.c, err = csr.Add(st.c, prod); err != nil {
						st.err = err
						return
					}
					if !cfg.Pipelined {
						// Barrier.
						arrived[k]++
						if arrived[k] == q*q {
							barriers[k].Fire(p)
						} else {
							p.Await(barriers[k])
						}
					}
				}
			})
		}
	}
	if err := env.Run(); err != nil {
		// A node that aborts at the deadline strands its peers at the
		// stage barrier; surface the typed node error over the kernel's
		// deadlock report.
		for i := 0; i < q; i++ {
			for j := 0; j < q; j++ {
				if nodes[i][j].err != nil {
					return nil, Stats{}, nodes[i][j].err
				}
			}
		}
		return nil, Stats{}, err
	}

	st := Stats{Nodes: q * q}
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			n := &nodes[i][j]
			if n.err != nil {
				return nil, Stats{}, n.err
			}
			st.CommSec = math.Max(st.CommSec, n.commSec)
			st.CompSec = math.Max(st.CompSec, n.compSec)
			for k := 0; k < q; k++ {
				if k != j {
					st.NetBytes += ab[i][k].m.Bytes()
				}
				if k != i {
					st.NetBytes += bb[k][j].m.Bytes()
				}
			}
		}
	}

	// Assemble the distributed C (left distributed in [33]; gathered
	// here for verification, at no simulated cost).
	rowBounds := partition.Bounds(a.Rows, q)
	colBounds := partition.Bounds(b.Cols, q)
	c, err := core.AssembleChunks(a.Rows, b.Cols, q, q,
		func(i, j int) *csr.Matrix { return nodes[i][j].c },
		func(i int) int { return rowBounds[i] },
		func(j int) int { return colBounds[j] },
	)
	if err != nil {
		return nil, Stats{}, err
	}
	st.Totals = metrics.NewTotals(sim.SecondsAt(env.Now()), csr.Flops(a, b), c.Nnz())
	if m := cfg.Metrics; m != nil {
		m.ImportSim(env.Timeline)
		for k, v := range st.Counters() {
			m.Add(k, v)
		}
	}
	return c, st, nil
}
