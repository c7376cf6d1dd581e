// Package multigpu extends the out-of-core framework to several GPUs
// on one node — the scaling direction the paper's conclusion points to
// ("our ultimate goal of continuing to scale SpGEMM computations to
// arbitrarily large matrices").
//
// The chunk grid of Algorithm 3 already makes chunks independent, so
// multi-GPU execution is a scheduling problem: chunks are sorted by
// decreasing flops and assigned greedily to the least-loaded GPU (LPT
// scheduling), each GPU runs the asynchronous out-of-core pipeline
// over its share, and an optional CPU worker takes a trailing share of
// the flops exactly as in the hybrid engine. Every simulated GPU has
// its own DMA engines (cards on separate PCIe slots); all share one
// virtual clock.
//
// Chunk independence is also what makes the engine fault-tolerant: a
// chunk that fails on one device (retries exhausted, or the device
// lost mid-run) is handed to a small controller that redistributes it
// — to a surviving GPU while one exists and the chunk's redistribution
// budget lasts, otherwise to the CPU worker. Only chunks with no
// remaining healthy worker strand the run in a typed error.
package multigpu

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/hybrid"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// maxRedistributes bounds how many times one chunk may bounce between
// GPUs before it is sent to the CPU (or stranded); it prevents a
// livelock where an unlucky chunk ping-pongs among degraded devices.
const maxRedistributes = 2

// Options configures a multi-GPU run.
type Options struct {
	// Core configures the chunk grid and the per-GPU pipeline (Async
	// is forced on). Core.Faults seeds a per-device injector derived
	// from the base seed, so each GPU replays an independent but
	// deterministic fault stream.
	Core core.Options
	// NumGPUs is the device count; 0 means 1.
	NumGPUs int
	// UseCPU adds a CPU worker taking the trailing (1-Ratio) share of
	// flops.
	UseCPU bool
	// Ratio is the collective GPU flop share when UseCPU is set; zero
	// means hybrid.DefaultRatio.
	Ratio float64
	// Host is the CPU cost model; zero value means the default.
	Host hybrid.HostModel
	// Metrics is an optional observability sink receiving the shared
	// timeline of all devices plus aggregate counters.
	Metrics *metrics.Collector
}

// Stats reports a multi-GPU run.
type Stats struct {
	// TotalSec is the simulated makespan; Flops and GFLOPS as usual.
	TotalSec float64
	Flops    int64
	GFLOPS   float64
	NnzC     int64
	// GPUChunks[i] is the chunk count scheduled on GPU i (its initial
	// share plus any chunks it adopted); CPUChunks the CPU worker's
	// count.
	GPUChunks []int
	CPUChunks int
	// GPUBusySec[i] is the finish time of GPU i's worker.
	GPUBusySec []float64
	// BytesH2D and BytesD2H sum the payload bytes moved by all devices.
	BytesH2D, BytesD2H int64
	// Retries and Abandoned sum the per-device transient-fault
	// recovery counters (see core.Stats).
	Retries, Abandoned int64
	// Failovers counts chunk redistributions off a failing device;
	// FallbackChunks the subset absorbed by the CPU worker; LostGPUs
	// the devices that died mid-run.
	Failovers      int
	FallbackChunks int
	LostGPUs       int
}

// Seconds returns the simulated makespan; part of metrics.Report.
func (s Stats) Seconds() float64 { return s.TotalSec }

// FlopCount returns the multiply-add flop count (x2) of the product.
func (s Stats) FlopCount() int64 { return s.Flops }

// Throughput returns the run's GFLOPS.
func (s Stats) Throughput() float64 { return s.GFLOPS }

// OutputNnz returns the product's non-zero count.
func (s Stats) OutputNnz() int64 { return s.NnzC }

// Counters returns the flat key/value snapshot of the run.
func (s Stats) Counters() map[string]int64 {
	var gpuChunks int64
	for _, n := range s.GPUChunks {
		gpuChunks += int64(n)
	}
	return map[string]int64{
		metrics.CounterFlops:       s.Flops,
		metrics.CounterBytesH2D:    s.BytesH2D,
		metrics.CounterBytesD2H:    s.BytesD2H,
		metrics.CounterChunks:      gpuChunks + int64(s.CPUChunks),
		metrics.CounterNnzC:        s.NnzC,
		"gpus":                     int64(len(s.GPUChunks)),
		"gpu_chunks":               gpuChunks,
		"cpu_chunks":               int64(s.CPUChunks),
		metrics.CounterRetries:     s.Retries,
		metrics.CounterAbandoned:   s.Abandoned,
		metrics.CounterFailovers:   int64(s.Failovers),
		metrics.CounterFallbacks:   int64(s.FallbackChunks),
		metrics.CounterDevicesLost: int64(s.LostGPUs),
	}
}

// Assign distributes chunk ids over n workers with longest-processing-
// time-first greedy scheduling on their flop counts. It returns one id
// list per worker, each sorted by decreasing flops (the §IV-C order).
func Assign(ids []int, flops []int64, n int) [][]int {
	sorted := append([]int(nil), ids...)
	sort.SliceStable(sorted, func(i, j int) bool { return flops[sorted[i]] > flops[sorted[j]] })
	out := make([][]int, n)
	load := make([]int64, n)
	for _, id := range sorted {
		// Least-loaded worker (ties to the lowest index).
		w := 0
		for i := 1; i < n; i++ {
			if load[i] < load[w] {
				w = i
			}
		}
		out[w] = append(out[w], id)
		load[w] += flops[id]
	}
	return out
}

// controller owns the failover state shared by all workers. It is only
// touched from simulation processes — the discrete-event kernel runs
// exactly one at a time, so the plain fields need no locking and every
// decision lands in deterministic order.
type controller struct {
	orphans  []int // chunks awaiting adoption by a surviving GPU
	cpuQueue []int // chunks past their GPU budget, bound for the CPU
	stranded map[int]error
	tries    map[int]int
	aliveGPU int
	busy     int // workers currently processing (not waiting/exited)
	hasCPU   bool
	sig      *sim.Signal

	failovers int
}

// wake signals every waiting worker (work arrived or a worker left)
// and arms a fresh signal for the next round of waiters.
func (c *controller) wake(p *sim.Proc) {
	old := c.sig
	c.sig = &sim.Signal{}
	old.Fire(p)
}

// route disposes of the chunks a worker reports as failed: recoverable
// ones go back into circulation (surviving GPUs first, then the CPU),
// the rest are stranded. The reporting engine's failed set is cleared
// — the chunks are the controller's problem now.
func (c *controller) route(eng *core.Engine, failed []int, fromGPU bool) {
	for _, id := range failed {
		err := eng.Failed()[id]
		eng.ClearFailed(id)
		if !core.IsRecoverable(err) {
			c.stranded[id] = err
			continue
		}
		if fromGPU {
			c.failovers++
		}
		c.tries[id]++
		switch {
		case c.aliveGPU > 0 && c.tries[id] <= maxRedistributes:
			c.orphans = append(c.orphans, id)
		case c.hasCPU:
			c.cpuQueue = append(c.cpuQueue, id)
		default:
			c.stranded[id] = err
		}
	}
}

// gpuDied retires a lost device. With no GPU left, pending orphans are
// pushed to the CPU queue (or stranded when there is no CPU worker).
func (c *controller) gpuDied(p *sim.Proc) {
	c.aliveGPU--
	c.busy--
	if c.aliveGPU == 0 {
		for _, id := range c.orphans {
			if c.hasCPU {
				c.cpuQueue = append(c.cpuQueue, id)
			} else {
				c.stranded[id] = fmt.Errorf("multigpu: chunk %d: no surviving worker: %w", id, faults.ErrDeviceLost)
			}
		}
		c.orphans = nil
	}
	c.wake(p)
}

// take empties one of the controller's queues, preserving order.
func take(q *[]int) []int {
	batch := *q
	*q = nil
	return batch
}

// Run multiplies A·B across NumGPUs simulated devices (plus optionally
// the CPU) and returns the exact product and statistics.
func Run(a, b *csr.Matrix, cfg gpusim.DeviceConfig, opts Options) (*csr.Matrix, Stats, error) {
	if opts.NumGPUs < 1 {
		opts.NumGPUs = 1
	}
	if opts.Ratio <= 0 {
		// Generalize the paper's Ratio = S/(S+1) to N GPUs: the GPUs
		// collectively deliver N·S CPU-equivalents, so they take
		// N·S/(N·S+1) of the flops.
		s := hybrid.DefaultRatio / (1 - hybrid.DefaultRatio)
		ns := float64(opts.NumGPUs) * s
		opts.Ratio = ns / (ns + 1)
	}
	if opts.Host == (hybrid.HostModel{}) {
		opts.Host = hybrid.DefaultHostModel()
	}
	opts.Core.Async = true
	opts.Core.Reorder = false // Assign already orders each share

	env := sim.NewEnv()

	// One engine per GPU, each with an independently seeded injector,
	// all working on the first one's product. Each GPU records
	// plan-cache panel residency under its own namespace; a shared one
	// would let one device's residency masquerade as another's.
	engines := make([]*core.Engine, opts.NumGPUs)
	opts.Core.PlanDevice = "dev0"
	var err error
	for g := range engines {
		dev := gpusim.NewDevice(env, cfg)
		if opts.Core.Faults.Enabled() {
			dev.SetFaults(faults.New(opts.Core.Faults.Derive(g)))
		}
		if g > 0 {
			engines[g] = engines[0].OnDevice(dev, fmt.Sprintf("dev%d", g))
		} else if engines[0], err = core.NewEngine(dev, a, b, opts.Core); err != nil {
			return nil, Stats{}, err
		}
		// Release each device's allocations and publish the leak-audit
		// counter on every exit path, including deadline aborts.
		defer engines[g].Teardown()
	}
	flops := engines[0].ChunkFlops()
	var totalFlops int64
	for _, f := range flops {
		totalFlops += f
	}

	// Optional CPU share: the trailing chunks by flops, as in the
	// hybrid engine.
	all := make([]int, len(flops))
	for i := range all {
		all[i] = i
	}
	gpuIDs, cpuIDs := all, []int(nil)
	if opts.UseCPU {
		gpuIDs, cpuIDs = hybrid.Split(flops, opts.Ratio, true)
	}
	shares := Assign(gpuIDs, flops, opts.NumGPUs)

	st := Stats{
		Flops:      totalFlops,
		GPUChunks:  make([]int, opts.NumGPUs),
		GPUBusySec: make([]float64, opts.NumGPUs),
		CPUChunks:  len(cpuIDs),
	}

	// The CPU worker exists when it has an initial share, or (under
	// fault injection) as the adopter of last resort for chunks no GPU
	// can finish.
	spawnCPU := len(cpuIDs) > 0 || (opts.UseCPU && opts.Core.Faults.Enabled())
	ctl := &controller{
		stranded: map[int]error{},
		tries:    map[int]int{},
		aliveGPU: opts.NumGPUs,
		busy:     opts.NumGPUs,
		hasCPU:   spawnCPU,
		sig:      &sim.Signal{},
	}
	if spawnCPU {
		ctl.busy++
	}

	for g := range engines {
		g := g
		st.GPUChunks[g] = len(shares[g])
		env.Spawn(fmt.Sprintf("gpu%d", g), func(p *sim.Proc) {
			eng := engines[g]
			failed := eng.ProcessChunks(p, shares[g])
			st.GPUBusySec[g] = sim.SecondsAt(env.Now())
			for {
				ctl.route(eng, failed, true)
				failed = nil
				if eng.DeviceLost() {
					ctl.gpuDied(p)
					return
				}
				batch := take(&ctl.orphans)
				if batch == nil {
					// Nothing to adopt; wait for redistributed work or
					// for every worker to go idle (global termination).
					ctl.busy--
					for batch == nil {
						if ctl.busy == 0 {
							ctl.wake(p)
							return
						}
						sig := ctl.sig
						p.Await(sig)
						batch = take(&ctl.orphans)
					}
					ctl.busy++
				}
				failed = eng.ProcessChunks(p, batch)
				st.GPUBusySec[g] = sim.SecondsAt(env.Now())
				st.GPUChunks[g] += len(batch)
			}
		})
	}
	if spawnCPU {
		env.Spawn("cpu", func(p *sim.Proc) {
			wholeSec := opts.Host.WholeSeconds(engines[0].RowAnalysis())
			runIDs := func(ids []int, label string) error {
				for _, id := range ids {
					if err := engines[0].HostChunk(p, id, label, wholeSec, opts.Host.Threads); err != nil {
						return err
					}
				}
				return nil
			}
			if runIDs(cpuIDs, "chunk") != nil { // recorded on the engine
				ctl.busy--
				ctl.wake(p)
				return
			}
			for {
				batch := take(&ctl.cpuQueue)
				if batch == nil {
					ctl.busy--
					for batch == nil {
						if ctl.busy == 0 {
							ctl.wake(p)
							return
						}
						sig := ctl.sig
						p.Await(sig)
						batch = take(&ctl.cpuQueue)
					}
					ctl.busy++
				}
				// Adopted chunks run on the real CPU engine — the exact
				// product either way, only the schedule pays.
				if runIDs(batch, "fallback chunk") != nil {
					ctl.busy--
					ctl.wake(p)
					return
				}
				st.FallbackChunks += len(batch)
				st.CPUChunks += len(batch)
			}
		})
	}
	if err := env.Run(); err != nil {
		return nil, Stats{}, err
	}
	for _, eng := range engines {
		if eng.Err() != nil {
			return nil, Stats{}, eng.Err()
		}
	}
	st.Failovers = ctl.failovers
	st.LostGPUs = opts.NumGPUs - ctl.aliveGPU
	for _, eng := range engines {
		st.Retries += eng.Retries()
		st.Abandoned += eng.Abandoned()
	}
	// Anything still failed or queued at this point has no worker left
	// to run it: surface a typed error instead of a partial product.
	leftover := append(take(&ctl.orphans), take(&ctl.cpuQueue)...)
	for _, id := range leftover {
		ctl.stranded[id] = fmt.Errorf("multigpu: chunk %d: no surviving worker: %w", id, faults.ErrDeviceLost)
	}
	for _, eng := range engines {
		if err := eng.FailedError(); err != nil {
			return nil, Stats{}, err
		}
	}
	if len(ctl.stranded) > 0 {
		ids := make([]int, 0, len(ctl.stranded))
		for id := range ctl.stranded {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return nil, Stats{}, fmt.Errorf("multigpu: %d chunks stranded (first: chunk %d): %w",
			len(ids), ids[0], ctl.stranded[ids[0]])
	}

	c, err := engines[0].Assemble()
	if err != nil {
		return nil, Stats{}, err
	}
	st.TotalSec = sim.SecondsAt(env.Now())
	st.NnzC = c.Nnz()
	if st.TotalSec > 0 {
		st.GFLOPS = float64(totalFlops) / st.TotalSec / 1e9
	}
	for _, eng := range engines {
		st.BytesH2D += eng.Dev.BytesH2D()
		st.BytesD2H += eng.Dev.BytesD2H()
	}
	if m := opts.Metrics; m != nil {
		m.ImportSim(env.Timeline)
		for k, v := range st.Counters() {
			m.Add(k, v)
		}
		for _, eng := range engines {
			for kind, n := range eng.Dev.Faults().Counts() {
				m.Add("faults_injected_"+kind, n)
			}
		}
	}
	return c, st, nil
}
