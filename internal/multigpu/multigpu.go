// Package multigpu is the one out-of-core driver: any number of
// simulated GPUs on one node, optionally beside the CPU worker. Its zero
// node — one GPU, no CPU worker — is the paper's out-of-core GPU
// framework (Section III-B), in either pipeline mode. With one GPU and
// the CPU it is the paper's hybrid engine (Section III-C, Algorithm 4:
// the split policy lives in internal/hybrid); with more GPUs it is the
// scaling direction the paper's conclusion points to ("our ultimate goal
// of continuing to scale SpGEMM computations to arbitrarily large
// matrices").
//
// The chunk grid of Algorithm 3 already makes chunks independent, so
// multi-worker execution is a scheduling problem: the flop count of
// every chunk is computed up front, chunks are sorted by decreasing
// flops, the leading share — Ratio = N·S/(N·S+1) of the flops for N GPUs
// each S times the CPU's speed, the paper's S/(S+1) at N = 1 — is
// assigned greedily to the least-loaded GPU (LPT scheduling) and the
// trailing chunks to the CPU worker (the multi-core hash SpGEMM of
// Nagasaka et al.). Each GPU runs the out-of-core pipeline over its
// share while the CPU worker processes the remainder concurrently; the
// run ends when all finish. Every simulated GPU has its own DMA engines
// (cards on separate PCIe slots); all share one virtual clock.
//
// Chunk independence is also what makes the driver fault-tolerant: a
// chunk that fails on one device (retries exhausted, or the device
// lost mid-run) is handed to a small controller that redistributes it
// — to the GPUs while another one is alive and the chunk's
// redistribution budget lasts, otherwise to the CPU worker. Only chunks
// with no remaining healthy worker strand the run in a typed error.
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
	"repro/internal/parallel"
	"repro/internal/sim"
)

// maxRedistributes bounds how many times one chunk may bounce between
// GPUs before it is sent to the CPU (or stranded); it prevents a
// livelock where an unlucky chunk ping-pongs among degraded devices.
const maxRedistributes = 2

// Options configures a run of the driver.
type Options struct {
	// Core configures the chunk grid and the per-GPU pipeline: Core.Async
	// picks the paper's asynchronous pipeline over the synchronous
	// baseline. Core.Reorder schedules chunks by decreasing flops — the
	// paper's design — before they are split and placed; false is the
	// row-major "default implementation" of Figure 9. Core.Faults seeds
	// device 0's injector, and every further device's is derived from
	// it, so each GPU replays an independent but deterministic fault
	// stream. Core.Metrics receives the shared timeline of all workers
	// plus the run's counters.
	Core core.Options
	// NumGPUs is the device count; 0 means 1.
	NumGPUs int
	// UseCPU adds a CPU worker taking the trailing (1-Ratio) share of
	// flops. One GPU and the CPU worker is the paper's hybrid engine.
	UseCPU bool
	// Ratio is the collective GPU flop share when UseCPU is set; zero
	// means N·S/(N·S+1) for the S behind hybrid.DefaultRatio.
	Ratio float64
	// Host is the CPU cost model; zero value means the default.
	Host hybrid.HostModel
	// ForceGPUChunks, when positive and UseCPU is set, overrides Ratio
	// and assigns exactly this many chunks (in schedule order) to the
	// GPUs. The exhaustive search behind the paper's Table III uses it.
	ForceGPUChunks int
}

// Stats extends the core stats — time and flop totals, and the
// per-device counters summed over the GPUs (MemPeakBytes: their maximum)
// — with the split between the workers.
type Stats struct {
	core.Stats
	// GPUChunks[i] and CPUChunks count the chunks the split placed on
	// GPU i and on the CPU worker, GPUFlops and CPUFlops the flops on
	// either side of it; chunks that moved afterwards are counted below.
	GPUChunks          []int
	CPUChunks          int
	GPUFlops, CPUFlops int64
	// Failovers counts chunk redistributions off a failing device;
	// FallbackChunks the subset absorbed by the CPU worker (graceful
	// degradation); LostGPUs the devices that died mid-run.
	Failovers      int
	FallbackChunks int
	LostGPUs       int
}

// Counters extends the core counters with the split, keeping Stats a
// metrics.Report (Seconds, FlopCount, ... promote from core.Stats).
func (s Stats) Counters() map[string]int64 {
	var gpuChunks int64
	for _, n := range s.GPUChunks {
		gpuChunks += int64(n)
	}
	out := s.Stats.Counters()
	out["gpus"] = int64(len(s.GPUChunks))
	out["gpu_chunks"] = gpuChunks
	out["cpu_chunks"] = int64(s.CPUChunks)
	out["gpu_flops"] = s.GPUFlops
	out["cpu_flops"] = s.CPUFlops
	out[metrics.CounterFailovers] = int64(s.Failovers)
	out[metrics.CounterFallbacks] = int64(s.FallbackChunks)
	out[metrics.CounterDevicesLost] = int64(s.LostGPUs)
	return out
}

// Assign places chunk ids on n workers greedily, each on the least-
// loaded worker so far by flops, in the order given: over ids sorted by
// decreasing flops (hybrid.Split with reorder) that is longest-
// processing-time-first scheduling and every share comes out in the
// §IV-C order; over row-major ids every share stays row-major.
func Assign(ids []int, flops []int64, n int) [][]int {
	out := make([][]int, n)
	load := make([]int64, n)
	for _, id := range ids {
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

// route disposes of the chunks a GPU worker reports as failed:
// recoverable ones go back into circulation, the rest are stranded. A
// chunk goes back to the GPUs only while a GPU other than the reporter
// is alive (and its redistribution budget lasts) — the device that just
// spent the chunk's retry budget is not handed it again as the only
// candidate — and otherwise to the CPU; with one GPU that is the paper's
// hybrid degradation, straight to the CPU worker. The reporting engine's
// failed set is cleared — the chunks are the controller's problem now.
func (c *controller) route(eng *core.Engine, failed []int) {
	for _, id := range failed {
		err := eng.Failed()[id]
		eng.ClearFailed(id)
		if !core.IsRecoverable(err) {
			c.stranded[id] = err
			continue
		}
		c.failovers++
		c.tries[id]++
		switch {
		case c.aliveGPU > 1 && c.tries[id] <= maxRedistributes:
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
	if c.aliveGPU == 0 {
		for _, id := range c.orphans {
			if c.hasCPU {
				c.cpuQueue = append(c.cpuQueue, id)
			} else {
				c.stranded[id] = strandedErr(id)
			}
		}
		c.orphans = nil
	}
	c.leave(p)
}

// cpuFailed retires the CPU worker after a terminal error (recorded on
// the engine, so the run returns it): what is queued for it, or routed
// its way from now on, has no worker left.
func (c *controller) cpuFailed(p *sim.Proc) {
	c.hasCPU = false
	c.cpuQueue = nil
	c.leave(p)
}

// leave retires a worker that will take no more work.
func (c *controller) leave(p *sim.Proc) {
	c.busy--
	c.wake(p)
}

// next returns the worker's next batch from its queue, in arrival order.
// An empty queue parks the worker until redistributed work arrives; nil
// means global termination — every worker idle and nothing queued for
// any of them — and the caller exits. The last worker to go idle rouses
// the others either way: to exit with it, or because what it just routed
// sits in a parked worker's queue. (Idle workers alone do not end the
// run: a worker woken beside the one the queued work is for would leave,
// and be missing when that work fails over to it in turn.)
func (c *controller) next(p *sim.Proc, q *[]int) []int {
	batch := take(q)
	if batch != nil {
		return batch
	}
	c.busy--
	for batch == nil {
		if c.busy == 0 {
			c.wake(p)
			if len(c.orphans)+len(c.cpuQueue) == 0 {
				return nil
			}
		}
		p.Await(c.sig)
		batch = take(q)
	}
	c.busy++
	return batch
}

// take empties one of the controller's queues, preserving order.
func take(q *[]int) []int {
	batch := *q
	*q = nil
	return batch
}

func strandedErr(id int) error {
	return fmt.Errorf("multigpu: chunk %d: no surviving worker: %w", id, faults.ErrDeviceLost)
}

// Run multiplies A·B across NumGPUs simulated devices (plus optionally
// the CPU) and returns the exact product and statistics. It is the one
// program that runs an out-of-core product: the paper's GPU-only
// framework is the zero node (one GPU, no UseCPU), its hybrid engine
// NumGPUs 1 with UseCPU.
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

	env := sim.NewEnv()

	// One engine per GPU, all working on the first one's product, whose
	// rows are computed once on the run's host lanes: the CPU worker's
	// Threads (0 means GOMAXPROCS) plus one lane per GPU (DESIGN.md §8).
	// Device 0 keeps
	// the base fault seed (core attaches it), so every node replays the
	// same stream on GPU 0; every further device derives its own. Each
	// GPU records plan-cache panel residency under its own namespace
	// (dev0 for the first); a shared one would let one device's residency
	// masquerade as another's.
	engines := make([]*core.Engine, opts.NumGPUs)
	lanes := parallel.Workers(opts.Host.Threads) + opts.NumGPUs
	var err error
	for g := range engines {
		dev := gpusim.NewDevice(env, cfg)
		if g > 0 {
			if opts.Core.Faults.Enabled() {
				dev.SetFaults(faults.New(opts.Core.Faults.Derive(g)))
			}
			engines[g] = engines[0].OnDevice(dev, fmt.Sprintf("dev%d", g))
		} else if engines[0], err = core.NewEngine(dev, a, b, opts.Core, lanes); err != nil {
			return nil, Stats{}, err
		}
		// Release each device's allocations and publish the leak-audit
		// counter on every exit path, including deadline aborts; on a
		// failed run that also stops C's arithmetic.
		defer engines[g].Teardown()
	}
	eng0 := engines[0]
	flops := eng0.ChunkFlops()

	// Algorithm 4: the schedule order's prefix goes to the GPUs, the
	// trailing chunks to the CPU worker; without one the GPUs take all.
	prefix := opts.ForceGPUChunks
	if !opts.UseCPU {
		prefix = len(flops)
	}
	var gpuIDs, cpuIDs []int
	if prefix > 0 {
		gpuIDs, cpuIDs = hybrid.SplitCount(flops, prefix, opts.Core.Reorder)
	} else {
		gpuIDs, cpuIDs = hybrid.Split(flops, opts.Ratio, opts.Core.Reorder)
	}
	shares := Assign(gpuIDs, flops, opts.NumGPUs)

	st := Stats{GPUChunks: make([]int, opts.NumGPUs), CPUChunks: len(cpuIDs)}
	for _, id := range gpuIDs {
		st.GPUFlops += flops[id]
	}
	for _, id := range cpuIDs {
		st.CPUFlops += flops[id]
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

	for g := range engines {
		eng, share := engines[g], shares[g]
		st.GPUChunks[g] = len(share)
		env.Spawn(fmt.Sprintf("gpu%d", g), func(p *sim.Proc) {
			batch := share
			for {
				ctl.route(eng, eng.ProcessChunks(p, batch))
				if eng.DeviceLost() {
					ctl.gpuDied(p)
					return
				}
				if batch = ctl.next(p, &ctl.orphans); batch == nil {
					return
				}
			}
		})
	}
	if spawnCPU {
		ctl.busy++
		env.Spawn("cpu", func(p *sim.Proc) {
			// The CPU worker is priced from the whole matrix's row
			// analysis; Engine.HostChunk prorates it over the chunks it
			// computes.
			wholeSec := opts.Host.WholeSeconds(eng0.RowAnalysis())
			runIDs := func(ids []int, label string) bool {
				for _, id := range ids {
					if eng0.HostChunk(p, id, label, wholeSec) != nil {
						ctl.cpuFailed(p)
						return false
					}
				}
				return true
			}
			if !runIDs(cpuIDs, "chunk") {
				return
			}
			// Graceful degradation: chunks the GPUs gave up on (retries
			// exhausted, arena misfits, a lost device) drain to this
			// worker instead of failing the run. C is computed once on
			// the host lanes either way, so the product is unchanged —
			// only the simulated schedule pays.
			for {
				batch := ctl.next(p, &ctl.cpuQueue)
				if batch == nil || !runIDs(batch, "fallback chunk") {
					return
				}
				st.FallbackChunks += len(batch)
			}
		})
	}
	if err := env.Run(); err != nil {
		return nil, Stats{}, err
	}
	// The schedule is judged first: a run it fails returns its error, and
	// Teardown stops C's arithmetic at its next row range. Assemble waits
	// for the arithmetic of a run it completes, whose error ends it.
	for _, eng := range engines {
		if eng.Err() != nil {
			return nil, Stats{}, eng.Err()
		}
	}
	// Anything still failed or queued at this point has no worker left
	// to run it: surface a typed error instead of a partial product.
	for _, id := range append(take(&ctl.orphans), take(&ctl.cpuQueue)...) {
		ctl.stranded[id] = strandedErr(id)
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

	c, err := eng0.Assemble()
	if err != nil {
		return nil, Stats{}, err
	}
	st.Stats = eng0.StatsFor(env, c)
	for _, eng := range engines[1:] {
		d := eng.StatsFor(env, c)
		st.TransferSec += d.TransferSec
		st.ComputeSec += d.ComputeSec
		st.MemPeakBytes = max(st.MemPeakBytes, d.MemPeakBytes)
		st.Mallocs += d.Mallocs
		st.BytesH2D += d.BytesH2D
		st.BytesD2H += d.BytesD2H
		st.Retries += d.Retries
		st.Abandoned += d.Abandoned
	}
	if st.TotalSec > 0 {
		st.TransferFraction = st.TransferSec / st.TotalSec / float64(len(engines))
	}
	st.Failovers = ctl.failovers
	st.LostGPUs = opts.NumGPUs - ctl.aliveGPU
	// One publication, of Stats.Counters(): core.Stats' keys plus the split's.
	eng0.PublishMetrics(env, st)
	for _, eng := range engines[1:] {
		eng.PublishFaults()
	}
	return c, st, nil
}
