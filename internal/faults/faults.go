// Package faults is the deterministic fault-injection layer of the
// simulated device stack. A seeded Injector attached to a
// gpusim.Device decides, per device operation and in simulation order,
// whether the operation fails transiently (transfer or kernel fault),
// runs slow (straggler), or whether the whole device has died; it also
// applies steady out-of-memory pressure by shrinking the usable
// capacity. Because the discrete-event kernel schedules processes
// deterministically, the same seed and configuration replay the exact
// same fault sequence on the virtual clock — every failure scenario is
// a reproducible test case.
//
// The package also defines the error taxonomy the recovery machinery
// dispatches on:
//
//   - ErrTransfer, ErrKernel: transient operation faults. Recoverable
//     by retrying the operation (core's per-chunk retry budget).
//   - ErrOOM: a device allocation exceeded usable memory. Recoverable
//     by shedding work (finer chunk grids, CPU fallback).
//   - ErrDeviceLost: the device is permanently gone; every subsequent
//     operation fails. Recoverable only by failing over to another
//     device or the CPU.
//   - ErrChunkAbandoned: a chunk exhausted its retry budget; the
//     engines fall back (hybrid), redistribute (multigpu) or surface
//     the error (gpu-only).
//   - ErrDeadline: the run exceeded its configured deadline. Terminal.
//
// All Injector methods are nil-safe: a nil *Injector is the disabled
// state, so the fault-free hot path costs one pointer comparison.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Sentinel errors of the taxonomy. Device and engine code wraps them
// with chunk/device context; callers classify with errors.Is.
var (
	// ErrTransfer is a transient DMA-transfer fault (the simulated
	// analogue of a PCIe CRC error or DMA engine hiccup).
	ErrTransfer = errors.New("transient transfer fault")
	// ErrKernel is a transient kernel-execution fault (the simulated
	// analogue of a launch failure or an ECC retry).
	ErrKernel = errors.New("transient kernel fault")
	// ErrOOM is a device memory exhaustion.
	ErrOOM = errors.New("device out of memory")
	// ErrDeviceLost is a permanent device failure: all subsequent
	// operations on the device fail with it.
	ErrDeviceLost = errors.New("device lost")
	// ErrChunkAbandoned marks a chunk whose retry budget is exhausted.
	ErrChunkAbandoned = errors.New("chunk abandoned after retries")
	// ErrDeadline marks a run that exceeded its deadline.
	ErrDeadline = errors.New("deadline exceeded")
	// ErrOverloaded is the serving layer's load-shed rejection: the
	// job was never admitted because running it would exceed the
	// server's capacity. Retry later (serve.OverloadError carries the
	// retry-after hint) or against another replica.
	ErrOverloaded = errors.New("server overloaded")
	// ErrQueueFull is the serving layer's admission-queue rejection:
	// the bounded queue had no slot. Like ErrOverloaded it means the
	// job never ran.
	ErrQueueFull = errors.New("admission queue full")
	// ErrJobPanic marks a job whose engine panicked; the serving layer
	// converts the panic into this typed error so one crashed job
	// cannot take the server down.
	ErrJobPanic = errors.New("job panicked")
	// ErrReplicaDown marks a cluster replica that could not be reached
	// (killed, partitioned, or failing its health probes). Like the
	// shedding errors it means the request was never admitted on that
	// replica; the coordinator fails over to a ring successor, and a
	// request that exhausts every replica surfaces it to the client.
	ErrReplicaDown = errors.New("replica down")
)

// Transient reports whether err is a retryable per-operation fault.
func Transient(err error) bool {
	return errors.Is(err, ErrTransfer) || errors.Is(err, ErrKernel)
}

// Shedding reports whether err is a pre-admission rejection
// (ErrOverloaded or ErrQueueFull): the job never started, so the
// caller may safely retry it — later, or on another server.
func Shedding(err error) bool {
	return errors.Is(err, ErrOverloaded) || errors.Is(err, ErrQueueFull)
}

// RecoverySignal is one run's recovery activity in the form a serving
// circuit breaker consumes: the recovery_* counters the engines
// publish, plus the run's terminal error. A breaker accumulates
// signals per engine and trips when they cross its thresholds.
type RecoverySignal struct {
	// Retries, Abandoned, Failovers and DevicesLost mirror the
	// metrics counters of the same names.
	Retries, Abandoned, Failovers, DevicesLost int64
	// Err is the run's terminal error (nil on success — a run that
	// recovered internally still reports its counters above).
	Err error
}

// SignalFromCounters extracts a RecoverySignal from a flat counter
// snapshot (Collector.Snapshot or Report.Counters output). Lost
// devices are visible through two counters that may disagree:
// "recovery_devices_lost" (the engines with a failover path: hybrid and
// multigpu, through their one driver) and "faults_injected_lost" (every
// injector, including the GPU-only engines, whose run a loss ends).
// The signal takes the larger so a loss is never invisible to a
// breaker, and never double-counted.
func SignalFromCounters(c map[string]int64, err error) RecoverySignal {
	lost := c["recovery_devices_lost"]
	if v := c["faults_injected_lost"]; v > lost {
		lost = v
	}
	return RecoverySignal{
		Retries:     c["recovery_retries"],
		Abandoned:   c["recovery_abandoned"],
		Failovers:   c["recovery_failovers"],
		DevicesLost: lost,
		Err:         err,
	}
}

// Failed reports whether the run ended with an engine failure a
// breaker should count. Pre-admission shedding and deadline aborts are
// excluded: they say nothing about the engine's health.
func (s RecoverySignal) Failed() bool {
	return s.Err != nil && !Shedding(s.Err) && !errors.Is(s.Err, ErrDeadline)
}

// Healthy reports whether the run completed without any recovery
// activity at all — the condition a half-open breaker probe requires
// to close the circuit.
func (s RecoverySignal) Healthy() bool {
	return s.Err == nil && s.DevicesLost == 0 && s.Abandoned == 0 && s.Failovers == 0
}

// Config describes one device's fault behaviour. The zero value is
// fully disabled. All rates are per-operation probabilities in [0, 1].
type Config struct {
	// Seed feeds the injector's RNG; runs with equal Seed and rates
	// replay identical fault sequences.
	Seed int64
	// TransferRate is the transient-failure probability per DMA
	// transfer; KernelRate the same per kernel launch.
	TransferRate float64
	KernelRate   float64
	// StragglerRate is the probability an operation runs slow, and
	// StragglerFactor the duration multiplier applied when it does
	// (0 means 4x).
	StragglerRate   float64
	StragglerFactor float64
	// OOMShrink withholds this fraction of device memory, modeling
	// co-tenant pressure: usable capacity becomes (1-OOMShrink) of the
	// configured MemoryBytes.
	OOMShrink float64
	// LossAfterOps kills the device permanently after that many device
	// operations (transfers + kernels + allocations); 0 disables.
	LossAfterOps int
	// MaxFaults caps the total number of injected transfer/kernel
	// faults; 0 means unlimited.
	MaxFaults int
}

// Enabled reports whether the configuration injects anything.
func (c Config) Enabled() bool {
	return c.TransferRate > 0 || c.KernelRate > 0 || c.StragglerRate > 0 ||
		c.OOMShrink > 0 || c.LossAfterOps > 0
}

// Validate rejects configurations outside the model's domain.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"rate", c.TransferRate}, {"kernelrate", c.KernelRate},
		{"straggler", c.StragglerRate}, {"oomshrink", c.OOMShrink},
	} {
		if r.v < 0 || r.v >= 1 {
			return fmt.Errorf("faults: %s %g outside [0, 1)", r.name, r.v)
		}
	}
	if c.StragglerFactor < 0 {
		return fmt.Errorf("faults: negative straggler factor %g", c.StragglerFactor)
	}
	if c.LossAfterOps < 0 || c.MaxFaults < 0 {
		return fmt.Errorf("faults: negative op count")
	}
	return nil
}

// Derive returns the configuration re-seeded for one device of a
// multi-device run, so each device replays an independent but still
// deterministic fault stream.
func (c Config) Derive(device int) Config {
	c.Seed = c.Seed*1000003 + int64(device)*7919 + 1
	return c
}

// Injector is one device's fault source. It must only be used from
// simulation processes (the sim kernel runs exactly one at a time, so
// no locking is needed and draw order is deterministic).
type Injector struct {
	cfg  Config
	rng  *rand.Rand
	ops  int
	dead bool

	transfers  int64 // injected transfer faults
	kernels    int64 // injected kernel faults
	stragglers int64 // slowed operations
}

// New creates an injector; a disabled config returns nil, which every
// method accepts.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Lost reports whether the device has permanently failed.
func (i *Injector) Lost() bool { return i != nil && i.dead }

// Shrink returns the bytes withheld from a device of the given
// capacity by OOM pressure.
func (i *Injector) Shrink(capacity int64) int64 {
	if i == nil || i.cfg.OOMShrink <= 0 {
		return 0
	}
	return int64(float64(capacity) * i.cfg.OOMShrink)
}

// step advances the op counter and applies the loss schedule.
func (i *Injector) step() {
	i.ops++
	if i.cfg.LossAfterOps > 0 && i.ops >= i.cfg.LossAfterOps {
		i.dead = true
	}
}

// budgetLeft reports whether another fault may be injected.
func (i *Injector) budgetLeft() bool {
	return i.cfg.MaxFaults == 0 || i.transfers+i.kernels < int64(i.cfg.MaxFaults)
}

// op makes the per-operation decision shared by transfers and kernels:
// device-lost check, one failure draw, one straggler draw.
func (i *Injector) op(rate float64, count *int64, sentinel error) (slowdown float64, err error) {
	if i.dead {
		return 1, ErrDeviceLost
	}
	i.step()
	if i.dead {
		return 1, ErrDeviceLost
	}
	if rate > 0 && i.budgetLeft() && i.rng.Float64() < rate {
		*count++
		return 1, sentinel
	}
	if i.cfg.StragglerRate > 0 && i.rng.Float64() < i.cfg.StragglerRate {
		i.stragglers++
		f := i.cfg.StragglerFactor
		if f == 0 {
			f = 4
		}
		return f, nil
	}
	return 1, nil
}

// Transfer decides the fate of one DMA transfer: an error (ErrTransfer
// or ErrDeviceLost), or a duration multiplier (1 when healthy).
func (i *Injector) Transfer() (slowdown float64, err error) {
	if i == nil {
		return 1, nil
	}
	return i.op(i.cfg.TransferRate, &i.transfers, ErrTransfer)
}

// Kernel decides the fate of one kernel launch.
func (i *Injector) Kernel() (slowdown float64, err error) {
	if i == nil {
		return 1, nil
	}
	return i.op(i.cfg.KernelRate, &i.kernels, ErrKernel)
}

// Alloc decides the fate of one allocation-class operation (Malloc,
// Free): only device loss applies; allocations do not fault
// transiently, they fail for real when usable memory runs out.
func (i *Injector) Alloc() error {
	if i == nil {
		return nil
	}
	if i.dead {
		return ErrDeviceLost
	}
	i.step()
	if i.dead {
		return ErrDeviceLost
	}
	return nil
}

// Counts reports the injected-event totals, keyed for the metrics
// layer: "transfer", "kernel", "straggler", "lost".
func (i *Injector) Counts() map[string]int64 {
	if i == nil {
		return nil
	}
	out := map[string]int64{
		"transfer":  i.transfers,
		"kernel":    i.kernels,
		"straggler": i.stragglers,
	}
	if i.dead {
		out["lost"] = 1
	}
	return out
}

// Injected returns the total transfer+kernel faults injected so far —
// the quantity the recovery counters must reconcile with.
func (i *Injector) Injected() int64 {
	if i == nil {
		return 0
	}
	return i.transfers + i.kernels
}

// ParseSpec parses the CLI fault specification, a comma-separated
// key=value list:
//
//	seed=7,rate=0.02,kernelrate=0.01,straggler=0.05,factor=4,
//	oomshrink=0.25,loseafter=40,maxfaults=100
//
// "rate" sets both TransferRate and KernelRate; a later explicit
// kernelrate overrides the kernel half. An empty spec is disabled.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return cfg, fmt.Errorf("faults: bad spec element %q (want key=value)", kv)
		}
		k = strings.ToLower(strings.TrimSpace(k))
		v = strings.TrimSpace(v)
		switch k {
		case "seed", "loseafter", "maxfaults":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("faults: bad %s %q", k, v)
			}
			switch k {
			case "seed":
				cfg.Seed = n
			case "loseafter":
				cfg.LossAfterOps = int(n)
			case "maxfaults":
				cfg.MaxFaults = int(n)
			}
		case "rate", "kernelrate", "straggler", "factor", "oomshrink":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return cfg, fmt.Errorf("faults: bad %s %q", k, v)
			}
			switch k {
			case "rate":
				cfg.TransferRate = f
				cfg.KernelRate = f
			case "kernelrate":
				cfg.KernelRate = f
			case "straggler":
				cfg.StragglerRate = f
			case "factor":
				cfg.StragglerFactor = f
			case "oomshrink":
				cfg.OOMShrink = f
			}
		default:
			return cfg, fmt.Errorf("faults: unknown spec key %q", k)
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
