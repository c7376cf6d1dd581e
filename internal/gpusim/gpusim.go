// Package gpusim models a CUDA-class GPU attached to a host over PCIe,
// on top of the discrete-event kernel in internal/sim.
//
// The model captures exactly the constraints the paper's design works
// around (Section IV-B):
//
//   - PCIe has one DMA engine per direction, so at most one
//     host-to-device and one device-to-host transfer is in flight at a
//     time; further transfers in the same direction queue FIFO.
//   - Kernels execute one at a time on the compute engine (SpGEMM
//     kernels saturate the device, so concurrent kernels would not
//     help) and may overlap transfers in either direction.
//   - Device memory allocation serializes the whole device: a Malloc
//     waits for the compute engine and both DMA engines to drain and
//     holds them while it runs, reproducing CUDA's rule that commands
//     from different streams cannot run concurrently while the host
//     performs device memory (de)allocation.
//
// Durations come from a cost model in DeviceConfig; the actual SpGEMM
// arithmetic is executed as real Go code by the caller, so results are
// numerically correct while time is simulated.
package gpusim

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/sim"
)

// DeviceConfig describes the hardware being modeled plus the cost-model
// parameters used to convert work (flops, bytes) into simulated time.
type DeviceConfig struct {
	// Name identifies the device in traces.
	Name string
	// MemoryBytes is the device memory capacity; allocations beyond it
	// fail, which is what forces out-of-core execution.
	MemoryBytes int64
	// NumSMs, SharedMemPerSMBytes, RegistersPerSM, MaxThreadsPerBlock,
	// FP32Cores record the Table I specification for documentation and
	// for kernel-configuration heuristics.
	NumSMs              int
	SharedMemPerSMBytes int
	RegistersPerSM      int
	MaxThreadsPerBlock  int
	FP32Cores           int

	// H2DBandwidth and D2HBandwidth are effective PCIe bandwidths in
	// bytes/second (one DMA engine each).
	H2DBandwidth float64
	D2HBandwidth float64
	// TransferLatency is the fixed per-transfer setup cost in seconds.
	TransferLatency float64
	// KernelLaunch is the fixed per-kernel launch cost in seconds.
	KernelLaunch float64
	// HashRate and DenseRate are effective SpGEMM numeric-phase
	// throughputs in flops/second for hash-accumulator kernels (sparse
	// output rows) and dense-accumulator kernels (dense output rows).
	HashRate  float64
	DenseRate float64
	// SymbolicFactor scales numeric-kernel cost to symbolic-kernel cost
	// (the symbolic phase touches the same data but writes no values).
	SymbolicFactor float64
	// AnalysisFactor scales numeric-kernel cost to row-analysis cost
	// (the paper notes row analysis is very small next to other phases).
	AnalysisFactor float64
	// MallocLatency is the device-wide stall per Malloc/Free, seconds.
	MallocLatency float64
	// PageableHostMemory disables pinned host buffers: every DMA
	// transfer pays PageablePenalty (the driver must stage pages
	// through a pinned bounce buffer). The paper transfers to "CPU
	// pinned memory", the default here.
	PageableHostMemory bool
	// PageablePenalty is the transfer-time factor when
	// PageableHostMemory is set; zero means 1.8.
	PageablePenalty float64

	// UMPageBytes, UMFaultLatency and UMBandwidth parameterize the
	// unified-memory mode used by the motivation ablation: transfers
	// happen page by page on demand, paying a fault latency per page.
	UMPageBytes    int64
	UMFaultLatency float64
	UMBandwidth    float64
}

// V100Config returns the Tesla V100 specification of the paper's
// Table I together with cost-model parameters calibrated so the
// reproduction lands in the paper's measured bands (see DESIGN.md §4).
func V100Config() DeviceConfig {
	return DeviceConfig{
		Name:                "Tesla V100 (simulated)",
		MemoryBytes:         16 << 30,
		NumSMs:              80,
		SharedMemPerSMBytes: 96 << 10,
		RegistersPerSM:      65536,
		MaxThreadsPerBlock:  1024,
		FP32Cores:           5120,

		// Fixed per-operation overheads are scaled down ~1000x along
		// with the evaluation suite (DESIGN.md §1), so they keep the
		// same share of the runtime they had at paper scale.
		H2DBandwidth:    12.0e9,
		D2HBandwidth:    3.0e9,
		TransferLatency: 1e-6,
		KernelLaunch:    0.5e-6,
		HashRate:        13e9,
		DenseRate:       50e9,
		SymbolicFactor:  0.35,
		AnalysisFactor:  0.03,
		MallocLatency:   2e-6,

		UMPageBytes:    64 << 10,
		UMFaultLatency: 25e-6,
		UMBandwidth:    2.2e9,
	}
}

// ScaledV100Config returns the V100 model with device memory replaced
// by memoryBytes. The evaluation suite is about 1000x smaller than the
// paper's matrices, so experiments scale the 16 GB capacity down to
// keep the inputs genuinely out-of-core.
func ScaledV100Config(memoryBytes int64) DeviceConfig {
	cfg := V100Config()
	cfg.MemoryBytes = memoryBytes
	cfg.Name = fmt.Sprintf("Tesla V100 (simulated, %d MiB)", memoryBytes>>20)
	return cfg
}

// Device is a simulated GPU.
type Device struct {
	Cfg DeviceConfig
	Env *sim.Env

	// Compute is the kernel-execution engine; H2D and D2H are the two
	// DMA engines. All are capacity-1 FIFO resources.
	Compute, H2D, D2H *sim.Resource

	memUsed int64
	memPeak int64
	// mallocs counts Malloc calls, a cheap proxy used by tests and by
	// the dynamic-vs-preallocated comparison.
	mallocs int
	// bytesH2D and bytesD2H accumulate the payload bytes moved over
	// each DMA engine (including unified-memory migrations), the
	// "bytes moved" counters of the observability layer.
	bytesH2D, bytesD2H int64

	// faults is the optional fault injector; nil (the default) is the
	// fault-free device, and every consultation below is a single
	// nil-receiver check on that path.
	faults *faults.Injector
}

// NewDevice creates a device within the environment.
func NewDevice(env *sim.Env, cfg DeviceConfig) *Device {
	return &Device{
		Cfg:     cfg,
		Env:     env,
		Compute: sim.NewResource("kernel", 1),
		H2D:     sim.NewResource("h2d", 1),
		D2H:     sim.NewResource("d2h", 1),
	}
}

// MemUsed reports current device memory in use.
func (d *Device) MemUsed() int64 { return d.memUsed }

// MemPeak reports the high-water mark of device memory use.
func (d *Device) MemPeak() int64 { return d.memPeak }

// Mallocs reports how many device allocations have been performed.
func (d *Device) Mallocs() int { return d.mallocs }

// BytesH2D reports the total payload bytes moved host-to-device.
func (d *Device) BytesH2D() int64 { return d.bytesH2D }

// BytesD2H reports the total payload bytes moved device-to-host.
func (d *Device) BytesD2H() int64 { return d.bytesD2H }

// SetFaults attaches a fault injector; nil detaches it.
func (d *Device) SetFaults(inj *faults.Injector) { d.faults = inj }

// Faults returns the attached injector (nil when fault-free).
func (d *Device) Faults() *faults.Injector { return d.faults }

// UsableBytes is the device capacity available to allocations:
// MemoryBytes minus whatever the injector's OOM pressure withholds.
// Fault-free it equals Cfg.MemoryBytes exactly.
func (d *Device) UsableBytes() int64 {
	return d.Cfg.MemoryBytes - d.faults.Shrink(d.Cfg.MemoryBytes)
}

// transferTime converts a byte count to seconds on a DMA engine,
// scaled by an injected straggler slowdown (1 when healthy).
func (d *Device) transferTime(bytes int64, bw, slowdown float64) sim.Duration {
	secs := d.Cfg.TransferLatency + float64(bytes)/bw
	if d.Cfg.PageableHostMemory {
		penalty := d.Cfg.PageablePenalty
		if penalty == 0 {
			penalty = 1.8
		}
		secs *= penalty
	}
	return sim.Seconds(secs * slowdown)
}

// TransferH2D moves bytes from host to device, occupying the H2D
// engine. Under fault injection it may fail transiently (the failed
// attempt consumes no engine time or byte accounting — the retry
// layer's backoff supplies the lost time) or run slow; errors wrap
// faults.ErrTransfer or faults.ErrDeviceLost.
func (d *Device) TransferH2D(p *sim.Proc, label string, bytes int64) error {
	slow, err := d.faults.Transfer()
	if err != nil {
		return fmt.Errorf("gpusim: h2d %s (%d bytes): %w", label, bytes, err)
	}
	d.bytesH2D += bytes
	p.Use(d.H2D, label, d.transferTime(bytes, d.Cfg.H2DBandwidth, slow))
	return nil
}

// TransferD2H moves bytes from device to host, occupying the D2H
// engine; fault semantics as TransferH2D.
func (d *Device) TransferD2H(p *sim.Proc, label string, bytes int64) error {
	slow, err := d.faults.Transfer()
	if err != nil {
		return fmt.Errorf("gpusim: d2h %s (%d bytes): %w", label, bytes, err)
	}
	d.bytesD2H += bytes
	p.Use(d.D2H, label, d.transferTime(bytes, d.Cfg.D2HBandwidth, slow))
	return nil
}

// Kernel runs a kernel of the given duration on the compute engine.
// Under fault injection it may fail transiently (wrapping
// faults.ErrKernel) or stretch by a straggler factor.
func (d *Device) Kernel(p *sim.Proc, label string, seconds float64) error {
	slow, err := d.faults.Kernel()
	if err != nil {
		return fmt.Errorf("gpusim: kernel %s: %w", label, err)
	}
	p.Use(d.Compute, label, sim.Seconds(seconds*slow+d.Cfg.KernelLaunch))
	return nil
}

// Alloc is a device memory allocation.
type Alloc struct {
	// Bytes is the allocation size.
	Bytes int64
	freed bool
}

// Malloc allocates device memory. Per CUDA semantics it is a
// device-wide barrier: it drains and holds the compute engine and both
// DMA engines for the allocation latency, which is precisely why the
// paper's asynchronous design pre-allocates everything. Exhausting the
// usable capacity returns an error wrapping faults.ErrOOM; a lost
// device returns faults.ErrDeviceLost.
func (d *Device) Malloc(p *sim.Proc, label string, bytes int64) (*Alloc, error) {
	if bytes < 0 {
		return nil, fmt.Errorf("gpusim: negative allocation %d", bytes)
	}
	if err := d.faults.Alloc(); err != nil {
		return nil, fmt.Errorf("gpusim: malloc %s: %w", label, err)
	}
	if usable := d.UsableBytes(); d.memUsed+bytes > usable {
		return nil, fmt.Errorf("gpusim: %d used + %d requested > %d usable: %w",
			d.memUsed, bytes, usable, faults.ErrOOM)
	}
	d.barrier(p, "malloc "+label)
	d.memUsed += bytes
	if d.memUsed > d.memPeak {
		d.memPeak = d.memUsed
	}
	d.mallocs++
	return &Alloc{Bytes: bytes}, nil
}

// Free releases an allocation, also stalling the device like Malloc.
// Releasing the same allocation twice is reported as an error (a
// caller bug in real CUDA, but one the engines must surface rather
// than crash the library on).
func (d *Device) Free(p *sim.Proc, a *Alloc) error {
	if a.freed {
		return fmt.Errorf("gpusim: double free of %d-byte allocation", a.Bytes)
	}
	a.freed = true
	d.barrier(p, "free")
	d.memUsed -= a.Bytes
	return nil
}

// FreeAccounting releases an allocation's memory accounting without a
// device call: no barrier, no virtual time, callable after the
// simulation has drained. It models destroying the device context at
// end of run — the engines use it to tear down allocations still
// resident when a run ends (normally or by deadline/abandonment), so
// end-of-run memory audits see zero bytes in use. Double frees are
// reported like Free.
func (d *Device) FreeAccounting(a *Alloc) error {
	if a.freed {
		return fmt.Errorf("gpusim: double free of %d-byte allocation", a.Bytes)
	}
	a.freed = true
	d.memUsed -= a.Bytes
	return nil
}

// barrier acquires every engine in a fixed order, holds them for the
// allocation latency, and releases them: nothing overlaps a malloc.
func (d *Device) barrier(p *sim.Proc, label string) {
	p.Acquire(d.Compute)
	p.Acquire(d.H2D)
	p.Acquire(d.D2H)
	p.Span("barrier", label, sim.Seconds(d.Cfg.MallocLatency))
	p.Release(d.D2H)
	p.Release(d.H2D)
	p.Release(d.Compute)
}

// UMRead models a unified-memory read of bytes resident on the host:
// the data migrates page by page over the H2D engine, paying a fault
// latency per page and the (lower) UM bandwidth.
func (d *Device) UMRead(p *sim.Proc, label string, bytes int64) {
	pages := (bytes + d.Cfg.UMPageBytes - 1) / d.Cfg.UMPageBytes
	secs := float64(pages)*d.Cfg.UMFaultLatency + float64(bytes)/d.Cfg.UMBandwidth
	d.bytesH2D += bytes
	p.Use(d.H2D, "um "+label, sim.Seconds(secs))
}

// UMWrite models unified-memory write-back of device-produced data to
// host pages over the D2H engine.
func (d *Device) UMWrite(p *sim.Proc, label string, bytes int64) {
	pages := (bytes + d.Cfg.UMPageBytes - 1) / d.Cfg.UMPageBytes
	secs := float64(pages)*d.Cfg.UMFaultLatency + float64(bytes)/d.Cfg.UMBandwidth
	d.bytesD2H += bytes
	p.Use(d.D2H, "um "+label, sim.Seconds(secs))
}

// TransferBusy reports the total simulated time spent moving data over
// either DMA engine, the numerator of the paper's Figure 4. It is
// computed from the traced transfer spans, so device-wide malloc
// barriers (which hold the engines without transferring) don't count.
func (d *Device) TransferBusy() sim.Duration {
	return d.Env.LaneBusy("h2d") + d.Env.LaneBusy("d2h")
}

// ComputeBusy reports the total simulated time spent executing kernels.
func (d *Device) ComputeBusy() sim.Duration {
	return d.Env.LaneBusy("kernel")
}
