package gpusim

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func testConfig() DeviceConfig {
	cfg := V100Config()
	cfg.MemoryBytes = 1 << 20
	// Simple round numbers for arithmetic checks.
	cfg.H2DBandwidth = 1e9
	cfg.D2HBandwidth = 1e9
	cfg.TransferLatency = 0
	cfg.KernelLaunch = 0
	cfg.MallocLatency = 1e-3
	return cfg
}

func TestV100ConfigTable1(t *testing.T) {
	cfg := V100Config()
	if cfg.NumSMs != 80 || cfg.MemoryBytes != 16<<30 || cfg.FP32Cores != 5120 ||
		cfg.MaxThreadsPerBlock != 1024 || cfg.RegistersPerSM != 65536 {
		t.Fatalf("V100Config does not match Table I: %+v", cfg)
	}
}

func TestScaledV100Config(t *testing.T) {
	cfg := ScaledV100Config(32 << 20)
	if cfg.MemoryBytes != 32<<20 {
		t.Fatalf("scaled memory = %d", cfg.MemoryBytes)
	}
	if cfg.NumSMs != 80 {
		t.Fatal("scaling must not alter the compute model")
	}
	if !strings.Contains(cfg.Name, "32 MiB") {
		t.Fatalf("name = %q", cfg.Name)
	}
}

func TestTransferDurationAndSerialization(t *testing.T) {
	env := sim.NewEnv()
	dev := NewDevice(env, testConfig())
	var end1, end2, endH2D sim.Time
	env.Spawn("a", func(p *sim.Proc) {
		dev.TransferD2H(p, "c0", 2e9) // 2 s at 1 GB/s
		end1 = env.Now()
	})
	env.Spawn("b", func(p *sim.Proc) {
		dev.TransferD2H(p, "c1", 1e9) // queues behind a
		end2 = env.Now()
	})
	env.Spawn("c", func(p *sim.Proc) {
		dev.TransferH2D(p, "in", 1e9) // opposite direction: overlaps
		endH2D = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if end1 != sim.Time(sim.Seconds(2)) {
		t.Fatalf("first D2H ended at %v", end1)
	}
	if end2 != sim.Time(sim.Seconds(3)) {
		t.Fatalf("second D2H ended at %v (must serialize)", end2)
	}
	if endH2D != sim.Time(sim.Seconds(1)) {
		t.Fatalf("H2D ended at %v (must overlap D2H)", endH2D)
	}
	if dev.TransferBusy() != sim.Seconds(4) {
		t.Fatalf("TransferBusy = %v", dev.TransferBusy())
	}
}

func TestKernelOverlapsTransfers(t *testing.T) {
	env := sim.NewEnv()
	dev := NewDevice(env, testConfig())
	var kEnd, tEnd sim.Time
	env.Spawn("k", func(p *sim.Proc) {
		dev.Kernel(p, "numeric", 3)
		kEnd = env.Now()
	})
	env.Spawn("t", func(p *sim.Proc) {
		dev.TransferD2H(p, "out", 2e9)
		tEnd = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if kEnd != sim.Time(sim.Seconds(3)) || tEnd != sim.Time(sim.Seconds(2)) {
		t.Fatalf("kernel end %v, transfer end %v: should fully overlap", kEnd, tEnd)
	}
}

func TestMallocIsDeviceWideBarrier(t *testing.T) {
	env := sim.NewEnv()
	dev := NewDevice(env, testConfig())
	var kernel2Start sim.Time
	// Timeline: kernel [0,1]; malloc issued at t=0 must wait for the
	// kernel, then stall 1 ms; a transfer issued at t=0 on the *other*
	// engine must not start until the malloc completes if it arrives
	// after the malloc queued... here we check the second kernel.
	env.Spawn("k1", func(p *sim.Proc) {
		dev.Kernel(p, "k1", 1)
	})
	env.Spawn("m", func(p *sim.Proc) {
		p.Sleep(sim.Seconds(0.5)) // issue mid-kernel
		if _, err := dev.Malloc(p, "buf", 1024); err != nil {
			t.Errorf("Malloc: %v", err)
		}
	})
	env.Spawn("k2", func(p *sim.Proc) {
		p.Sleep(sim.Seconds(0.6)) // issued while malloc is queued
		dev.Kernel(p, "k2", 1)
		kernel2Start = env.Now() - sim.Time(sim.Seconds(1))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// k2 must start only after the malloc finishes at 1.001 s.
	if got, want := kernel2Start, sim.Time(sim.Seconds(1.001)); got != want {
		t.Fatalf("second kernel started at %v, want %v", got, want)
	}
}

func TestMallocAccountingAndOOM(t *testing.T) {
	env := sim.NewEnv()
	cfg := testConfig()
	cfg.MemoryBytes = 1000
	dev := NewDevice(env, cfg)
	env.Spawn("p", func(p *sim.Proc) {
		a, err := dev.Malloc(p, "a", 600)
		if err != nil {
			t.Errorf("first Malloc: %v", err)
			return
		}
		if _, err := dev.Malloc(p, "b", 600); err == nil {
			t.Error("expected OOM")
		}
		if dev.MemUsed() != 600 {
			t.Errorf("MemUsed = %d", dev.MemUsed())
		}
		dev.Free(p, a)
		if dev.MemUsed() != 0 {
			t.Errorf("MemUsed after free = %d", dev.MemUsed())
		}
		if dev.MemPeak() != 600 {
			t.Errorf("MemPeak = %d", dev.MemPeak())
		}
		if dev.Mallocs() != 1 {
			t.Errorf("Mallocs = %d", dev.Mallocs())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreeError(t *testing.T) {
	env := sim.NewEnv()
	dev := NewDevice(env, testConfig())
	env.Spawn("p", func(p *sim.Proc) {
		a, err := dev.Malloc(p, "a", 16)
		if err != nil {
			t.Errorf("Malloc: %v", err)
			return
		}
		if err := dev.Free(p, a); err != nil {
			t.Errorf("first Free: %v", err)
		}
		if err := dev.Free(p, a); err == nil {
			t.Error("expected error on double free")
		}
		if dev.MemUsed() != 0 {
			t.Errorf("MemUsed after double free = %d (must not go negative)", dev.MemUsed())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnifiedMemoryCost(t *testing.T) {
	env := sim.NewEnv()
	cfg := testConfig()
	cfg.UMPageBytes = 1000
	cfg.UMFaultLatency = 0.5
	cfg.UMBandwidth = 1000 // 1 KB/s: 2000 bytes = 2 s + 2 faults*0.5
	dev := NewDevice(env, cfg)
	var end sim.Time
	env.Spawn("p", func(p *sim.Proc) {
		dev.UMRead(p, "input", 2000)
		end = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if end != sim.Time(sim.Seconds(3)) {
		t.Fatalf("UM read ended at %v, want 3 s", end)
	}
}

func TestStreamOrdering(t *testing.T) {
	env := sim.NewEnv()
	dev := NewDevice(env, testConfig())
	s := dev.NewStream("s0")
	var order []string
	env.Spawn("host", func(p *sim.Proc) {
		s.Enqueue("k1", func(q *sim.Proc) {
			dev.Kernel(q, "k1", 2)
			order = append(order, "k1")
		})
		done := s.Enqueue("k2", func(q *sim.Proc) {
			dev.Kernel(q, "k2", 1)
			order = append(order, "k2")
		})
		p.Await(done)
		order = append(order, "host")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "k1" || order[1] != "k2" || order[2] != "host" {
		t.Fatalf("order = %v", order)
	}
	if env.Now() != sim.Time(sim.Seconds(3)) {
		t.Fatalf("finished at %v", env.Now())
	}
}

func TestTwoStreamsOverlapComputeAndTransfer(t *testing.T) {
	env := sim.NewEnv()
	dev := NewDevice(env, testConfig())
	s1 := dev.NewStream("s1")
	s2 := dev.NewStream("s2")
	env.Spawn("host", func(p *sim.Proc) {
		d1 := s1.Enqueue("kernel", func(q *sim.Proc) { dev.Kernel(q, "k", 2) })
		d2 := s2.Enqueue("xfer", func(q *sim.Proc) { dev.TransferD2H(q, "c", 2e9) })
		p.AwaitAll(d1, d2)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != sim.Time(sim.Seconds(2)) {
		t.Fatalf("finished at %v: streams did not overlap", env.Now())
	}
}

func TestStreamReusableAfterDrain(t *testing.T) {
	env := sim.NewEnv()
	dev := NewDevice(env, testConfig())
	s := dev.NewStream("s")
	var count int
	env.Spawn("host", func(p *sim.Proc) {
		d1 := s.Enqueue("k1", func(q *sim.Proc) { dev.Kernel(q, "k1", 1); count++ })
		p.Await(d1)
		// Stream worker has exited; enqueueing again must restart it.
		d2 := s.Enqueue("k2", func(q *sim.Proc) { dev.Kernel(q, "k2", 1); count++ })
		p.Await(d2)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("ran %d ops", count)
	}
}

func TestNegativeMalloc(t *testing.T) {
	env := sim.NewEnv()
	dev := NewDevice(env, testConfig())
	env.Spawn("p", func(p *sim.Proc) {
		if _, err := dev.Malloc(p, "neg", -1); err == nil {
			t.Error("expected error for negative allocation")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPageableHostMemoryPenalty(t *testing.T) {
	env := sim.NewEnv()
	cfg := testConfig()
	cfg.PageableHostMemory = true
	cfg.PageablePenalty = 2.0
	dev := NewDevice(env, cfg)
	var end sim.Time
	env.Spawn("p", func(p *sim.Proc) {
		dev.TransferD2H(p, "c", 1e9) // 1s at 1 GB/s, doubled by penalty
		end = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if end != sim.Time(sim.Seconds(2)) {
		t.Fatalf("pageable transfer ended at %v, want 2s", end)
	}
}
