package gpusim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// nearOne is a failure/straggler rate that every uniform draw
// satisfies in practice while staying inside Config's [0,1) domain.
const nearOne = 0.999999

// TestFailedTransferConsumesNothing: an injected transfer fault must
// cost neither simulated time nor accounted bytes — the operation
// never reached the DMA engine.
func TestFailedTransferConsumesNothing(t *testing.T) {
	env := sim.NewEnv()
	dev := NewDevice(env, testConfig())
	dev.SetFaults(faults.New(faults.Config{Seed: 1, TransferRate: nearOne, MaxFaults: 1}))
	env.Spawn("p", func(p *sim.Proc) {
		if err := dev.TransferH2D(p, "a", 1e9); !errors.Is(err, faults.ErrTransfer) {
			t.Errorf("TransferH2D err = %v, want ErrTransfer", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != 0 {
		t.Errorf("failed transfer advanced the clock to %v", env.Now())
	}
	if dev.BytesH2D() != 0 {
		t.Errorf("failed transfer accounted %d bytes", dev.BytesH2D())
	}
	if dev.Faults().Injected() != 1 {
		t.Errorf("Injected = %d, want 1", dev.Faults().Injected())
	}
}

// TestDeviceFaultSequenceDeterministic: two devices with the same
// fault seed running the same op sequence must fail at the same ops
// and finish at the same simulated times.
func TestDeviceFaultSequenceDeterministic(t *testing.T) {
	run := func() (trace []string, end sim.Time) {
		env := sim.NewEnv()
		dev := NewDevice(env, testConfig())
		dev.SetFaults(faults.New(faults.Config{Seed: 42, TransferRate: 0.3, KernelRate: 0.3}))
		env.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < 30; i++ {
				var err error
				if i%2 == 0 {
					err = dev.TransferH2D(p, "x", 1e6)
				} else {
					err = dev.Kernel(p, "k", 1e-3)
				}
				trace = append(trace, fmt.Sprintf("%d:%v", i, err))
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return trace, env.Now()
	}
	t1, e1 := run()
	t2, e2 := run()
	if e1 != e2 {
		t.Fatalf("end times differ: %v vs %v", e1, e2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("op %d diverged: %q vs %q", i, t1[i], t2[i])
		}
	}
}

// TestUsableBytesShrink: OOM pressure withholds a fraction of device
// memory from Malloc without touching accounting.
func TestUsableBytesShrink(t *testing.T) {
	env := sim.NewEnv()
	cfg := testConfig()
	cfg.MemoryBytes = 1000
	dev := NewDevice(env, cfg)
	dev.SetFaults(faults.New(faults.Config{Seed: 1, OOMShrink: 0.25}))
	if got := dev.UsableBytes(); got != 750 {
		t.Fatalf("UsableBytes = %d, want 750", got)
	}
	env.Spawn("p", func(p *sim.Proc) {
		if _, err := dev.Malloc(p, "big", 800); !errors.Is(err, faults.ErrOOM) {
			t.Errorf("Malloc 800 err = %v, want ErrOOM", err)
		}
		a, err := dev.Malloc(p, "fits", 700)
		if err != nil {
			t.Errorf("Malloc 700: %v", err)
			return
		}
		if err := dev.Free(p, a); err != nil {
			t.Errorf("Free: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLossAfterOpsKillsDevice: past the op budget every device call
// reports ErrDeviceLost and the injector reports the device lost.
func TestLossAfterOpsKillsDevice(t *testing.T) {
	env := sim.NewEnv()
	dev := NewDevice(env, testConfig())
	dev.SetFaults(faults.New(faults.Config{Seed: 1, LossAfterOps: 3}))
	env.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			err := dev.Kernel(p, "k", 1e-3)
			if i < 2 && err != nil {
				t.Errorf("op %d: unexpected error %v", i, err)
			}
			if i >= 2 && !errors.Is(err, faults.ErrDeviceLost) {
				t.Errorf("op %d: err = %v, want ErrDeviceLost", i, err)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !dev.Faults().Lost() {
		t.Error("device not marked lost")
	}
}

// TestStragglerSlowsTransfer: a straggler draw multiplies the
// operation's duration without failing it.
func TestStragglerSlowsTransfer(t *testing.T) {
	env := sim.NewEnv()
	dev := NewDevice(env, testConfig()) // 1 GB/s H2D
	dev.SetFaults(faults.New(faults.Config{Seed: 1, StragglerRate: nearOne, StragglerFactor: 3}))
	var end sim.Time
	env.Spawn("p", func(p *sim.Proc) {
		if err := dev.TransferH2D(p, "a", 1e9); err != nil {
			t.Errorf("TransferH2D: %v", err)
		}
		end = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(sim.Seconds(3)); end != want {
		t.Fatalf("straggler transfer ended at %v, want %v", end, want)
	}
	if dev.Faults().Counts()["straggler"] != 1 {
		t.Fatalf("straggler count = %v", dev.Faults().Counts())
	}
}
