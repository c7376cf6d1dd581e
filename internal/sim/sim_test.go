package sim

import (
	"strings"
	"testing"
)

func TestSecondsConversions(t *testing.T) {
	if Seconds(1.5) != 1_500_000_000 {
		t.Fatalf("Seconds(1.5) = %d", Seconds(1.5))
	}
	if SecondsOf(Seconds(0.25)) != 0.25 {
		t.Fatalf("round trip = %v", SecondsOf(Seconds(0.25)))
	}
	if SecondsAt(Time(2e9)) != 2.0 {
		t.Fatalf("SecondsAt = %v", SecondsAt(Time(2e9)))
	}
}

func TestSingleProcSleep(t *testing.T) {
	env := NewEnv()
	var done Time
	env.Spawn("p", func(p *Proc) {
		p.Sleep(Seconds(1))
		p.Sleep(Seconds(2))
		done = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done != Time(Seconds(3)) {
		t.Fatalf("finished at %d, want 3s", done)
	}
}

func TestInterleavedProcsDeterministic(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var order []string
		env.Spawn("a", func(p *Proc) {
			p.Sleep(Seconds(2))
			order = append(order, "a2")
			p.Sleep(Seconds(2))
			order = append(order, "a4")
		})
		env.Spawn("b", func(p *Proc) {
			p.Sleep(Seconds(1))
			order = append(order, "b1")
			p.Sleep(Seconds(2))
			order = append(order, "b3")
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	want := []string{"b1", "a2", "b3", "a4"}
	for trial := 0; trial < 10; trial++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("order = %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order = %v, want %v", trial, got, want)
			}
		}
	}
}

func TestTieBreakBySpawnOrder(t *testing.T) {
	env := NewEnv()
	var order []string
	for _, name := range []string{"x", "y", "z"} {
		name := name
		env.Spawn(name, func(p *Proc) {
			p.Sleep(Seconds(1))
			order = append(order, name)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "x" || order[1] != "y" || order[2] != "z" {
		t.Fatalf("tie-break order = %v", order)
	}
}

func TestSignalBroadcast(t *testing.T) {
	env := NewEnv()
	var sig Signal
	var woke []Time
	for i := 0; i < 3; i++ {
		env.Spawn("w", func(p *Proc) {
			p.Await(&sig)
			woke = append(woke, env.Now())
		})
	}
	env.Spawn("firer", func(p *Proc) {
		p.Sleep(Seconds(5))
		sig.Fire(p)
		sig.Fire(p) // double fire is a no-op
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters", len(woke))
	}
	for _, w := range woke {
		if w != Time(Seconds(5)) {
			t.Fatalf("waiter woke at %d", w)
		}
	}
	if !sig.fired {
		t.Fatal("signal not marked fired")
	}
}

func TestAwaitAfterFireIsImmediate(t *testing.T) {
	env := NewEnv()
	var sig Signal
	var at Time
	env.Spawn("firer", func(p *Proc) {
		sig.Fire(p)
	})
	env.Spawn("late", func(p *Proc) {
		p.Sleep(Seconds(1))
		p.Await(&sig)
		at = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(Seconds(1)) {
		t.Fatalf("late waiter resumed at %d", at)
	}
}

func TestAwaitAll(t *testing.T) {
	env := NewEnv()
	var s1, s2 Signal
	var at Time
	env.Spawn("f1", func(p *Proc) { p.Sleep(Seconds(1)); s1.Fire(p) })
	env.Spawn("f2", func(p *Proc) { p.Sleep(Seconds(3)); s2.Fire(p) })
	env.Spawn("w", func(p *Proc) {
		p.AwaitAll(&s1, &s2)
		at = env.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(Seconds(3)) {
		t.Fatalf("AwaitAll finished at %d", at)
	}
}

func TestResourceSerializes(t *testing.T) {
	env := NewEnv()
	r := NewResource("dma", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		env.Spawn("t", func(p *Proc) {
			p.Use(r, "xfer", Seconds(2))
			ends = append(ends, env.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(Seconds(2)), Time(Seconds(4)), Time(Seconds(6))}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if r.Busy != Seconds(6) {
		t.Fatalf("Busy = %d, want 6s", r.Busy)
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	env := NewEnv()
	r := NewResource("r", 1)
	var order []string
	// h holds the resource; a and b queue in spawn order.
	env.Spawn("h", func(p *Proc) {
		p.Acquire(r)
		p.Sleep(Seconds(1))
		p.Release(r)
	})
	for _, name := range []string{"a", "b"} {
		name := name
		env.Spawn(name, func(p *Proc) {
			p.Acquire(r)
			order = append(order, name)
			p.Sleep(Seconds(1))
			p.Release(r)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "a" || order[1] != "b" {
		t.Fatalf("FIFO order = %v", order)
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	env := NewEnv()
	r := NewResource("r", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		env.Spawn("t", func(p *Proc) {
			p.Use(r, "op", Seconds(1))
			ends = append(ends, env.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Two run in [0,1], two in [1,2].
	if ends[0] != Time(Seconds(1)) || ends[1] != Time(Seconds(1)) ||
		ends[2] != Time(Seconds(2)) || ends[3] != Time(Seconds(2)) {
		t.Fatalf("ends = %v", ends)
	}
}

func TestDeadlockDetection(t *testing.T) {
	env := NewEnv()
	var never Signal
	env.Spawn("stuck-waiter", func(p *Proc) {
		p.Await(&never)
	})
	err := env.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	// The report must name the stuck process and what it waits on.
	if !strings.Contains(err.Error(), "stuck-waiter") || !strings.Contains(err.Error(), "await signal") {
		t.Fatalf("undiagnostic deadlock error: %v", err)
	}
}

func TestTimelineSpansAndLaneBusy(t *testing.T) {
	env := NewEnv()
	env.Spawn("p", func(p *Proc) {
		p.Span("kernel", "k1", Seconds(2))
		p.Span("d2h", "t1", Seconds(3))
		p.Span("kernel", "k2", Seconds(1))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(env.Timeline) != 3 {
		t.Fatalf("timeline has %d spans", len(env.Timeline))
	}
	if env.LaneBusy("kernel") != Seconds(3) {
		t.Fatalf("kernel busy = %d", env.LaneBusy("kernel"))
	}
	if env.LaneBusy("d2h") != Seconds(3) {
		t.Fatalf("d2h busy = %d", env.LaneBusy("d2h"))
	}
	if env.LaneBusy("h2d") != 0 {
		t.Fatalf("h2d busy = %d", env.LaneBusy("h2d"))
	}
}

func TestSpawnFromProcess(t *testing.T) {
	env := NewEnv()
	var childDone Time
	env.Spawn("parent", func(p *Proc) {
		p.Sleep(Seconds(1))
		env.Spawn("child", func(c *Proc) {
			c.Sleep(Seconds(2))
			childDone = env.Now()
		})
		p.Sleep(Seconds(5))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if childDone != Time(Seconds(3)) {
		t.Fatalf("child done at %d, want 3s", childDone)
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	env := NewEnv()
	env.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for negative sleep")
			}
			// Recovered: let the process finish normally.
		}()
		p.Sleep(Duration(-1))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	env := NewEnv()
	r := NewResource("r", 1)
	env.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for release of idle resource")
			}
		}()
		p.Release(r)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
