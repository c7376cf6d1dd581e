package core

import (
	"errors"
	"testing"

	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/matgen"
	"repro/internal/sim"
)

// cacheHarness builds an engine bound to a fresh simulated device and
// runs fn inside a simulation process, the context every inputCache
// method requires.
func cacheHarness(t *testing.T, memBytes int64, dynamic bool, fn func(e *Engine, c *inputCache, p *sim.Proc)) {
	t.Helper()
	a := matgen.ER(50, 50, 0.1, 99)
	env := sim.NewEnv()
	dev := gpusim.NewDevice(env, gpusim.ScaledV100Config(memBytes))
	eng, err := NewEngine(dev, a, a, Options{RowPanels: 2, ColPanels: 2, DynamicAlloc: dynamic}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Teardown()
	env.Spawn("test", func(p *sim.Proc) {
		fn(eng, newInputCache(eng, dynamic), p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Err() != nil {
		t.Fatal(eng.Err())
	}
}

// TestInputCacheFIFOEvictionOrder pins the eviction policy: the oldest
// unpinned panel goes first, insertion order is preserved.
func TestInputCacheFIFOEvictionOrder(t *testing.T) {
	cacheHarness(t, 64<<20, false, func(e *Engine, c *inputCache, p *sim.Proc) {
		capacity := func() int64 { return 1 << 20 }
		for _, key := range []string{"A0", "B0", "B1"} {
			if err := c.ensure(p, 0, key, key, 100, capacity); err != nil {
				t.Errorf("ensure %s: %v", key, err)
			}
		}
		if !c.evictOne(p) {
			t.Error("evictOne failed with three resident panels")
		}
		if c.resident("A0") {
			t.Error("A0 survived the first eviction (not FIFO)")
		}
		if !c.evictOne(p) {
			t.Error("second evictOne failed")
		}
		if c.resident("B0") || !c.resident("B1") {
			t.Errorf("after two evictions want only B1 resident; have order %v", c.order)
		}
		if c.bytes != 100 {
			t.Errorf("cache accounts %d bytes, want 100", c.bytes)
		}
	})
}

// TestInputCachePinnedPanelProtection: the current chunk's panels are
// pinned and must never be evicted, even when that means the cache
// cannot make room.
func TestInputCachePinnedPanelProtection(t *testing.T) {
	cacheHarness(t, 64<<20, false, func(e *Engine, c *inputCache, p *sim.Proc) {
		capacity := func() int64 { return 250 }
		if err := c.ensure(p, 0, "A0", "A0", 100, capacity, "A0", "B0"); err != nil {
			t.Errorf("ensure A0: %v", err)
		}
		if err := c.ensure(p, 0, "B0", "B0", 100, capacity, "A0", "B0"); err != nil {
			t.Errorf("ensure B0: %v", err)
		}
		if c.evictOne(p, "A0", "B0") {
			t.Error("evictOne evicted a pinned panel")
		}
		// A third panel cannot fit: both residents are pinned, so the
		// cache must refuse rather than evict the current chunk's data.
		err := c.ensure(p, 0, "B1", "B1", 100, capacity, "A0", "B0", "B1")
		if err == nil {
			t.Error("ensure succeeded by evicting a pinned panel")
		}
		if !errors.Is(err, faults.ErrOOM) {
			t.Errorf("misfit error is %v, want ErrOOM", err)
		}
		if !c.resident("A0") || !c.resident("B0") {
			t.Error("pinned panels were dropped")
		}
		// With the pins released, the same insert evicts FIFO and fits.
		if err := c.ensure(p, 0, "B1", "B1", 100, capacity, "B1"); err != nil {
			t.Errorf("ensure B1 after unpinning: %v", err)
		}
		if c.resident("A0") {
			t.Error("A0 not evicted after unpinning")
		}
	})
}

// TestInputCacheDynamicOOMEvictRetry: in dynamic mode the device
// allocator is the capacity limit; an OOM'd Malloc must evict the
// oldest panel and retry until the new panel fits.
func TestInputCacheDynamicOOMEvictRetry(t *testing.T) {
	cacheHarness(t, 64<<20, true, func(e *Engine, c *inputCache, p *sim.Proc) {
		usable := e.Dev.UsableBytes()
		half := usable/2 + 1 // two fit nothing else
		if err := c.ensure(p, 0, "A0", "A0", half, nil); err != nil {
			t.Errorf("ensure A0: %v", err)
		}
		if err := c.ensure(p, 0, "B0", "B0", half-2, nil); err != nil {
			t.Errorf("ensure B0: %v", err)
		}
		mallocs := e.Dev.Mallocs()
		// B1 cannot fit until A0 is evicted; the retry loop must do
		// that transparently.
		if err := c.ensure(p, 0, "B1", "B1", half, nil, "B0", "B1"); err != nil {
			t.Errorf("ensure B1 (evict-retry): %v", err)
		}
		if c.resident("A0") {
			t.Error("A0 still resident; OOM retry did not evict")
		}
		if !c.resident("B0") || !c.resident("B1") {
			t.Error("pinned B0 or new B1 missing after retry")
		}
		if e.Dev.Mallocs() <= mallocs {
			t.Error("no allocation recorded for the retried panel")
		}
		// A panel larger than the whole device must fail even after
		// evicting everything unpinned.
		err := c.ensure(p, 0, "A1", "A1", usable+1, nil, "A1")
		if err == nil {
			t.Error("oversized panel unexpectedly fit")
		}
		if !errors.Is(err, faults.ErrOOM) {
			t.Errorf("oversized panel error is %v, want ErrOOM", err)
		}
	})
}
