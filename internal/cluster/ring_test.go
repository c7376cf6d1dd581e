package cluster

import (
	"testing"
)

func TestRingDeterministicOwnership(t *testing.T) {
	build := func() *Ring {
		r := NewRing(64)
		r.Add("r0")
		r.Add("r1")
		r.Add("r2")
		return r
	}
	a, b := build(), build()
	for key := uint64(0); key < 1000; key++ {
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %d: owners differ across identical rings", key)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(64)
	members := []string{"r0", "r1", "r2"}
	for _, m := range members {
		r.Add(m)
	}
	counts := map[string]int{}
	const keys = 10000
	for key := uint64(0); key < keys; key++ {
		counts[r.Owner(key*0x9e3779b97f4a7c15+1)]++
	}
	for _, m := range members {
		share := float64(counts[m]) / keys
		if share < 0.15 || share > 0.55 {
			t.Fatalf("member %s owns %.1f%% of keys: %v", m, 100*share, counts)
		}
	}
}

// TestRingMinimalDisruption is the consistent-hashing property the
// cluster exists for: a member joining (what /v1/join does) takes keys
// only for itself — every key that moves, moves to the new member — so
// the other replicas' matrix stores and plan caches stay warm.
func TestRingMinimalDisruption(t *testing.T) {
	r := NewRing(64)
	for _, m := range []string{"r0", "r1", "r2"} {
		r.Add(m)
	}
	before := map[uint64]string{}
	for key := uint64(0); key < 2000; key++ {
		before[key] = r.Owner(key)
	}
	r.Add("r3")
	moved := 0
	for key, owner := range before {
		after := r.Owner(key)
		if after != owner && after != "r3" {
			t.Fatalf("key %d moved %s -> %s, not to the new member", key, owner, after)
		}
		if after != owner {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the new member took over no key")
	}
}

func TestRingSuccessors(t *testing.T) {
	r := NewRing(64)
	for _, m := range []string{"r0", "r1", "r2"} {
		r.Add(m)
	}
	for key := uint64(0); key < 100; key++ {
		succ := r.Successors(key, 3)
		if len(succ) != 3 {
			t.Fatalf("key %d: %d successors, want 3", key, len(succ))
		}
		if succ[0] != r.Owner(key) {
			t.Fatalf("key %d: successors[0] = %s, owner = %s", key, succ[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, m := range succ {
			if seen[m] {
				t.Fatalf("key %d: duplicate successor %s", key, m)
			}
			seen[m] = true
		}
	}
	if r.Owner(7) == "" && r.Size() > 0 {
		t.Fatal("owner empty on populated ring")
	}
	empty := NewRing(8)
	if empty.Owner(7) != "" || empty.Successors(7, 2) != nil {
		t.Fatal("empty ring returned members")
	}
	// Asking for more successors than members truncates.
	if got := r.Successors(7, 10); len(got) != 3 {
		t.Fatalf("successors beyond membership: %v", got)
	}
}
