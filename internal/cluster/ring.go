package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over replica names. Each member owns
// vnodes points on the ring, so keys spread evenly; a joining member
// takes over only the keys of its own arcs, and a down member's keys
// walk on to its ring successors — the other replicas' plan caches and
// matrix stores stay warm, which is the entire reason the coordinator
// shards by structural fingerprint instead of round-robining. Members
// are never removed: leaving is the coordinator's health machine's
// call.
//
// Ring is not safe for concurrent mutation; the Coordinator guards it
// with its own lock.
type Ring struct {
	vnodes  int
	points  []ringPoint // sorted by hash
	members map[string]bool
}

type ringPoint struct {
	hash   uint64
	member string
}

// virtualNodes is the coordinator's per-member point count. 64 keeps
// the largest/smallest arc ratio within a few percent for single-digit
// replica counts.
const virtualNodes = 64

// NewRing creates an empty ring with the given virtual-node count per
// member (0 means the coordinator's 64).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = virtualNodes
	}
	return &Ring{vnodes: vnodes, members: map[string]bool{}}
}

// Add inserts a member's virtual nodes; adding twice is a no-op.
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(member, v), member: member})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Size reports the member count.
func (r *Ring) Size() int { return len(r.members) }

// Owner returns the member owning a key: the first virtual node at or
// clockwise after the key's ring position. Empty string on an empty
// ring.
func (r *Ring) Owner(key uint64) string {
	succ := r.Successors(key, 1)
	if len(succ) == 0 {
		return ""
	}
	return succ[0]
}

// Successors returns up to n distinct members in ring order starting
// at the key's owner. The tail of the list is the failover order: when
// the owner is down, the key's requests re-route to Successors[1], and
// so on.
func (r *Ring) Successors(key uint64, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := mix64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}

// vnodeHash places one virtual node: FNV-1a over "member#v".
func vnodeHash(member string, v int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", member, v)
	return h.Sum64()
}

// mix64 is the splitmix64 finalizer: structural fingerprints are
// themselves hash-like but may share low-entropy regions, and the ring
// positions must not correlate with them.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
