package accum

import (
	"math"
	"math/rand"
	"testing"
)

// csegReference accumulates through Hash (the long-standing reference
// class) and returns the sorted flush — CSeg must match it bit for bit.
func csegReference(adds [][2]float64) ([]int32, []float64) {
	h := NewHash(16)
	for _, a := range adds {
		h.Add(int32(a[0]), a[1])
	}
	return h.Flush(nil, nil)
}

func TestCSegMatchesHashReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		width := 64 + rng.Intn(1<<14)
		n := 1 + rng.Intn(400)
		adds := make([][2]float64, n)
		for i := range adds {
			// Cluster some columns so segments get revisits and the probe
			// cache path runs; leave others scattered for collisions.
			col := rng.Intn(width)
			if i > 0 && rng.Intn(2) == 0 {
				col = int(adds[i-1][0]) % width
			}
			adds[i] = [2]float64{float64(col), rng.NormFloat64()}
		}
		wantC, wantV := csegReference(adds)

		c := NewCSeg(2)
		for _, a := range adds {
			c.Add(int32(a[0]), a[1])
		}
		if c.Len() != len(wantC) {
			t.Fatalf("trial %d: Len %d, want %d", trial, c.Len(), len(wantC))
		}
		gotC, gotV := c.Flush(nil, nil)
		if len(gotC) != len(wantC) {
			t.Fatalf("trial %d: flush %d cols, want %d", trial, len(gotC), len(wantC))
		}
		for i := range gotC {
			if gotC[i] != wantC[i] {
				t.Fatalf("trial %d: col[%d] = %d, want %d", trial, i, gotC[i], wantC[i])
			}
			if math.Float64bits(gotV[i]) != math.Float64bits(wantV[i]) {
				t.Fatalf("trial %d: val[%d] bits differ", trial, i)
			}
		}
	}
}

// TestCSegCollisions packs distinct segment keys into a minimum-size
// table so open-addressing chains form (and one rehash fires at the
// half-full threshold), then checks the chains resolve to the right
// columns and values.
func TestCSegCollisions(t *testing.T) {
	c := NewCSeg(2) // 16-slot table: 8 segments is exactly the grow threshold
	// 8 distinct segments (columns 64 apart), several columns each.
	for seg := int32(0); seg < 8; seg++ {
		for b := int32(0); b < 3; b++ {
			c.Add(seg*64+b*7, float64(seg*100+b))
		}
	}
	if got, want := c.Len(), 24; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	cols, vals := c.Flush(nil, nil)
	for i := 1; i < len(cols); i++ {
		if cols[i] <= cols[i-1] {
			t.Fatalf("flush not strictly ascending at %d: %d <= %d", i, cols[i], cols[i-1])
		}
	}
	// Spot-check a value survived its chain.
	for i, col := range cols {
		if col == 7*64+2*7 {
			if vals[i] != 702 {
				t.Fatalf("col %d = %v, want 702", col, vals[i])
			}
		}
	}
}

// TestCSegGrowth pushes far past the initial capacity so maybeGrow
// rehashes repeatedly, and checks keys, masks and value blocks all
// survive the rehashes.
func TestCSegGrowth(t *testing.T) {
	c := NewCSeg(2)
	const segs = 3000
	for s := int32(0); s < segs; s++ {
		c.Add(s*64, float64(s))
		c.Add(s*64+63, float64(-s))
	}
	if got, want := c.Len(), 2*segs; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	cols, vals := c.Flush(nil, nil)
	if len(cols) != 2*segs {
		t.Fatalf("flush %d, want %d", len(cols), 2*segs)
	}
	for s := 0; s < segs; s++ {
		if cols[2*s] != int32(s*64) || vals[2*s] != float64(s) {
			t.Fatalf("seg %d low: (%d, %v)", s, cols[2*s], vals[2*s])
		}
		if cols[2*s+1] != int32(s*64+63) || vals[2*s+1] != float64(-s) {
			t.Fatalf("seg %d high: (%d, %v)", s, cols[2*s+1], vals[2*s+1])
		}
	}
}

// TestCSegFirstTouchNegZero checks the assign-on-first-touch rule CSeg
// shares with every other class: a lone -0.0 product must surface as
// -0.0, not be accumulated into +0.0.
func TestCSegFirstTouchNegZero(t *testing.T) {
	c := NewCSeg(4)
	negZero := math.Copysign(0, -1)
	c.Add(100, negZero)
	_, vals := c.Flush(nil, nil)
	if len(vals) != 1 || math.Float64bits(vals[0]) != math.Float64bits(negZero) {
		t.Fatalf("lone -0.0 flushed as %v (bits %x)", vals[0], math.Float64bits(vals[0]))
	}
}

// TestCSegSymbolic exercises AddSymbolic and AddSegment, including the
// popcount-over-new-bits counting and zero-valued flush of slots that
// never saw a numeric Add.
func TestCSegSymbolic(t *testing.T) {
	c := NewCSeg(4)
	c.AddSymbolic(10)
	c.AddSymbolic(10) // duplicate: no recount
	c.AddSegment(0, 1<<10|1<<20)
	c.AddSegment(0, 1<<20|1<<30) // overlap: only bit 30 is new
	c.AddSegment(5, 0xFF)
	if got, want := c.Len(), 3+8; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got := c.FlushSymbolic(); got != 11 {
		t.Fatalf("FlushSymbolic = %d, want 11", got)
	}
	if c.Len() != 0 {
		t.Fatalf("Len after flush = %d", c.Len())
	}

	// Symbolic-then-Flush (numeric flush of symbolic-only slots) emits
	// zero values per the Accumulator contract.
	c.AddSegment(2, 1<<3)
	cols, vals := c.Flush(nil, nil)
	if len(cols) != 1 || cols[0] != 2*64+3 || vals[0] != 0 {
		t.Fatalf("symbolic-only flush = (%v, %v)", cols, vals)
	}
}

// TestCSegPoolReuse round-trips through the pool and checks a reused
// accumulator starts empty and still produces correct output.
func TestCSegPoolReuse(t *testing.T) {
	c := GetCSeg(8)
	c.Add(1000, 1.5)
	c.Add(2000, 2.5)
	PutCSeg(c)

	r := GetCSeg(8)
	if r.Len() != 0 {
		t.Fatalf("pooled CSeg not empty: Len=%d", r.Len())
	}
	r.Add(64, 3.0)
	r.Add(64, 0.25)
	cols, vals := r.Flush(nil, nil)
	if len(cols) != 1 || cols[0] != 64 || vals[0] != 3.25 {
		t.Fatalf("reused CSeg flush = (%v, %v)", cols, vals)
	}
	PutCSeg(r)
}

// TestCSegGrowPreservesEmptyContract verifies Grow on an empty (reset)
// accumulator enlarges the table without corrupting later use.
func TestCSegGrowPreservesEmptyContract(t *testing.T) {
	c := NewCSeg(2)
	c.Add(1, 1)
	c.Reset()
	c.Grow(1024)
	for s := int32(0); s < 100; s++ {
		c.AddSymbolic(s * 64)
	}
	if c.Len() != 100 {
		t.Fatalf("Len = %d, want 100", c.Len())
	}
	if got := c.FlushSymbolic(); got != 100 {
		t.Fatalf("FlushSymbolic = %d", got)
	}
}

// TestCSegFlushAppends checks Flush appends to the passed slices like
// every other class (the engines flush into CSR sub-slices).
func TestCSegFlushAppends(t *testing.T) {
	c := NewCSeg(4)
	c.Add(9, 0.5)
	cols := make([]int32, 1, 4)
	vals := make([]float64, 1, 4)
	cols[0], vals[0] = -7, -7
	gc, gv := c.Flush(cols, vals)
	if len(gc) != 2 || gc[0] != -7 || gc[1] != 9 || gv[1] != 0.5 {
		t.Fatalf("append flush = (%v, %v)", gc, gv)
	}
}
