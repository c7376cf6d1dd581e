package accum

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// reference accumulates with a plain map for cross-checking.
type reference map[int32]float64

func (r reference) sorted() ([]int32, []float64) {
	cols := make([]int32, 0, len(r))
	for c := range r {
		cols = append(cols, c)
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
	vals := make([]float64, len(cols))
	for i, c := range cols {
		vals[i] = r[c]
	}
	return cols, vals
}

func accumulators(width int) map[string]Accumulator {
	return map[string]Accumulator{
		"hash":  NewHash(8),
		"dense": NewDense(width),
	}
}

func TestAccumulateMatchesReference(t *testing.T) {
	const width = 500
	rng := rand.New(rand.NewSource(1))
	for name, acc := range accumulators(width) {
		ref := reference{}
		for i := 0; i < 2000; i++ {
			c := int32(rng.Intn(width))
			v := float64(rng.Intn(7)) - 3 // small ints: exact addition
			acc.Add(c, v)
			ref[c] += v
		}
		if acc.Len() != len(ref) {
			t.Fatalf("%s: Len = %d, want %d", name, acc.Len(), len(ref))
		}
		cols, vals := acc.Flush(nil, nil)
		wc, wv := ref.sorted()
		if len(cols) != len(wc) {
			t.Fatalf("%s: flushed %d, want %d", name, len(cols), len(wc))
		}
		for i := range cols {
			if cols[i] != wc[i] || vals[i] != wv[i] {
				t.Fatalf("%s: pair %d = (%d,%v), want (%d,%v)", name, i, cols[i], vals[i], wc[i], wv[i])
			}
		}
		if acc.Len() != 0 {
			t.Fatalf("%s: Len after Flush = %d", name, acc.Len())
		}
	}
}

func TestFlushAppends(t *testing.T) {
	for name, acc := range accumulators(10) {
		acc.Add(3, 1)
		cols := []int32{99}
		vals := []float64{-1}
		cols, vals = acc.Flush(cols, vals)
		if len(cols) != 2 || cols[0] != 99 || cols[1] != 3 || vals[0] != -1 {
			t.Fatalf("%s: Flush did not append: %v %v", name, cols, vals)
		}
	}
}

func TestSymbolicCountsDistinct(t *testing.T) {
	for name, acc := range accumulators(100) {
		for i := 0; i < 50; i++ {
			acc.AddSymbolic(int32(i % 10))
		}
		if n := acc.FlushSymbolic(); n != 10 {
			t.Fatalf("%s: symbolic count = %d, want 10", name, n)
		}
		if n := acc.FlushSymbolic(); n != 0 {
			t.Fatalf("%s: symbolic count after flush = %d, want 0", name, n)
		}
	}
}

func TestMixedSymbolicNumeric(t *testing.T) {
	// Symbolic then flush then numeric on the same accumulator, as the
	// two-phase SpGEMM does row by row.
	for name, acc := range accumulators(20) {
		acc.AddSymbolic(5)
		acc.AddSymbolic(7)
		if n := acc.FlushSymbolic(); n != 2 {
			t.Fatalf("%s: symbolic = %d", name, n)
		}
		acc.Add(5, 2.5)
		acc.Add(5, 2.5)
		cols, vals := acc.Flush(nil, nil)
		if len(cols) != 1 || cols[0] != 5 || vals[0] != 5.0 {
			t.Fatalf("%s: numeric after symbolic = %v %v", name, cols, vals)
		}
	}
}

func TestReset(t *testing.T) {
	for name, acc := range accumulators(10) {
		acc.Add(1, 1)
		acc.Add(2, 2)
		acc.Reset()
		if acc.Len() != 0 {
			t.Fatalf("%s: Len after Reset = %d", name, acc.Len())
		}
		acc.Add(2, 7)
		cols, vals := acc.Flush(nil, nil)
		if len(cols) != 1 || vals[0] != 7 {
			t.Fatalf("%s: stale state after Reset: %v %v", name, cols, vals)
		}
	}
}

func TestHashGrowthBeyondCapacity(t *testing.T) {
	acc := NewHash(2) // deliberately undersized
	const n = 10000
	for i := 0; i < n; i++ {
		acc.Add(int32(i), 1)
	}
	if acc.Len() != n {
		t.Fatalf("Len = %d, want %d", acc.Len(), n)
	}
	cols, _ := acc.Flush(nil, nil)
	for i := range cols {
		if cols[i] != int32(i) {
			t.Fatalf("cols[%d] = %d after growth", i, cols[i])
		}
	}
}

func TestDenseGenerationWraparound(t *testing.T) {
	d := NewDense(4)
	d.gen = ^uint32(0) - 1 // two resets from wrapping
	d.Add(1, 5)
	d.Reset()
	d.Add(2, 6)
	d.Reset() // wraps here
	d.Add(3, 7)
	cols, vals := d.Flush(nil, nil)
	if len(cols) != 1 || cols[0] != 3 || vals[0] != 7 {
		t.Fatalf("wraparound leaked state: %v %v", cols, vals)
	}
}

func TestDenseWidth(t *testing.T) {
	if w := NewDense(17).Width(); w != 17 {
		t.Fatalf("Width = %d, want 17", w)
	}
}

// Property: both accumulators agree with each other on any input stream.
func TestQuickHashDenseAgree(t *testing.T) {
	f := func(ops []struct {
		Col uint16
		Val int8
	}) bool {
		const width = 1 << 16
		h := NewHash(4)
		d := NewDense(width)
		for _, op := range ops {
			h.Add(int32(op.Col), float64(op.Val))
			d.Add(int32(op.Col), float64(op.Val))
		}
		hc, hv := h.Flush(nil, nil)
		dc, dv := d.Flush(nil, nil)
		if len(hc) != len(dc) {
			return false
		}
		for i := range hc {
			if hc[i] != dc[i] || hv[i] != dv[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHashAccumulate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cols := make([]int32, 4096)
	for i := range cols {
		cols[i] = int32(rng.Intn(1 << 20))
	}
	acc := NewHash(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cols {
			acc.Add(c, 1.0)
		}
		acc.Reset()
	}
}

func BenchmarkDenseAccumulate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cols := make([]int32, 4096)
	for i := range cols {
		cols[i] = int32(rng.Intn(1 << 20))
	}
	acc := NewDense(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cols {
			acc.Add(c, 1.0)
		}
		acc.Reset()
	}
}
