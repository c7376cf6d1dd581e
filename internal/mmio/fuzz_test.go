package mmio

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/csr"
)

// FuzzRead checks the Matrix Market parser never panics and that any
// matrix it accepts is structurally valid and round-trips.
func FuzzRead(f *testing.F) {
	seeds := []string{
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.5\n",
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 5\n2 1 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n",
		"%%MatrixMarket matrix coordinate integer general\n1 2 1\n1 2 7\n",
		"%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3\n",
		"% comment only\n",
		"%%MatrixMarket matrix coordinate real general\n0 0 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n",
		"%%MatrixMarket matrix coordinate real general\n-1 2 1\n1 1 1\n",
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		m, err := Read(strings.NewReader(in))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("accepted invalid matrix: %v\ninput: %q", verr, in)
		}
		// Accepted matrices must round-trip (NaN values break Equal,
		// so compare structure only when values are comparable).
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v\ninput: %q", err, in)
		}
		if back.Rows != m.Rows || back.Cols != m.Cols || back.Nnz() != m.Nnz() {
			t.Fatalf("round trip changed shape: %dx%d/%d vs %dx%d/%d",
				m.Rows, m.Cols, m.Nnz(), back.Rows, back.Cols, back.Nnz())
		}
	})
}

// FuzzFromEntries checks the CSR builder on arbitrary triplets against
// an input-order oracle, bit for bit. Values are drawn from a set whose
// float sums depend on their order (NaN, ±Inf and -0 among them), up to
// 2^16 entries fill rows long enough for the builder's key sort, and
// about one entry in a thousand lies outside the matrix, which must
// return an error rather than panic.
func FuzzFromEntries(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(10), uint16(30))
	f.Add(int64(7), uint8(2), uint8(40), uint16(50000))
	vals := []float64{1e16, 1, -1e16, 3, 0.1, -0.3, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324}
	f.Fuzz(func(t *testing.T, seed int64, rows, cols uint8, count uint16) {
		r := int(rows)%64 + 1
		c := int(cols)%64 + 1
		es := make([]csr.Entry, count)
		outside := false
		x := seed
		for i := range es {
			// Cheap deterministic PRNG to map the fuzz input to entries.
			x = x*6364136223846793005 + 1442695040888963407
			e := csr.Entry{
				Row: int32((x >> 8) & 0x3f % int64(r)),
				Col: int32((x >> 20) & 0x3f % int64(c)),
				Val: vals[uint64(x>>32)%uint64(len(vals))],
			}
			switch (x >> 44) & 0x3ff {
			case 1:
				e.Row = int32(r)
			case 2:
				e.Col = -1
			}
			outside = outside || e.Row == int32(r) || e.Col < 0
			es[i] = e
		}
		m, err := csr.FromEntries(r, c, es)
		if outside {
			if err == nil {
				t.Fatal("out-of-range entry accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("in-range entries rejected: %v", err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("invalid CSR built: %v", err)
		}
		want := inOrderSums(r, c, es)
		if !slices.Equal(m.RowOffsets, want.RowOffsets) || !slices.Equal(m.ColIDs, want.ColIDs) {
			t.Fatalf("structure differs from the oracle: nnz %d, want %d", m.Nnz(), want.Nnz())
		}
		for i, v := range want.Data {
			if math.Float64bits(m.Data[i]) != math.Float64bits(v) {
				t.Fatalf("value %d (column %d) = %v, want %v", i, m.ColIDs[i], m.Data[i], v)
			}
		}
	})
}

// inOrderSums is FromEntries' oracle: the entries stably sorted by
// (row, col), and each run of equal positions assigned its first value
// with the rest added in input order.
func inOrderSums(rows, cols int, es []csr.Entry) *csr.Matrix {
	s := slices.Clone(es)
	slices.SortStableFunc(s, func(a, b csr.Entry) int {
		if c := cmp.Compare(a.Row, b.Row); c != 0 {
			return c
		}
		return cmp.Compare(a.Col, b.Col)
	})
	m := csr.New(rows, cols)
	for i, e := range s {
		if i > 0 && s[i-1].Row == e.Row && s[i-1].Col == e.Col {
			m.Data[len(m.Data)-1] += e.Val
			continue
		}
		m.ColIDs = append(m.ColIDs, e.Col)
		m.Data = append(m.Data, e.Val)
		m.RowOffsets[e.Row+1]++
	}
	for r := 0; r < rows; r++ {
		m.RowOffsets[r+1] += m.RowOffsets[r]
	}
	return m
}
