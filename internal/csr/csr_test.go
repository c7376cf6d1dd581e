package csr

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

func mustFromEntries(t *testing.T, rows, cols int, es []Entry) *Matrix {
	t.Helper()
	m, err := FromEntries(rows, cols, es)
	if err != nil {
		t.Fatalf("FromEntries: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate after FromEntries: %v", err)
	}
	return m
}

func TestEmptyMatrix(t *testing.T) {
	m := New(3, 4)
	if err := m.Validate(); err != nil {
		t.Fatalf("empty matrix invalid: %v", err)
	}
	if m.Nnz() != 0 {
		t.Fatalf("Nnz = %d, want 0", m.Nnz())
	}
	if m.MaxRowNnz() != 0 {
		t.Fatalf("MaxRowNnz = %d, want 0", m.MaxRowNnz())
	}
}

func TestZeroValueMatrix(t *testing.T) {
	var m Matrix
	if m.Nnz() != 0 {
		t.Fatalf("zero-value Nnz = %d, want 0", m.Nnz())
	}
}

func TestFromEntriesBasic(t *testing.T) {
	// The CSR example of Figure 1 style: small matrix with known layout.
	m := mustFromEntries(t, 4, 4, []Entry{
		{0, 0, 1}, {0, 2, 2},
		{1, 1, 3},
		{2, 0, 4}, {2, 2, 5}, {2, 3, 6},
		// row 3 empty
	})
	if m.Nnz() != 6 {
		t.Fatalf("Nnz = %d, want 6", m.Nnz())
	}
	wantOffsets := []int64{0, 2, 3, 6, 6}
	for i, w := range wantOffsets {
		if m.RowOffsets[i] != w {
			t.Fatalf("RowOffsets[%d] = %d, want %d", i, m.RowOffsets[i], w)
		}
	}
	cols, vals := m.Row(2)
	if len(cols) != 3 || cols[0] != 0 || cols[1] != 2 || cols[2] != 3 {
		t.Fatalf("row 2 cols = %v", cols)
	}
	if vals[1] != 5 {
		t.Fatalf("row 2 vals = %v", vals)
	}
}

func TestFromEntriesDuplicatesSummed(t *testing.T) {
	m := mustFromEntries(t, 2, 2, []Entry{
		{0, 1, 1.5}, {0, 1, 2.5}, {1, 0, -1}, {1, 0, 1},
	})
	if m.Nnz() != 2 {
		t.Fatalf("Nnz = %d, want 2 after merging duplicates", m.Nnz())
	}
	_, vals := m.Row(0)
	if vals[0] != 4.0 {
		t.Fatalf("merged value = %v, want 4.0", vals[0])
	}
}

func TestFromEntriesOutOfRange(t *testing.T) {
	if _, err := FromEntries(2, 2, []Entry{{2, 0, 1}}); err == nil {
		t.Fatal("expected error for out-of-range row")
	}
	if _, err := FromEntries(2, 2, []Entry{{0, 5, 1}}); err == nil {
		t.Fatal("expected error for out-of-range column")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mk := func() *Matrix {
		m, _ := FromEntries(3, 3, []Entry{{0, 0, 1}, {0, 2, 2}, {2, 1, 3}})
		return m
	}

	m := mk()
	m.RowOffsets[1] = 5
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for non-monotone offsets")
	}

	// An interior offset past nnz must be an error, not an index panic:
	// with ascending columns nothing else stops the row scan first.
	m, _ = FromEntries(3, 3, []Entry{{0, 0, 1}, {0, 1, 2}, {2, 2, 3}})
	m.RowOffsets[1] = 5
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for an offset past nnz")
	}

	m = mk()
	m.ColIDs[1] = 9
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for out-of-range column")
	}

	m = mk()
	m.ColIDs[0], m.ColIDs[1] = m.ColIDs[1], m.ColIDs[0]
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for unsorted columns")
	}

	m = mk()
	m.RowOffsets[0] = 1
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for RowOffsets[0] != 0")
	}

	m = mk()
	m.Data = m.Data[:1]
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for short Data")
	}
}

func randomMatrix(rng *rand.Rand, rows, cols int, density float64) *Matrix {
	var es []Entry
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				es = append(es, Entry{int32(r), int32(c), rng.NormFloat64()})
			}
		}
	}
	m, err := FromEntries(rows, cols, es)
	if err != nil {
		panic(err)
	}
	return m
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m := randomMatrix(rng, 1+rng.Intn(30), 1+rng.Intn(30), 0.2)
		tt := m.Transpose().Transpose()
		if err := tt.Validate(); err != nil {
			t.Fatalf("transpose-transpose invalid: %v", err)
		}
		if !Equal(m, tt, 0) {
			t.Fatalf("transpose not an involution: %s", Diff(m, tt, 0))
		}
	}
}

func TestTransposeEntries(t *testing.T) {
	m := mustFromEntries(t, 2, 3, []Entry{{0, 2, 7}, {1, 0, 3}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose dims %dx%d", tr.Rows, tr.Cols)
	}
	cols, vals := tr.Row(2)
	if len(cols) != 1 || cols[0] != 0 || vals[0] != 7 {
		t.Fatalf("transpose row 2 = %v %v", cols, vals)
	}
}

func TestExtractRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 20, 10, 0.3)
	p, err := m.ExtractRows(5, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("panel invalid: %v", err)
	}
	if p.Rows != 7 || p.Cols != 10 {
		t.Fatalf("panel dims %dx%d", p.Rows, p.Cols)
	}
	for r := 0; r < 7; r++ {
		pc, pv := p.Row(r)
		mc, mv := m.Row(r + 5)
		if len(pc) != len(mc) {
			t.Fatalf("panel row %d nnz mismatch", r)
		}
		for i := range pc {
			if pc[i] != mc[i] || pv[i] != mv[i] {
				t.Fatalf("panel row %d element %d mismatch", r, i)
			}
		}
	}
}

func TestExtractRowsWholeAndEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 8, 8, 0.4)
	whole, err := m.ExtractRows(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(m, whole, 0) {
		t.Fatal("ExtractRows(0, Rows) != original")
	}
	empty, err := m.ExtractRows(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Rows != 0 || empty.Nnz() != 0 {
		t.Fatal("empty panel not empty")
	}
}

func TestExtractRowsOutOfRange(t *testing.T) {
	m := New(4, 4)
	for _, r := range [][2]int{{2, 9}, {-1, 3}, {3, 2}} {
		if _, err := m.ExtractRows(r[0], r[1]); err == nil {
			t.Fatalf("ExtractRows(%d, %d): expected error", r[0], r[1])
		}
	}
}

func TestAdd(t *testing.T) {
	a := mustFromEntries(t, 2, 3, []Entry{{0, 0, 1}, {0, 2, 2}, {1, 1, 3}})
	b := mustFromEntries(t, 2, 3, []Entry{{0, 0, 4}, {0, 1, 5}, {1, 1, -3}})
	s, err := Add(a, b)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("sum invalid: %v", err)
	}
	want := mustFromEntries(t, 2, 3, []Entry{{0, 0, 5}, {0, 1, 5}, {0, 2, 2}, {1, 1, 0}})
	if !Equal(s, want, 0) {
		t.Fatalf("Add mismatch: %s", Diff(s, want, 0))
	}
}

func TestAddDimensionMismatch(t *testing.T) {
	if _, err := Add(New(2, 2), New(3, 2)); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestAddCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		a := randomMatrix(rng, 15, 15, 0.2)
		b := randomMatrix(rng, 15, 15, 0.2)
		ab, _ := Add(a, b)
		ba, _ := Add(b, a)
		if !Equal(ab, ba, 1e-12) {
			t.Fatalf("Add not commutative: %s", Diff(ab, ba, 1e-12))
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := mustFromEntries(t, 2, 2, []Entry{{0, 0, 1}, {1, 1, 2}})
	c := m.Clone()
	c.Data[0] = 99
	c.ColIDs[1] = 0
	if m.Data[0] == 99 || m.ColIDs[1] == 0 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestBytes(t *testing.T) {
	m := mustFromEntries(t, 2, 2, []Entry{{0, 0, 1}, {1, 1, 2}})
	want := int64(3*8 + 2*4 + 2*8)
	if m.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", m.Bytes(), want)
	}
}

func TestEqualTolerance(t *testing.T) {
	a := mustFromEntries(t, 1, 2, []Entry{{0, 0, 1.0}, {0, 1, 2.0}})
	b := mustFromEntries(t, 1, 2, []Entry{{0, 0, 1.0 + 1e-13}, {0, 1, 2.0}})
	if !Equal(a, b, 1e-9) {
		t.Fatal("matrices should be equal within tolerance")
	}
	if Equal(a, b, 0) {
		t.Fatal("matrices should differ at zero tolerance")
	}
}

// TestEqualNonFinite pins what a tolerance cannot decide: a NaN equals
// only a NaN, and an infinity only itself, at zero and non-zero
// tolerance, compared either way round.
func TestEqualNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		x, y  float64
		equal bool
	}{
		{nan, 1, false},
		{nan, 0, false},
		{nan, nan, true},
		{inf, -inf, false},
		{inf, 1, false},
		{-inf, -1e308, false},
		{inf, nan, false},
		{inf, inf, true},
		{-inf, -inf, true},
		{math.Copysign(0, -1), 0, true},
	}
	for _, c := range cases {
		for _, tol := range []float64{0, 1e-9, 1} {
			for _, pair := range [][2]float64{{c.x, c.y}, {c.y, c.x}} {
				a := mustFromEntries(t, 1, 1, []Entry{{0, 0, pair[0]}})
				b := mustFromEntries(t, 1, 1, []Entry{{0, 0, pair[1]}})
				if got := Equal(a, b, tol); got != c.equal {
					t.Errorf("Equal(%v, %v, tol %g) = %v, want %v (Diff %q)", pair[0], pair[1], tol, got, c.equal, Diff(a, b, tol))
				}
			}
		}
	}
}

// Property: round-tripping any set of entries through CSR preserves the
// dense reconstruction.
func TestQuickFromEntriesDenseRoundTrip(t *testing.T) {
	f := func(raw []struct {
		R, C uint8
		V    int16
	}) bool {
		const n = 16
		dense := make([]float64, n*n)
		es := make([]Entry, 0, len(raw))
		for _, e := range raw {
			// Small-integer values make summation exact regardless of
			// the order duplicates are merged in.
			r, c, v := int(e.R)%n, int(e.C)%n, float64(e.V)
			dense[r*n+c] += v
			es = append(es, Entry{int32(r), int32(c), v})
		}
		m, err := FromEntries(n, n, es)
		if err != nil || m.Validate() != nil {
			return false
		}
		got := make([]float64, n*n)
		for r := 0; r < n; r++ {
			cols, vals := m.Row(r)
			for i := range cols {
				got[r*n+int(cols[i])] = vals[i]
			}
		}
		for i := range dense {
			if dense[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: transposing preserves nnz and swaps dimensions.
func TestQuickTransposeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMatrix(r, 1+int(seed%13+13)%13+1, 1+r.Intn(20), 0.25)
		tr := m.Transpose()
		return tr.Validate() == nil && tr.Nnz() == m.Nnz() && tr.Rows == m.Cols && tr.Cols == m.Rows
	}
	for i := 0; i < 25; i++ {
		if !f(rng.Int63()) {
			t.Fatal("transpose shape property violated")
		}
	}
}

// inOrderOracle is the matrix FromEntries must return: the entries
// stably sorted by (row, col), and each run of equal positions assigned
// its first value with the rest added in input order.
func inOrderOracle(rows, cols int, es []Entry) *Matrix {
	s := slices.Clone(es)
	slices.SortStableFunc(s, func(a, b Entry) int {
		if c := cmp.Compare(a.Row, b.Row); c != 0 {
			return c
		}
		return cmp.Compare(a.Col, b.Col)
	})
	m := New(rows, cols)
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

// requireSameBits fails unless got and want agree in shape, structure
// and every value's bits.
func requireSameBits(t *testing.T, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols ||
		!slices.Equal(got.RowOffsets, want.RowOffsets) || !slices.Equal(got.ColIDs, want.ColIDs) {
		t.Fatalf("structure differs: %dx%d nnz %d, want %dx%d nnz %d", got.Rows, got.Cols, got.Nnz(), want.Rows, want.Cols, want.Nnz())
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("value %d (column %d) = %v, want %v", i, got.ColIDs[i], got.Data[i], want.Data[i])
		}
	}
}

// TestFromEntriesLargeUnsorted builds 32k shuffled triplets, rows long
// enough to sort by packed keys, and checks the result against the
// in-order oracle bit for bit.
func TestFromEntriesLargeUnsorted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const rows, cols = 500, 500
	es := make([]Entry, 1<<15)
	for i := range es {
		es[i] = Entry{Row: int32(rng.Intn(rows)), Col: int32(rng.Intn(cols)), Val: rng.NormFloat64()}
	}
	want := inOrderOracle(rows, cols, es)
	requireSameBits(t, mustFromEntries(t, rows, cols, es), want)
}

// TestFromEntriesSumsInInputOrder draws values whose float sums depend
// on their order, with many duplicates per position, and requires the
// input-order sums under one and two procs: on rows of about ten
// entries (mostly insertion sort) and on long ones (packed keys).
func TestFromEntriesSumsInInputOrder(t *testing.T) {
	vals := []float64{1e16, 1, -1e16, 3, 0.1, -0.3}
	for _, shape := range []struct{ rows, cols int }{{4, 50}, {6000, 5}} {
		rng := rand.New(rand.NewSource(int64(shape.rows)))
		es := make([]Entry, 60000)
		for i := range es {
			es[i] = Entry{Row: int32(rng.Intn(shape.rows)), Col: int32(rng.Intn(shape.cols)), Val: vals[rng.Intn(len(vals))]}
		}
		want := inOrderOracle(shape.rows, shape.cols, es)
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			got := mustFromEntries(t, shape.rows, shape.cols, es)
			runtime.GOMAXPROCS(prev)
			requireSameBits(t, got, want)
		}
	}
}

// TestFromEntriesReadsOnlyAndSpawnsNothing pins that the builder leaves
// the caller's slice as it was and starts no goroutine.
func TestFromEntriesReadsOnlyAndSpawnsNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rng := rand.New(rand.NewSource(11))
	es := make([]Entry, 1<<15)
	for i := range es {
		es[i] = Entry{Row: int32(rng.Intn(300)), Col: int32(rng.Intn(300)), Val: rng.NormFloat64()}
	}
	before := slices.Clone(es)
	spawned := parallel.Spawned()
	mustFromEntries(t, 300, 300, es)
	if n := parallel.Spawned() - spawned; n != 0 {
		t.Fatalf("FromEntries started %d goroutines", n)
	}
	if !slices.Equal(es, before) {
		t.Fatal("FromEntries changed its input")
	}
}

// TestTransposeLargeParallelAgreesWithSequential forces both transpose
// paths on the same matrix and requires identical output.
func TestTransposeLargeParallelAgreesWithSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const rows, cols = 900, 300
	var es []Entry
	for i := 0; i < transposeParallelCutoff+5000; i++ {
		es = append(es, Entry{Row: int32(rng.Intn(rows)), Col: int32(rng.Intn(cols)), Val: rng.NormFloat64()})
	}
	m := mustFromEntries(t, rows, cols, es)

	// The sequential reference, computed inline regardless of cutoff.
	ref := &Matrix{Rows: m.Cols, Cols: m.Rows, RowOffsets: make([]int64, m.Cols+1),
		ColIDs: make([]int32, m.Nnz()), Data: make([]float64, m.Nnz())}
	for _, c := range m.ColIDs {
		ref.RowOffsets[c+1]++
	}
	for c := 0; c < m.Cols; c++ {
		ref.RowOffsets[c+1] += ref.RowOffsets[c]
	}
	pos := make([]int64, m.Cols)
	copy(pos, ref.RowOffsets[:m.Cols])
	for r := 0; r < m.Rows; r++ {
		for p := m.RowOffsets[r]; p < m.RowOffsets[r+1]; p++ {
			c := m.ColIDs[p]
			ref.ColIDs[pos[c]] = int32(r)
			ref.Data[pos[c]] = m.Data[p]
			pos[c]++
		}
	}

	// The parallel path, invoked directly so the test does not depend
	// on GOMAXPROCS exceeding one.
	got := m.transposeParallel(4)
	if err := got.Validate(); err != nil {
		t.Fatalf("parallel transpose invalid: %v", err)
	}
	if !Equal(got, ref, 0) {
		t.Fatalf("parallel transpose differs: %s", Diff(got, ref, 0))
	}

	// And the involution still holds through the public entry point.
	back := got.Transpose()
	if !Equal(back, m, 0) {
		t.Fatalf("transpose involution broken: %s", Diff(back, m, 0))
	}
}
