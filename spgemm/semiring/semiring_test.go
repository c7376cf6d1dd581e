package semiring

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/matgen"
)

// TestPlusTimesMatchesStandardSpGEMM pins plus-times to the library's
// reference product bit for bit, once its explicit zeros are dropped.
func TestPlusTimesMatchesStandardSpGEMM(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		a := matgen.ER(40+rng.Intn(30), 50, 0.1, rng.Int63())
		b := matgen.ER(50, 40+rng.Intn(30), 0.1, rng.Int63())
		want, err := cpuspgemm.Sequential(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want = dropValue(want, 0)
		for _, threads := range []int{1, 4} {
			got, err := Multiply(a, b, PlusTimes(), threads)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameBits(got, want); d != "" {
				t.Fatalf("trial %d threads %d: %s", trial, threads, d)
			}
		}
	}
}

// naiveMultiply is the oracle of the differential test: a map per row,
// a column's first product assigned and every later one ⊕-ed onto it in
// (p, q) order, columns sorted, entries equal to Zero dropped.
func naiveMultiply(a, b *csr.Matrix, s Semiring) *csr.Matrix {
	c := &csr.Matrix{Rows: a.Rows, Cols: b.Cols, RowOffsets: make([]int64, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		row := map[int32]float64{}
		ac, av := a.Row(i)
		for p, k := range ac {
			bc, bv := b.Row(int(k))
			for q, col := range bc {
				x := s.Times(av[p], bv[q])
				if v, ok := row[col]; ok {
					x = s.Plus(v, x)
				}
				row[col] = x
			}
		}
		var cols []int32
		for col := range row {
			cols = append(cols, col)
		}
		slices.Sort(cols)
		for _, col := range cols {
			c.ColIDs, c.Data = append(c.ColIDs, col), append(c.Data, row[col])
		}
		c.RowOffsets[i+1] = int64(len(c.ColIDs))
	}
	return dropValue(c, s.Zero)
}

// dropValue returns m without its entries equal to zero.
func dropValue(m *csr.Matrix, zero float64) *csr.Matrix {
	out := &csr.Matrix{Rows: m.Rows, Cols: m.Cols, RowOffsets: make([]int64, m.Rows+1)}
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for j, v := range vals {
			if v != zero {
				out.ColIDs, out.Data = append(out.ColIDs, cols[j]), append(out.Data, v)
			}
		}
		out.RowOffsets[r+1] = int64(len(out.ColIDs))
	}
	return out
}

// sameBits describes the first difference between got and want,
// comparing values by their bits (NaN equals NaN, -0 differs from 0),
// or returns "" when there is none. got must also be valid.
func sameBits(got, want *csr.Matrix) string {
	if err := got.Validate(); err != nil {
		return err.Error()
	}
	if d := csr.Diff(got, want, 0); d != "" {
		return d
	}
	for j, v := range want.Data {
		if math.Float64bits(got.Data[j]) != math.Float64bits(v) {
			return fmt.Sprintf("entry %d (column %d): %v vs %v", j, got.ColIDs[j], got.Data[j], v)
		}
	}
	return ""
}

// seeded gives m random values, one in four of them NaN, ±Inf, -0 or 0.
func seeded(m *csr.Matrix, seed int64) *csr.Matrix {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	rng := rand.New(rand.NewSource(seed))
	m = m.Clone()
	for j := range m.Data {
		if rng.Intn(4) == 0 {
			m.Data[j] = specials[rng.Intn(len(specials))]
		} else {
			m.Data[j] = float64(rng.Intn(7)-3) + rng.Float64()
		}
	}
	return m
}

// wideB is a rows x (2^20 + 17) matrix, past the bitmap tier, whose rows
// mix scattered columns with contiguous runs.
func wideB(rows int, seed int64) *csr.Matrix {
	const cols = 1<<20 + 17
	rng := rand.New(rand.NewSource(seed))
	var es []csr.Entry
	for r := 0; r < rows; r++ {
		for range rng.Intn(40) {
			es = append(es, csr.Entry{Row: int32(r), Col: int32(rng.Intn(cols)), Val: 1})
		}
		start := rng.Intn(cols - 200)
		for c := start; c < start+rng.Intn(200); c++ {
			es = append(es, csr.Entry{Row: int32(r), Col: int32(c), Val: 1})
		}
		es = append(es, csr.Entry{Row: int32(r), Col: cols - 1, Val: 1})
	}
	m, err := csr.FromEntries(rows, cols, es)
	if err != nil {
		panic(err)
	}
	return m
}

// TestMultiplyMatchesOracle is the differential test: every semiring,
// on RMAT, ER, Band and a B past the bitmap tier, with values seeded
// with NaN, ±Inf, -0 and 0, at 1, 2 and 4 threads, and on empty shapes,
// agrees with naiveMultiply bit for bit.
func TestMultiplyMatchesOracle(t *testing.T) {
	type pair struct {
		name string
		a, b *csr.Matrix
	}
	rmat := matgen.RMAT(9, 8, 0.57, 0.19, 0.19, 3)
	er := matgen.ER(500, 500, 0.01, 4)
	band := matgen.Band(400, 7, 5)
	wideA := matgen.ER(100, 64, 0.1, 6)
	pairs := []pair{
		{"rmat", seeded(rmat, 1), seeded(rmat, 2)},
		{"er", seeded(er, 3), seeded(er, 4)},
		{"band", seeded(band, 5), seeded(band, 6)},
		{"wide", seeded(wideA, 7), seeded(wideB(64, 8), 9)},
		{"0x0", csr.New(0, 0), csr.New(0, 0)},
		{"kx0", csr.New(3, 0), csr.New(0, 4)},
		{"0-col-b", seeded(matgen.ER(5, 6, 0.5, 10), 11), csr.New(6, 0)},
		{"threads>rows", seeded(matgen.ER(2, 6, 0.5, 12), 13), seeded(matgen.ER(6, 5, 0.5, 14), 15)},
	}
	for _, s := range []Semiring{PlusTimes(), MinPlus(), MaxMin(), OrAnd()} {
		for _, p := range pairs {
			want := naiveMultiply(p.a, p.b, s)
			for _, threads := range []int{1, 2, 4} {
				got, err := Multiply(p.a, p.b, s, threads)
				if err != nil {
					t.Fatal(err)
				}
				if d := sameBits(got, want); d != "" {
					t.Fatalf("%s %s threads %d: %s", s.Name, p.name, threads, d)
				}
			}
		}
	}
}

// sink keeps the benchmark's products live.
var sink *csr.Matrix

// BenchmarkMultiply times plus-times and min-plus on RMAT(11,8)² at two
// threads.
func BenchmarkMultiply(b *testing.B) {
	a := matgen.RMAT(11, 8, 0.57, 0.19, 0.19, 1)
	for _, s := range []Semiring{PlusTimes(), MinPlus()} {
		b.Run(s.Name, func(b *testing.B) {
			for range b.N {
				c, err := Multiply(a, a, s, 2)
				if err != nil {
					b.Fatal(err)
				}
				sink = c
			}
		})
	}
}

// weightedGraph builds a directed weighted adjacency matrix.
func weightedGraph(t testing.TB, n int, edges map[[2]int32]float64) *csr.Matrix {
	t.Helper()
	var es []csr.Entry
	for e, w := range edges {
		es = append(es, csr.Entry{Row: e[0], Col: e[1], Val: w})
	}
	m, err := csr.FromEntries(n, n, es)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMinPlusRelaxation(t *testing.T) {
	// Path graph 0 -(1)-> 1 -(2)-> 2; (A ⊗ A)[0][2] = 3.
	a := weightedGraph(t, 3, map[[2]int32]float64{
		{0, 1}: 1, {1, 2}: 2,
	})
	p, err := Multiply(a, a, MinPlus(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cols, vals := p.Row(0)
	if len(cols) != 1 || cols[0] != 2 || vals[0] != 3 {
		t.Fatalf("min-plus A² row 0 = %v %v, want [(2,3)]", cols, vals)
	}
}

func TestMinPlusPicksShorterPath(t *testing.T) {
	// Two 2-hop routes from 0 to 3: via 1 (cost 5) and via 2 (cost 4).
	a := weightedGraph(t, 4, map[[2]int32]float64{
		{0, 1}: 2, {1, 3}: 3,
		{0, 2}: 1, {2, 3}: 3,
	})
	p, err := Multiply(a, a, MinPlus(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cols, vals := p.Row(0)
	if len(cols) != 1 || cols[0] != 3 || vals[0] != 4 {
		t.Fatalf("min-plus chose %v %v, want [(3,4)]", cols, vals)
	}
}

func TestOrAndReachability(t *testing.T) {
	// 0 -> 1 -> 2; A² under or-and marks 2-hop reachability.
	a := weightedGraph(t, 3, map[[2]int32]float64{
		{0, 1}: 1, {1, 2}: 1,
	})
	p, err := Multiply(a, a, OrAnd(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cols, vals := p.Row(0)
	if len(cols) != 1 || cols[0] != 2 || vals[0] != 1 {
		t.Fatalf("or-and A² row 0 = %v %v", cols, vals)
	}
}

func TestMaxMinBottleneck(t *testing.T) {
	// 0 -(5)-> 1 -(2)-> 3 and 0 -(3)-> 2 -(4)-> 3: best bottleneck is
	// max(min(5,2), min(3,4)) = 3.
	a := weightedGraph(t, 4, map[[2]int32]float64{
		{0, 1}: 5, {1, 3}: 2,
		{0, 2}: 3, {2, 3}: 4,
	})
	p, err := Multiply(a, a, MaxMin(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cols, vals := p.Row(0)
	if len(cols) != 1 || cols[0] != 3 || vals[0] != 3 {
		t.Fatalf("max-min = %v %v, want [(3,3)]", cols, vals)
	}
}

func TestZeroResultsPruned(t *testing.T) {
	// Plus-times where products cancel: (1)(1) + (1)(-1) = 0 must be
	// dropped from the sparse output.
	a, _ := csr.FromEntries(1, 2, []csr.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1}})
	b, _ := csr.FromEntries(2, 1, []csr.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: -1}})
	p, err := Multiply(a, b, PlusTimes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nnz() != 0 {
		t.Fatalf("cancelled product kept %d entries", p.Nnz())
	}
}

func TestErrors(t *testing.T) {
	if _, err := Multiply(csr.New(2, 3), csr.New(4, 4), PlusTimes(), 1); err == nil {
		t.Fatal("expected dimension mismatch")
	}
	if _, err := Multiply(csr.New(2, 2), csr.New(2, 2), Semiring{Name: "broken"}, 1); err == nil {
		t.Fatal("expected missing-operator error")
	}
	// A column id (7) out of range.
	corrupt := &csr.Matrix{Rows: 3, Cols: 3, RowOffsets: []int64{0, 1, 2, 3}, ColIDs: []int32{0, 1, 7}, Data: []float64{1, 1, 1}}
	if _, err := Multiply(corrupt, corrupt, MinPlus(), 1); err == nil {
		t.Fatal("expected invalid-matrix error")
	}
}

// TestAPSPAgainstFloydWarshall iterates min-plus products to a
// fixpoint and compares against Floyd-Warshall.
func TestAPSPAgainstFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 24
	edges := map[[2]int32]float64{}
	for i := 0; i < n*3; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			edges[[2]int32{u, v}] = 1 + rng.Float64()*9
		}
	}
	a := weightedGraph(t, n, edges)

	dist, err := APSP(a, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Floyd-Warshall reference.
	const inf = math.MaxFloat64
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i == j {
				d[i][j] = 0
			} else {
				d[i][j] = inf
			}
		}
	}
	for e, w := range edges {
		if w < d[e[0]][e[1]] {
			d[e[0]][e[1]] = w
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k] != inf && d[k][j] != inf && d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}

	for i := 0; i < n; i++ {
		row := map[int32]float64{}
		cols, vals := dist.Row(i)
		for x := range cols {
			row[cols[x]] = vals[x]
		}
		for j := 0; j < n; j++ {
			want, ok := d[i][j], d[i][j] != inf
			got, gok := row[int32(j)]
			if i == j {
				// APSP stores explicit zero-distance diagonal.
				if !gok || got != 0 {
					t.Fatalf("diagonal (%d,%d) = %v,%v", i, j, got, gok)
				}
				continue
			}
			if ok != gok {
				t.Fatalf("(%d,%d): reachable %v vs %v", i, j, gok, ok)
			}
			if ok && math.Abs(got-want) > 1e-9 {
				t.Fatalf("(%d,%d): dist %v, want %v", i, j, got, want)
			}
		}
	}
}
