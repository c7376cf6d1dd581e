package semiring

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/matgen"
)

func TestPlusTimesMatchesStandardSpGEMM(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		a := matgen.ER(40+rng.Intn(30), 50, 0.1, rng.Int63())
		b := matgen.ER(50, 40+rng.Intn(30), 0.1, rng.Int63())
		want, err := cpuspgemm.Sequential(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 4} {
			got, err := Multiply(a, b, PlusTimes(), threads)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			if !csr.Equal(got, want, 1e-12) {
				t.Fatalf("trial %d threads %d: %s", trial, threads, csr.Diff(got, want, 1e-12))
			}
		}
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
