package graph

import (
	"math/rand"
	"testing"

	"repro/internal/csr"
	"repro/spgemm"
)

// undirected builds a symmetric 0/1 adjacency matrix from an edge list.
func undirected(t testing.TB, n int, edges [][2]int32) *csr.Matrix {
	t.Helper()
	var es []csr.Entry
	for _, e := range edges {
		es = append(es, csr.Entry{Row: e[0], Col: e[1], Val: 1})
		es = append(es, csr.Entry{Row: e[1], Col: e[0], Val: 1})
	}
	m, err := csr.FromEntries(n, n, es)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Data {
		m.Data[i] = 1 // collapse duplicate edges
	}
	return m
}

func TestTrianglesKnownGraphs(t *testing.T) {
	// K4: C(4,3) = 4 triangles.
	k4 := undirected(t, 4, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if got, err := Triangles(k4, nil); err != nil || got != 4 {
		t.Fatalf("K4 triangles = %d, err %v; want 4", got, err)
	}
	// C5 (5-cycle): no triangles.
	c5 := undirected(t, 5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	if got, err := Triangles(c5, nil); err != nil || got != 0 {
		t.Fatalf("C5 triangles = %d, err %v; want 0", got, err)
	}
	// Two disjoint triangles.
	two := undirected(t, 6, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	if got, err := Triangles(two, nil); err != nil || got != 2 {
		t.Fatalf("2xK3 triangles = %d, err %v; want 2", got, err)
	}
	// Empty graph.
	if got, err := Triangles(csr.New(7, 7), nil); err != nil || got != 0 {
		t.Fatalf("empty graph triangles = %d, err %v", got, err)
	}
}

// corruptAdjacency is a 3x3 matrix with a column id (7) out of range.
func corruptAdjacency() *csr.Matrix {
	return &csr.Matrix{Rows: 3, Cols: 3, RowOffsets: []int64{0, 1, 2, 3}, ColIDs: []int32{0, 1, 7}, Data: []float64{1, 1, 1}}
}

func TestTrianglesErrors(t *testing.T) {
	if _, err := Triangles(csr.New(3, 4), nil); err == nil {
		t.Fatal("expected non-square error")
	}
	if _, err := Triangles(corruptAdjacency(), nil); err == nil {
		t.Fatal("expected invalid-matrix error")
	}
}

func TestTrianglesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		n := 20 + rng.Intn(20)
		var edges [][2]int32
		adjSet := map[[2]int32]bool{}
		for i := 0; i < n*3; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if !adjSet[[2]int32{u, v}] {
				adjSet[[2]int32{u, v}] = true
				edges = append(edges, [2]int32{u, v})
			}
		}
		adj := undirected(t, n, edges)
		got, err := Triangles(adj, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force.
		has := func(u, v int) bool {
			cols, _ := adj.Row(u)
			for _, c := range cols {
				if int(c) == v {
					return true
				}
			}
			return false
		}
		var want int64
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if !has(u, v) {
					continue
				}
				for w := v + 1; w < n; w++ {
					if has(u, w) && has(v, w) {
						want++
					}
				}
			}
		}
		if got != want {
			t.Fatalf("trial %d: triangles = %d, want %d", trial, got, want)
		}
	}
}

// plantedPartition builds k dense clusters of size cs with sparse
// inter-cluster edges.
func plantedPartition(t testing.TB, k, cs int, seed int64) (*csr.Matrix, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := k * cs
	var edges [][2]int32
	truth := make([]int, n)
	for g := 0; g < k; g++ {
		base := g * cs
		for i := 0; i < cs; i++ {
			truth[base+i] = g
			for j := i + 1; j < cs; j++ {
				if rng.Float64() < 0.85 {
					edges = append(edges, [2]int32{int32(base + i), int32(base + j)})
				}
			}
		}
	}
	// One weak bridge between consecutive clusters.
	for g := 0; g+1 < k; g++ {
		edges = append(edges, [2]int32{int32(g*cs + cs - 1), int32((g + 1) * cs)})
	}
	return undirected(t, n, edges), truth
}

func TestMCLRecoverPlantedClusters(t *testing.T) {
	adj, truth := plantedPartition(t, 3, 12, 5)
	res, err := MCL(adj, MCLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 3 {
		t.Fatalf("found %d clusters, want 3 (sizes %v)", res.NumClusters, ClusterSizes(res))
	}
	// Every planted cluster must map to exactly one found cluster.
	for g := 0; g < 3; g++ {
		first := -1
		for v, tg := range truth {
			if tg != g {
				continue
			}
			if first == -1 {
				first = res.Labels[v]
			} else if res.Labels[v] != first {
				t.Fatalf("planted cluster %d split: vertex %d has label %d, want %d",
					g, v, res.Labels[v], first)
			}
		}
	}
	if res.Iters < 2 {
		t.Fatalf("suspiciously fast convergence: %d iters", res.Iters)
	}
}

func TestMCLDisconnectedComponents(t *testing.T) {
	// Two disjoint triangles must form two clusters.
	adj := undirected(t, 6, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	res, err := MCL(adj, MCLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("found %d clusters, want 2", res.NumClusters)
	}
	if res.Labels[0] != res.Labels[1] || res.Labels[0] != res.Labels[2] {
		t.Fatal("first triangle split")
	}
	if res.Labels[3] != res.Labels[4] || res.Labels[3] != res.Labels[5] {
		t.Fatal("second triangle split")
	}
	if res.Labels[0] == res.Labels[3] {
		t.Fatal("triangles merged")
	}
}

func TestMCLWithOutOfCoreMultiplier(t *testing.T) {
	adj, _ := plantedPartition(t, 3, 12, 6)
	cfg := spgemm.V100WithMemory(4 << 20)
	gpu, _ := spgemm.ByName("gpu")
	mult := func(a, b *csr.Matrix) (*csr.Matrix, error) {
		c, _, err := gpu.Run(a, b, &spgemm.RunOptions{Device: &cfg, Core: spgemm.OutOfCoreOptions{RowPanels: 2, ColPanels: 2}})
		return c, err
	}
	got, err := MCL(adj, MCLOptions{Multiply: mult})
	if err != nil {
		t.Fatal(err)
	}
	want, err := MCL(adj, MCLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClusters != want.NumClusters {
		t.Fatalf("engines disagree: %d vs %d clusters", got.NumClusters, want.NumClusters)
	}
	for v := range got.Labels {
		// Labels may be permuted; compare co-membership of vertex 0's
		// cluster as a cheap invariant.
		same1 := got.Labels[v] == got.Labels[0]
		same2 := want.Labels[v] == want.Labels[0]
		if same1 != same2 {
			t.Fatalf("vertex %d co-membership differs between engines", v)
		}
	}
}

func TestMCLErrors(t *testing.T) {
	if _, err := MCL(csr.New(3, 4), MCLOptions{}); err == nil {
		t.Fatal("expected non-square error")
	}
	if _, err := MCL(corruptAdjacency(), MCLOptions{}); err == nil {
		t.Fatal("expected invalid-matrix error")
	}
}

func TestClusterSizes(t *testing.T) {
	r := &MCLResult{Labels: []int{0, 1, 1, 2, 1}, NumClusters: 3}
	sizes := ClusterSizes(r)
	if len(sizes) != 3 || sizes[0] != 3 || sizes[1] != 1 || sizes[2] != 1 {
		t.Fatalf("sizes = %v", sizes)
	}
}
