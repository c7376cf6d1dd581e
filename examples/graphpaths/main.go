// Graphpaths: count length-2 paths and triangle candidates in a social
// graph via SpGEMM, the graph-analytics workload the paper's
// introduction motivates (A² of an adjacency matrix counts the
// two-hop paths between every vertex pair).
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/spgemm"
	"repro/spgemm/graph"
)

func main() {
	// A LiveJournal-like scale-free graph.
	a := spgemm.RMAT(13, 10, 0.57, 0.19, 0.19, 7)
	fmt.Printf("graph: %d vertices, %d edges\n", a.Rows, a.Nnz())

	// A² on the hybrid CPU-GPU engine: the output (two-hop path counts)
	// is far larger than the input and exceeds the simulated device
	// memory, so the out-of-core machinery is essential.
	cfg := spgemm.V100WithMemory(48 << 20)
	eng, err := spgemm.ByName("hybrid")
	if err != nil {
		log.Fatal(err)
	}
	a2, report, err := eng.Run(a, a, &spgemm.RunOptions{Device: &cfg})
	if err != nil {
		log.Fatal(err)
	}
	stats := report.(spgemm.HybridStats)
	fmt.Printf("A²: %d vertex pairs connected by 2-hop paths\n", a2.Nnz())
	fmt.Printf("hybrid run: %d chunks on GPU, %d on CPU, %.3f ms simulated, %.3f GFLOPS\n",
		stats.GPUChunks[0], stats.CPUChunks, stats.TotalSec*1e3, stats.GFLOPS)

	// Total number of length-2 paths = sum of all A² entries.
	var totalPaths float64
	for _, v := range a2.Data {
		totalPaths += v
	}
	fmt.Printf("total length-2 paths: %.0f\n", totalPaths)

	// Triangle candidates: vertices v where A²[v][v] > 0 sit on a
	// directed 2-cycle; pairs (u,v) with both A[u][v] != 0 and
	// A²[u][v] > 0 close at least one triangle.
	var triangles float64
	for u := 0; u < a.Rows; u++ {
		cols, _ := a.Row(u)
		p2cols, p2vals := a2.Row(u)
		j := 0
		for _, v := range cols {
			for j < len(p2cols) && p2cols[j] < v {
				j++
			}
			if j < len(p2cols) && p2cols[j] == v {
				triangles += p2vals[j]
			}
		}
	}
	fmt.Printf("directed triangles (closed 2-paths): %.0f\n", triangles)

	// The ten most connected vertex hubs by 2-hop reach.
	type hub struct {
		v     int
		reach int64
	}
	hubs := make([]hub, a.Rows)
	for v := range hubs {
		hubs[v] = hub{v, a2.RowNnz(v)}
	}
	sort.Slice(hubs, func(i, j int) bool { return hubs[i].reach > hubs[j].reach })
	fmt.Println("top 5 vertices by 2-hop reach:")
	for _, h := range hubs[:5] {
		fmt.Printf("  vertex %5d reaches %d vertices in 2 hops\n", h.v, h.reach)
	}

	// PageRank over the same graph (power iteration, one SpMV per
	// step) and BFS hop distances from the top hub.
	rank, iters, _, err := graph.PageRank(a, 0.85, 1e-10, 200)
	if err != nil {
		log.Fatal(err)
	}
	best := 0
	for v := range rank {
		if rank[v] > rank[best] {
			best = v
		}
	}
	fmt.Printf("PageRank converged in %d iterations; top vertex %d (rank %.5f)\n",
		iters, best, rank[best])

	dist, err := graph.BFS(a, best)
	if err != nil {
		log.Fatal(err)
	}
	reached, maxHops := 0, 0
	for _, d := range dist {
		if d >= 0 {
			reached++
			if d > maxHops {
				maxHops = d
			}
		}
	}
	fmt.Printf("BFS from vertex %d reaches %d vertices (eccentricity %d)\n", best, reached, maxHops)
}
