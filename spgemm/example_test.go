package spgemm_test

import (
	"fmt"

	"repro/spgemm"
)

// ExampleMultiply squares a tiny matrix on the CPU engine.
func ExampleMultiply() {
	a, _ := spgemm.FromEntries(2, 2, []spgemm.Entry{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 2}, {Row: 1, Col: 1, Val: 3},
	})
	c, _ := spgemm.Multiply(a, a)
	cols, vals := c.Row(0)
	fmt.Println(cols, vals)
	// Output: [0 1] [1 8]
}

// ExampleMultiplyOutOfCore runs the paper's asynchronous out-of-core
// pipeline on a simulated GPU too small to hold the product.
func ExampleMultiplyOutOfCore() {
	a := spgemm.RMAT(10, 8, 0.57, 0.19, 0.19, 1)
	cfg := spgemm.V100WithMemory(2 << 20)
	opts, _ := spgemm.Plan(a, a, cfg)
	c, stats, _ := spgemm.MultiplyOutOfCore(a, a, cfg, opts)

	ref, _ := spgemm.Multiply(a, a)
	fmt.Println("exact:", spgemm.Equal(c, ref, 1e-9))
	fmt.Println("out-of-core:", stats.Chunks > 1)
	// Output:
	// exact: true
	// out-of-core: true
}

// ExampleMultiplyHybrid distributes chunks between the simulated GPU
// and the real multi-core CPU.
func ExampleMultiplyHybrid() {
	a := spgemm.Band(2000, 4, 7)
	cfg := spgemm.V100WithMemory(4 << 20)
	c, stats, _ := spgemm.MultiplyHybrid(a, a, cfg, spgemm.HybridOptions{
		Core: spgemm.OutOfCoreOptions{RowPanels: 3, ColPanels: 3, Reorder: true},
	})
	fmt.Println("nnz:", c.Nnz() > 0)
	fmt.Println("both devices used:", stats.GPUChunks[0] > 0 && stats.CPUChunks > 0)
	// Output:
	// nnz: true
	// both devices used: true
}
