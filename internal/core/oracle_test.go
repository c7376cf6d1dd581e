package core_test

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/gpusim"
	"repro/internal/partition"
	"repro/internal/speck"
)

// Test support of the in-place product's tests: adversarial random
// operands, and the composition the engines replaced — every chunk a
// private product, the grid copied together — kept as the oracle the
// in-place product must equal bit for bit.

// colPanelChoices are the column-panel counts the property tests draw
// from: the single-panel case, whose split table is the row offsets
// themselves, and three multi-panel ones.
var colPanelChoices = []int{1, 2, 3, 5}

// specials are the values no accumulator may normalize away.
var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}

// propCase is one random multiplication: operands and a chunk grid.
type propCase struct {
	A, B                 *csr.Matrix
	RowPanels, ColPanels int
}

func (c propCase) String() string {
	return fmt.Sprintf("%dx%d(%d nnz) · %dx%d(%d nnz) on a %dx%d grid",
		c.A.Rows, c.A.Cols, c.A.Nnz(), c.B.Rows, c.B.Cols, c.B.Nnz(), c.RowPanels, c.ColPanels)
}

// randomCase draws operands whose densities range from almost empty
// (more panels than non-zeros, whole chunks without work) to dense,
// with empty rows and about one value in eight special (NaN, ±Inf,
// -0.0, explicit 0), and a grid with up to one row panel per row.
func randomCase(rng *rand.Rand) propCase {
	rows, inner, cols := 1+rng.Intn(40), 1+rng.Intn(40), 5+rng.Intn(60)
	return propCase{
		A:         randomMatrix(rng, rows, inner),
		B:         randomMatrix(rng, inner, cols),
		RowPanels: 1 + rng.Intn(rows),
		ColPanels: colPanelChoices[rng.Intn(len(colPanelChoices))],
	}
}

func randomMatrix(rng *rand.Rand, rows, cols int) *csr.Matrix {
	density := []float64{0.01, 0.1, 0.5}[rng.Intn(3)]
	var es []csr.Entry
	for r := 0; r < rows; r++ {
		if rng.Intn(4) == 0 {
			continue // empty row
		}
		for c := 0; c < cols; c++ {
			if rng.Float64() >= density {
				continue
			}
			v := rng.NormFloat64()
			if rng.Intn(8) == 0 {
				v = specials[rng.Intn(len(specials))]
			}
			es = append(es, csr.Entry{Row: int32(r), Col: int32(c), Val: v})
		}
	}
	m, err := csr.FromEntries(rows, cols, es)
	if err != nil {
		panic(err)
	}
	return m
}

// freshValues returns a copy of m sharing its sparsity pattern, with new
// deterministic values: the operand of a plan-cache hit.
func freshValues(m *csr.Matrix, seed int64) *csr.Matrix {
	rng := rand.New(rand.NewSource(seed))
	out := &csr.Matrix{Rows: m.Rows, Cols: m.Cols, RowOffsets: m.RowOffsets, ColIDs: m.ColIDs, Data: make([]float64, len(m.Data))}
	for i := range out.Data {
		out.Data[i] = rng.NormFloat64()
	}
	return out
}

// composed multiplies the case the way the engines did before they
// computed in place: partition, speck.Compute per chunk (panel-local
// column ids), core.AssembleChunks.
func composed(c propCase, cfg gpusim.DeviceConfig) (*csr.Matrix, error) {
	rps, err := partition.RowPanels(c.A, c.RowPanels)
	if err != nil {
		return nil, err
	}
	cps, err := partition.ColPanels(c.B, c.ColPanels)
	if err != nil {
		return nil, err
	}
	cm := speck.ModelFromDevice(cfg)
	chunks := make([]*csr.Matrix, len(rps)*len(cps))
	for id := range chunks {
		res, err := speck.Compute(rps[id/len(cps)].M, cps[id%len(cps)].M, cm)
		if err != nil {
			return nil, err
		}
		chunks[id] = res.C
	}
	return core.AssembleChunks(c.A.Rows, c.B.Cols, len(rps), len(cps),
		func(r, k int) *csr.Matrix { return chunks[r*len(cps)+k] },
		func(r int) int { return rps[r].Start },
		func(k int) int { return cps[k].Start })
}

// check reports how got differs from the sequential reference or from
// the composed oracle; nil when it equals both bit for bit. One slack,
// the NaN contract of DESIGN.md: which payload survives when two NaNs
// meet is the hardware's choice per instruction form, so against
// Sequential — another loop — a NaN slot need only be a NaN; against the
// composition, which runs the same row kernel, even payloads must match.
func check(c propCase, cfg gpusim.DeviceConfig, got *csr.Matrix) error {
	seq, err := cpuspgemm.Sequential(c.A, c.B)
	if err != nil {
		return err
	}
	if err := diffBits(got, seq, false); err != nil {
		return fmt.Errorf("against Sequential: %w", err)
	}
	old, err := composed(c, cfg)
	if err != nil {
		return err
	}
	if err := diffBits(got, old, true); err != nil {
		return fmt.Errorf("against the per-chunk composition: %w", err)
	}
	return nil
}
