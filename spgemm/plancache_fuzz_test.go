package spgemm

import (
	"math"
	"slices"
	"testing"
)

// fuzzValue maps a selector to a value, a quarter of them what the
// kernels' edge paths live on: NaN, ±Inf and -0.0.
func fuzzValue(sel byte) float64 {
	switch sel % 16 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	}
	return float64(int(sel)-8) / 4
}

// fuzzOperands decodes one operand pair. shape holds A's row count
// (1-16), B's column count (1-8), B's entries per row (1-4) and the
// inner dimension (1-32, or wideCols when wide, where B has one entry
// per row). Every 4 bytes of spec are an entry of A: a row and a value
// selector, then a 24-bit column id (taken modulo the inner dimension).
// B's row r holds its entries at columns r, r+1, ... modulo its width,
// valued from vals in turn.
func fuzzOperands(wide bool, shape uint16, spec, vals []byte) (a, b *Matrix, err error) {
	rows, cols, perRow, inner := 1+int(shape&15), 1+int(shape>>4&7), 1+int(shape>>7&3), 1+int(shape>>9&31)
	if wide {
		perRow, inner = 1, wideCols
	}
	perRow = min(perRow, cols)
	var es []Entry
	for ; len(spec) >= 4 && len(es) < 64; spec = spec[4:] {
		col := (int(spec[1]) | int(spec[2])<<8 | int(spec[3])<<16) % inner
		es = append(es, Entry{Row: int32(int(spec[0]&15) % rows), Col: int32(col), Val: fuzzValue(spec[0] >> 4)})
	}
	if a, err = FromEntries(rows, inner, es); err != nil {
		return nil, nil, err
	}
	b = &Matrix{Rows: inner, Cols: cols, RowOffsets: make([]int64, inner+1),
		ColIDs: make([]int32, 0, inner*perRow), Data: make([]float64, 0, inner*perRow)}
	row := make([]int32, perRow)
	for r := range inner {
		for j := range row {
			row[j] = int32((r + j) % cols)
		}
		slices.Sort(row)
		for _, c := range row {
			v := 1.0
			if len(vals) > 0 {
				v = fuzzValue(vals[len(b.Data)%len(vals)])
			}
			b.ColIDs, b.Data = append(b.ColIDs, c), append(b.Data, v)
		}
		b.RowOffsets[r+1] = int64(len(b.ColIDs))
	}
	return a, b, nil
}

// revalued is m's structure, in m's own arrays, with other values.
func revalued(m *Matrix) *Matrix {
	out := *m
	out.Data = make([]float64, len(m.Data))
	for i, v := range m.Data {
		out.Data[i] = 1.5 - v/2
	}
	return &out
}

// FuzzPlanCacheShared multiplies every case's operands, then the same
// pattern with other values, on the cpu and hybrid engines (a wide case
// on the cpu engine alone) through one plan cache shared by all cases,
// with or without the operands' records, and holds each product to the
// uncached product (Multiply; every engine's is the same bit for bit):
// bit for bit (any NaN equal to any NaN), and no error. The seeds share patterns
// across cases, and two of them are patterns of one shape and nnz under
// one structural fingerprint, the second of which must not replay the
// first one's plans.
func FuzzPlanCacheShared(f *testing.F) {
	ids, collider := collidingIDs(f)
	wideSpec := func(ids []int32) []byte {
		var spec []byte
		for r, c := range ids {
			spec = append(spec, byte(r)|byte(9+r)<<4, byte(c), byte(c>>8), byte(c>>16))
		}
		return spec
	}
	small := []byte{0x02, 5, 0, 0, 0x13, 7, 0, 0, 0x05, 5, 0, 0, 0x47, 1, 0, 0, 0x21, 3, 0, 0, 0xa2, 9, 0, 0, 0x36, 2, 0, 0}
	const smallShape, wideShape = 7 | 4<<4 | 2<<7 | 11<<9, 3 | 2<<4
	f.Add(false, uint16(smallShape), small, []byte{0, 1, 2, 3, 9, 12, 5}, false)
	f.Add(false, uint16(smallShape), small, []byte{7, 8, 3, 11}, true)
	f.Add(true, uint16(wideShape), wideSpec(ids), []byte(nil), false)
	f.Add(true, uint16(wideShape), wideSpec(collider), []byte(nil), false)
	f.Add(true, uint16(wideShape), wideSpec(ids), []byte(nil), true)
	f.Add(true, uint16(wideShape), wideSpec(collider), []byte(nil), true)

	pc := NewPlanCache(64 << 20)
	cfg := V100WithMemory(64 << 20)
	f.Fuzz(func(t *testing.T, wide bool, shape uint16, spec, vals []byte, records bool) {
		a, b, err := fuzzOperands(wide, shape, spec, vals)
		if err != nil {
			t.Fatal(err)
		}
		engines := []string{"cpu", "hybrid"}
		if wide {
			engines = engines[:1] // a device run's copy of the tall B would dominate the case
		}
		for round, ops := range [][2]*Matrix{{a, b}, {revalued(a), revalued(b)}} {
			x, y := ops[0], ops[1]
			want, err := Multiply(x, y)
			if err != nil {
				t.Fatalf("round %d, uncached: %v", round, err)
			}
			for _, name := range engines {
				eng, _ := ByName(name)
				o := &RunOptions{Device: &cfg, PlanCache: pc}
				if records {
					o.AID, o.BID = mustIdentify(t, x), mustIdentify(t, y)
				}
				got, _, err := eng.Run(x, y, o)
				if err != nil {
					t.Fatalf("%s, round %d, shared cache: %v", name, round, err)
				}
				if err := sameProduct(got, want); err != nil {
					t.Fatalf("%s, round %d: %v", name, round, err)
				}
			}
		}
	})
}
