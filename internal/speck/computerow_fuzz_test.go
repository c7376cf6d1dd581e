package speck_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/accum"
	"repro/internal/cpuspgemm"
	"repro/internal/csr"
	"repro/internal/speck"
)

// FuzzComputeRow holds the one-phase row kernel to the warm one: every
// row of A·B from Kit.ComputeRow must carry Sequential's column ids and
// NumericRows' values over that structure, bit for bit, except that a
// NaN only has to be a NaN (DESIGN.md §13), and must report a NaN
// exactly when it emits one. A has rows of no entries, of one (the
// scaled-copy path) and of many; B is 63, 64, 65 or 4096 + k columns
// wide, and widthSel/16 takes it past the bitmap tier (2^20 columns) or
// not: padded, its ids kept and an empty tail added, so that rows lie in
// a window of at most 65 words; or spread, its ids scaled by a stride
// that puts it near 2^21 columns, so that rows of two or more columns
// miss every window and take the hash unless they hold a product per
// summary word. widthSel/4 picks B's rows: scattered columns and runs
// that fill whole words and the last partial one; a band, each row a run of
// consecutive columns one step right of the last (with a hole when the
// step is odd and specials is not 0), read by A rows of consecutive B
// rows, so that rows take ComputeRow's window route and its run loop;
// or columns scattered over a window of 62 to 65 words (the window
// route's edge) at a fuzzed offset; or blocks of 1 to 8 B rows sharing
// their ids, read by block rows of 1 to 9 equal A rows, so that rows make
// block groups, some broken by a B row with one id fewer or an A row of
// its own. NaN, ±Inf, −0.0 and 0 are mixed in at a fuzzed rate. The rows
// are computed four ways: staged one after another into a buffer holding
// each row's bound plus accum.FlushSlack, as the cold stagers do; into
// buffers of exactly the row's size; from nil; and staged as the cold
// product's stager runs them, a row that may start a group (MayGroup)
// through Kit.ComputeGroups, whose rows must carry the same ids and, but
// where it reports a NaN (exactly when NumericRows' values hold one),
// NumericRows' values bit for bit.
func FuzzComputeRow(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(9), uint8(20), uint8(30), uint8(0), int64(1))     // 63 columns
	f.Add(uint8(1), uint8(0), uint8(5), uint8(30), uint8(80), uint8(40), int64(2))    // 64, specials
	f.Add(uint8(2), uint8(0), uint8(11), uint8(39), uint8(200), uint8(8), int64(3))   // 65, dense rows
	f.Add(uint8(3), uint8(7), uint8(7), uint8(25), uint8(36), uint8(0), int64(4))     // 4103, scattered rows
	f.Add(uint8(3), uint8(63), uint8(3), uint8(12), uint8(255), uint8(64), int64(5))  // 4159, runs and specials
	f.Add(uint8(7), uint8(1), uint8(11), uint8(39), uint8(16), uint8(0), int64(6))    // 4097, band of 17-column rows
	f.Add(uint8(7), uint8(5), uint8(11), uint8(30), uint8(100), uint8(30), int64(7))  // 4101, band of 101-column runs
	f.Add(uint8(6), uint8(2), uint8(9), uint8(20), uint8(8), uint8(20), int64(8))     // 65, band of 9-column rows with holes
	f.Add(uint8(11), uint8(2), uint8(11), uint8(39), uint8(12), uint8(0), int64(9))   // 4098, 64-word windows
	f.Add(uint8(11), uint8(3), uint8(11), uint8(39), uint8(12), uint8(0), int64(10))  // 4099, 65-word windows
	f.Add(uint8(11), uint8(0), uint8(11), uint8(39), uint8(4), uint8(20), int64(11))  // 4096, 62 words, few products
	f.Add(uint8(12), uint8(3), uint8(20), uint8(39), uint8(30), uint8(0), int64(12))  // 63, blocks of 4
	f.Add(uint8(15), uint8(7), uint8(28), uint8(39), uint8(60), uint8(0), int64(13))  // 4103, blocks of 8
	f.Add(uint8(14), uint8(5), uint8(25), uint8(30), uint8(20), uint8(9), int64(14))  // 65, blocks of 6, specials and broken groups
	f.Add(uint8(15), uint8(0), uint8(16), uint8(10), uint8(9), uint8(0), int64(15))   // 4096, blocks of 1
	f.Add(uint8(35), uint8(7), uint8(7), uint8(25), uint8(36), uint8(40), int64(16))  // spread 4103, hash rows and specials
	f.Add(uint8(23), uint8(1), uint8(11), uint8(39), uint8(16), uint8(30), int64(17)) // padded 4097, window rows of a band, specials
	f.Add(uint8(34), uint8(0), uint8(11), uint8(39), uint8(200), uint8(8), int64(18)) // spread 65, long rows on the bitmap
	f.Fuzz(func(t *testing.T, widthSel, k, rows, inner, density, specials uint8, seed int64) {
		width := []int{63, 64, 65, 4096 + int(k%64)}[widthSel%4]
		m, n := 1+int(inner%40), 1+int(rows%12)
		shape := widthSel / 4 % 4
		if shape == 3 {
			n = 4 + int(rows%29)
		}
		rng := rand.New(rand.NewSource(seed))
		specialValues := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
		value := func() float64 {
			if rng.Intn(256) < int(specials) {
				return specialValues[rng.Intn(len(specialValues))]
			}
			return rng.NormFloat64()
		}
		build := func(r, c int, row func(i int) []int32) *csr.Matrix {
			var es []csr.Entry
			for i := 0; i < r; i++ {
				for _, col := range row(i) {
					es = append(es, csr.Entry{Row: int32(i), Col: col, Val: value()})
				}
			}
			mat, err := csr.FromEntries(r, c, es)
			if err != nil {
				t.Fatal(err)
			}
			return mat
		}
		distinct := func(c, count int) []int32 {
			ids := make([]int32, min(c, count))
			for j, id := range rng.Perm(c)[:len(ids)] {
				ids[j] = int32(id)
			}
			return ids
		}
		step, span, off := 1+int(k%4), min(width, 64*(62+int(k%4))), 0
		if shape == 2 { // the other shapes draw what they drew before
			off = rng.Intn(width - span + 1)
		}
		bs := 1 + int(k%8) // shape 3's B blocks: rows [j·bs, (j+1)·bs) share their ids
		var blockIDs []int32
		b := build(m, width, func(r int) []int32 {
			switch shape {
			case 3: // blocks, now and then a row with one id fewer
				if r%bs == 0 {
					if rng.Intn(2) == 0 {
						blockIDs = distinct(width, 1+rng.Intn(1+int(density)))
						slices.Sort(blockIDs)
					} else {
						lo := rng.Intn(width)
						blockIDs = blockIDs[:0:0]
						for c := lo; c < min(width, lo+1+int(density)); c++ {
							blockIDs = append(blockIDs, int32(c))
						}
					}
				}
				if specials > 0 && len(blockIDs) > 1 && rng.Intn(8) == 0 {
					return blockIDs[1:]
				}
				return blockIDs
			case 1: // a band: a run one step right of the last B row's
				n := min(width, 1+int(density)%130)
				run := make([]int32, 0, n)
				for c := min(r*step, width-n); len(run) < n; c++ {
					run = append(run, int32(c))
				}
				if step%2 == 1 && specials > 0 && n > 2 {
					run = slices.Delete(run, n/2, n/2+1)
				}
				return run
			case 2: // columns scattered over a window of span columns
				ids := distinct(span, rng.Intn(1+int(density)))
				for j := range ids {
					ids[j] += int32(off)
				}
				return ids
			}
			if rng.Intn(4) == 0 { // a run: whole words, or the last partial one
				lo := rng.Intn(width)
				if rng.Intn(2) == 0 {
					lo = width - 1 - rng.Intn(min(width, 80))
				}
				hi := min(width, lo+1+rng.Intn(130))
				run := make([]int32, 0, hi-lo)
				for c := lo; c < hi; c++ {
					run = append(run, int32(c))
				}
				return run
			}
			return distinct(width, rng.Intn(1+int(density)))
		})
		// Shape 3's A: block rows of 1 to 9 equal rows, each reading a
		// range of one B block, now and then a row reading another range.
		var blockRow []int32
		left := 0
		a := build(n, m, func(i int) []int32 {
			if shape == 3 {
				if left == 0 {
					left = 1 + rng.Intn(9)
					j := rng.Intn((m + bs - 1) / bs)
					k0 := j*bs + rng.Intn(min(bs, m-j*bs))
					d := 1 + rng.Intn(min(j*bs+bs, m)-k0)
					blockRow = blockRow[:0:0]
					for kb := k0; kb < k0+d; kb++ {
						blockRow = append(blockRow, int32(kb))
					}
				}
				left--
				if specials > 0 && rng.Intn(8) == 0 {
					return distinct(m, 1+rng.Intn(m))
				}
				return blockRow
			}
			switch {
			case i%4 == 0:
				return nil
			case i%4 == 1:
				return distinct(m, 1)
			case shape == 1: // consecutive B rows, as a band's A row reads
				d := min(m, 2+rng.Intn(m))
				k0 := rng.Intn(m - d + 1)
				ks := make([]int32, d)
				for j := range ks {
					ks[j] = int32(k0 + j)
				}
				return ks
			default:
				return distinct(m, 2+rng.Intn(m))
			}
		})

		switch widthSel / 16 % 3 {
		case 1: // padded past the tier
			b.Cols = 1<<20 + 1 + int(k)
		case 2: // spread past the tier
			stride := (1 << 21) / width
			for j := range b.ColIDs {
				b.ColIDs[j] *= int32(stride)
			}
			b.Cols = width * stride
		}
		width = b.Cols

		want, err := cpuspgemm.Sequential(a, b)
		if err != nil {
			t.Fatal(err)
		}
		c := &csr.Matrix{Rows: want.Rows, Cols: want.Cols, RowOffsets: want.RowOffsets,
			ColIDs: want.ColIDs, Data: make([]float64, len(want.Data))}
		w := speck.WholeWindow(c)
		s := accum.GetScratch(width)
		defer accum.PutScratch(s)
		if err := speck.NumericRows(a, b, &w, s, nil, 0, a.Rows); err != nil {
			t.Fatalf("NumericRows over Sequential's structure: %v", err)
		}

		rowFlops := csr.RowFlops(a, b, 0)
		for _, mode := range []string{"staged with slack", "exact capacity", "nil", "grouped"} {
			var kit speck.Kit
			var buf []int32
			var vbuf []float64
			nnz := make([]int64, a.Rows)
			for i := 0; i < a.Rows; i++ {
				if mode == "grouped" && speck.MayGroup(a, i, a.Rows) {
					// As the cold stager runs a row that may start a group:
					// room for GroupRows rows as long as it, then the groups.
					if bound := int(min(rowFlops[i]/2, int64(width)))*speck.GroupRows + accum.FlushSlack; cap(buf)-len(buf) < bound {
						buf, vbuf = make([]int32, 0, bound+rng.Intn(100)), make([]float64, 0, bound)
					}
					at := len(buf)
					end, cols, vals, nan, err := kit.ComputeGroups(a, b, i, a.Rows, nnz, buf, vbuf)
					if err != nil {
						t.Fatalf("rows %d-: %v", i, err)
					}
					if end > i {
						lo, hi := c.RowOffsets[i], c.RowOffsets[end]
						if !slices.Equal(cols[at:], c.ColIDs[lo:hi]) || len(vals)-at != len(cols)-at {
							t.Fatalf("groups of rows %d-%d: ids %v (%d values), want %v", i, end, cols[at:], len(vals)-at, c.ColIDs[lo:hi])
						}
						for r := i; r < end; r++ {
							if nnz[r] != c.RowNnz(r) {
								t.Fatalf("group row %d: size %d, want %d", r, nnz[r], c.RowNnz(r))
							}
						}
						if want := slices.ContainsFunc(c.Data[lo:hi], math.IsNaN); nan != want {
							t.Fatalf("groups of rows %d-%d: nan = %v, NumericRows' values hold a NaN: %v", i, end, nan, want)
						}
						for j, g := range vals[at:] {
							if wv := c.Data[lo+int64(j)]; !nan && math.Float64bits(g) != math.Float64bits(wv) {
								t.Fatalf("groups of rows %d-%d: value %d: %v (%#x), want %v (%#x)", i, end, j, g, math.Float64bits(g), wv, math.Float64bits(wv))
							}
						}
						buf, vbuf = cols, vals
						i = end - 1
						continue
					}
				}
				lo, hi := c.RowOffsets[i], c.RowOffsets[i+1]
				var cols []int32
				var vals []float64
				switch mode {
				case "staged with slack", "grouped":
					if bound := int(min(rowFlops[i]/2, int64(width))) + accum.FlushSlack; cap(buf)-len(buf) < bound {
						buf, vbuf = make([]int32, 0, bound+rng.Intn(100)), make([]float64, 0, bound)
					}
					cols, vals = buf, vbuf
				case "exact capacity":
					cols, vals = make([]int32, 0, hi-lo), make([]float64, 0, hi-lo)
				}
				at := len(cols)
				cols, vals, nan := kit.ComputeRow(a, b, i, rowFlops[i], cols, vals)
				gotCols, gotVals := cols[at:], vals[at:]
				if !slices.Equal(gotCols, c.ColIDs[lo:hi]) {
					t.Fatalf("%s: row %d ids %v, want %v", mode, i, gotCols, c.ColIDs[lo:hi])
				}
				if len(gotVals) != len(gotCols) || nan != slices.ContainsFunc(gotVals, math.IsNaN) {
					t.Fatalf("%s: row %d: %d values for %d ids, nan = %v", mode, i, len(gotVals), len(gotCols), nan)
				}
				for j, g := range gotVals {
					wv := c.Data[lo+int64(j)]
					if math.Float64bits(g) != math.Float64bits(wv) && !(math.IsNaN(g) && math.IsNaN(wv)) {
						t.Fatalf("%s: row %d column %d: %v (%#x), want %v (%#x)", mode, i, gotCols[j], g, math.Float64bits(g), wv, math.Float64bits(wv))
					}
				}
				if mode == "staged with slack" || mode == "grouped" {
					buf, vbuf = cols, vals
				}
			}
			kit.Release()
		}
	})
}
