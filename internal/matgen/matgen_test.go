package matgen

import (
	"testing"

	"repro/internal/csr"
)

func TestRMATDeterministicAndValid(t *testing.T) {
	a := RMAT(8, 8, 0.57, 0.19, 0.19, 42)
	b := RMAT(8, 8, 0.57, 0.19, 0.19, 42)
	if err := a.Validate(); err != nil {
		t.Fatalf("RMAT invalid: %v", err)
	}
	if !csr.Equal(a, b, 0) {
		t.Fatal("RMAT not deterministic for same seed")
	}
	c := RMAT(8, 8, 0.57, 0.19, 0.19, 43)
	if csr.Equal(a, c, 0) {
		t.Fatal("RMAT identical for different seeds")
	}
	if a.Rows != 256 || a.Cols != 256 {
		t.Fatalf("RMAT dims %dx%d, want 256x256", a.Rows, a.Cols)
	}
	if a.Nnz() == 0 || a.Nnz() > 8*256 {
		t.Fatalf("RMAT nnz = %d out of range", a.Nnz())
	}
	for _, v := range a.Data {
		if v != 1 {
			t.Fatalf("RMAT value %v, want 1", v)
		}
	}
}

func TestRMATSkew(t *testing.T) {
	// With a >> d the degree distribution must be skewed: the maximum
	// out-degree should far exceed the average.
	m := RMAT(10, 16, 0.6, 0.17, 0.17, 7)
	avg := float64(m.Nnz()) / float64(m.Rows)
	if mx := float64(m.MaxRowNnz()); mx < 4*avg {
		t.Fatalf("RMAT max degree %.0f not skewed vs avg %.1f", mx, avg)
	}
}

func TestERDensity(t *testing.T) {
	p := 0.05
	m := ER(200, 300, p, 11)
	if err := m.Validate(); err != nil {
		t.Fatalf("ER invalid: %v", err)
	}
	want := p * 200 * 300
	got := float64(m.Nnz())
	if got < want*0.7 || got > want*1.3 {
		t.Fatalf("ER nnz = %.0f, want about %.0f", got, want)
	}
}

func TestEREmptyAndFull(t *testing.T) {
	if m := ER(10, 10, 0, 1); m.Nnz() != 0 {
		t.Fatal("ER(p=0) not empty")
	}
	if m := ER(10, 10, 1, 1); m.Nnz() != 100 {
		t.Fatalf("ER(p=1) nnz = %d, want 100", m.Nnz())
	}
}

func TestBandStructure(t *testing.T) {
	n, half := 50, 3
	m := Band(n, half, 5)
	if err := m.Validate(); err != nil {
		t.Fatalf("Band invalid: %v", err)
	}
	for i := 0; i < n; i++ {
		cols, _ := m.Row(i)
		for _, c := range cols {
			if int(c) < i-half || int(c) > i+half {
				t.Fatalf("row %d has column %d outside band", i, c)
			}
		}
		wantLen := min(n-1, i+half) - max(0, i-half) + 1
		if len(cols) != wantLen {
			t.Fatalf("row %d nnz = %d, want %d", i, len(cols), wantLen)
		}
	}
}

func TestStencil2D(t *testing.T) {
	m := Stencil2D(7, 5)
	if err := m.Validate(); err != nil {
		t.Fatalf("Stencil2D invalid: %v", err)
	}
	if m.Rows != 35 {
		t.Fatalf("rows = %d, want 35", m.Rows)
	}
	// Interior point has 5 entries; a corner has 3.
	if n := m.RowNnz(0); n != 3 {
		t.Fatalf("corner nnz = %d, want 3", n)
	}
	interior := 2*7 + 3 // (x=3, y=2)
	if n := m.RowNnz(interior); n != 5 {
		t.Fatalf("interior nnz = %d, want 5", n)
	}
	// Laplacian rows sum to >= 0 with our sign convention (4 diag, -1 off).
	cols, vals := m.Row(interior)
	var sum float64
	for i := range cols {
		sum += vals[i]
	}
	if sum != 0 {
		t.Fatalf("interior row sum = %v, want 0", sum)
	}
}

func TestBlockDiag(t *testing.T) {
	m := BlockDiag(4, 3, 9)
	if err := m.Validate(); err != nil {
		t.Fatalf("BlockDiag invalid: %v", err)
	}
	if m.Rows != 12 || m.Nnz() != 4*9 {
		t.Fatalf("dims %d nnz %d", m.Rows, m.Nnz())
	}
	// Entry (0, 5) crosses the first block boundary and must be absent.
	cols, _ := m.Row(0)
	for _, c := range cols {
		if c >= 3 {
			t.Fatalf("row 0 has out-of-block column %d", c)
		}
	}
}

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 9 {
		t.Fatalf("suite has %d matrices, want 9", len(suite))
	}
	seen := map[string]bool{}
	for _, e := range suite {
		if seen[e.Abbr] {
			t.Fatalf("duplicate abbreviation %q", e.Abbr)
		}
		seen[e.Abbr] = true
		if e.PaperCR < 1 {
			t.Fatalf("%s: paper CR %v < 1", e.Abbr, e.PaperCR)
		}
	}
	if _, err := SuiteByAbbr("nlp"); err != nil {
		t.Fatalf("SuiteByAbbr(nlp): %v", err)
	}
	if _, err := SuiteByAbbr("missing"); err == nil {
		t.Fatal("SuiteByAbbr(missing) should fail")
	}
}

func TestSuiteMatricesValidSquare(t *testing.T) {
	for _, e := range Suite() {
		m := e.Gen()
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: invalid: %v", e.Abbr, err)
		}
		if m.Rows != m.Cols {
			t.Fatalf("%s: not square (%dx%d)", e.Abbr, m.Rows, m.Cols)
		}
		if m.Nnz() == 0 {
			t.Fatalf("%s: empty", e.Abbr)
		}
	}
}

// TestGeneratorsPinned pins every generator bit for bit: non-zero
// count, structure fingerprint and values fingerprint. The benchmark
// workloads, RESULTS.txt and the golden products are all functions of
// these matrices, so a generator change that moves one moves them all.
// It also requires arrays with no spare capacity.
func TestGeneratorsPinned(t *testing.T) {
	suite := func(abbr string) func() *csr.Matrix {
		e, err := SuiteByAbbr(abbr)
		if err != nil {
			t.Fatal(err)
		}
		return e.Gen
	}
	cases := []struct {
		name            string
		gen             func() *csr.Matrix
		nnz             int64
		structFP, valFP uint64
	}{
		{"rmat-8-8", func() *csr.Matrix { return RMAT(8, 8, 0.57, 0.19, 0.19, 42) }, 1511, 0x60dbbd9adea6c223, 0x5c6768e83855bf27},
		{"rmat-12-8", func() *csr.Matrix { return RMAT(12, 8, 0.57, 0.19, 0.19, 3) }, 28675, 0x53a2e2be77937445, 0xf0bb15f00a176fb7},
		{"rmat-10-24", func() *csr.Matrix { return RMAT(10, 24, 0.57, 0.19, 0.19, 7) }, 16885, 0x1726aec472c011d1, 0xaf9cd528d195958f},
		{"er-200x300", func() *csr.Matrix { return ER(200, 300, 0.05, 11) }, 3041, 0xdd248b580b1d7e87, 0xc84411d4ef503814},
		{"er-p0", func() *csr.Matrix { return ER(10, 12, 0, 1) }, 0, 0x1757d2ab4f082227, 0xcbf29ce484222325},
		{"er-pneg", func() *csr.Matrix { return ER(7, 3, -0.5, 1) }, 0, 0x3f6217da82fa5af1, 0xcbf29ce484222325},
		{"er-p1", func() *csr.Matrix { return ER(10, 10, 1, 1) }, 100, 0xe89c341e6c35a5e4, 0x39dddcbfd93947a3},
		{"er-tall", func() *csr.Matrix { return ER(2048, 512, 6.0/512, 3) }, 12411, 0xd4db7d5b2a6554f2, 0xec4eb2bb9301bdf3},
		{"er-wide", func() *csr.Matrix { return ER(512, 16384, 6.0/16384, 4) }, 3060, 0x7ea25d60c43dafdf, 0x9da6b0d4e7d2b46c},
		{"er-col", func() *csr.Matrix { return ER(64, 1, 0.3, 5) }, 16, 0x1694305feb3a9995, 0x0092c7203f047d1b},
		{"band-50-3", func() *csr.Matrix { return Band(50, 3, 5) }, 338, 0x20b7aa81afa62dd3, 0x627bbf40b99a8a43},
		{"band-half-over-n", func() *csr.Matrix { return Band(5, 10, 1) }, 25, 0xb997826db0965f4d, 0x926cee3f106bd25f},
		{"band-1-0", func() *csr.Matrix { return Band(1, 0, 2) }, 1, 0xf39f8bb1a3085935, 0xe2a24d525cdc64bf},
		{"band-wide", func() *csr.Matrix { return Band(17<<12, 8, 9) }, 1183672, 0x1226f514eadac785, 0xa0b59712f234033a},
		{"stencil-1x1", func() *csr.Matrix { return Stencil2D(1, 1) }, 1, 0xf39f8bb1a3085935, 0xb8ab187a3ae9b7df},
		{"stencil-1x7", func() *csr.Matrix { return Stencil2D(1, 7) }, 19, 0x6a84c8a654e2c654, 0x3811211d4acf4577},
		{"stencil-7x1", func() *csr.Matrix { return Stencil2D(7, 1) }, 19, 0x6a84c8a654e2c654, 0x3811211d4acf4577},
		{"stencil-16x12", func() *csr.Matrix { return Stencil2D(16, 12) }, 904, 0xd5694e8d77bf340b, 0xf6142142d1a67fc5},
		{"stencil-128x128", func() *csr.Matrix { return Stencil2D(128, 128) }, 81408, 0x863cfa6e40e1ef8a, 0xa9677a3fc6b7fb25},
		{"blockdiag-3-4", func() *csr.Matrix { return BlockDiag(3, 4, 1) }, 48, 0xd29bf7c96b62a3c3, 0x2297c26d7bdf8242},
		{"blockdiag-256-32", func() *csr.Matrix { return BlockDiag(256, 32, 2) }, 262144, 0xb5126d4176df09fc, 0x9e8cfa17546ae847},
		{"suite-lj2008", suite("lj2008"), 28705, 0x52d5c4ca9a0ffd87, 0xcc23d24904fda75f},
		{"suite-com-lj", suite("com-lj"), 32928, 0x15baa154df5e091c, 0xe05ef889e7b4bfa5},
		{"suite-soc-lj", suite("soc-lj"), 26198, 0xce62aa25f301c5d5, 0xd0de59363907ed7d},
		{"suite-stokes", suite("stokes"), 125920, 0xbbfd45d4cce92969, 0xab9ba03b2bdc11d5},
		{"suite-uk-2002", suite("uk-2002"), 203928, 0xe61e83395fa6d954, 0xa8cfb953eabc9884},
		{"suite-wiki0206", suite("wiki0206"), 22601, 0xebc90e505a03c1bc, 0x342c90668f63c8bf},
		{"suite-nlp", suite("nlp"), 272890, 0x41459600d74f25ef, 0xd5ae0f70af778b21},
		{"suite-wiki1104", suite("wiki1104"), 21283, 0x9c12f085a7886ba2, 0xbab2e6f7c29f1f37},
		{"suite-wiki0925", suite("wiki0925"), 19843, 0x8d5d2c41f93cee60, 0x9d196a06467b49b7},
	}
	for _, c := range cases {
		m := c.gen()
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if m.Nnz() != c.nnz || csr.Fingerprint(m) != c.structFP || csr.FingerprintValues(m) != c.valFP {
			t.Errorf("%s: nnz %d structure %#016x values %#016x, want %d %#016x %#016x",
				c.name, m.Nnz(), csr.Fingerprint(m), csr.FingerprintValues(m), c.nnz, c.structFP, c.valFP)
		}
		if cap(m.ColIDs) != len(m.ColIDs) || cap(m.Data) != len(m.Data) {
			t.Errorf("%s: capacity %d/%d for %d entries", c.name, cap(m.ColIDs), cap(m.Data), m.Nnz())
		}
	}
}
