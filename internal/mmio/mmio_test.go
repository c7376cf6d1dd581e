package mmio

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/csr"
)

func TestReadGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 4
1 1 1.5
1 3 -2
2 2 3
3 4 4.25
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if m.Rows != 3 || m.Cols != 4 || m.Nnz() != 4 {
		t.Fatalf("got %dx%d nnz=%d", m.Rows, m.Cols, m.Nnz())
	}
	cols, vals := m.Row(0)
	if cols[0] != 0 || vals[0] != 1.5 || cols[1] != 2 || vals[1] != -2 {
		t.Fatalf("row 0 = %v %v", cols, vals)
	}
}

func TestReadSymmetricExpansion(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 5
2 1 1
3 2 2
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	// Off-diagonals mirrored: nnz = 1 + 2 + 2 = 5.
	if m.Nnz() != 5 {
		t.Fatalf("nnz = %d, want 5", m.Nnz())
	}
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[1] != 1 || vals[1] != 1 {
		t.Fatalf("row 0 = %v %v; want mirrored (0,1)=1", cols, vals)
	}
}

func TestReadSkewSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	cols, vals := m.Row(0)
	if len(cols) != 1 || cols[0] != 1 || vals[0] != -3 {
		t.Fatalf("row 0 = %v %v; want (0,1)=-3", cols, vals)
	}
}

func TestReadPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	_, vals := m.Row(0)
	if vals[0] != 1 {
		t.Fatalf("pattern value = %v, want 1", vals[0])
	}
}

func TestReadInteger(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate integer general
1 2 1
1 2 7
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	_, vals := m.Row(0)
	if vals[0] != 7 {
		t.Fatalf("integer value = %v, want 7", vals[0])
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad banner":     "%%NotMatrixMarket matrix coordinate real general\n1 1 0\n",
		"array format":   "%%MatrixMarket matrix array real general\n1 1\n",
		"complex field":  "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"bad size":       "%%MatrixMarket matrix coordinate real general\n1 x 1\n1 1 1\n",
		"nnz mismatch":   "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n",
		"out of range":   "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
		"malformed line": "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
		"bad value":      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zzz\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func randomMatrix(rng *rand.Rand, rows, cols int, density float64) *csr.Matrix {
	var es []csr.Entry
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				es = append(es, csr.Entry{Row: int32(r), Col: int32(c), Val: rng.NormFloat64()})
			}
		}
	}
	m, err := csr.FromEntries(rows, cols, es)
	if err != nil {
		panic(err)
	}
	return m
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		m := randomMatrix(rng, 1+rng.Intn(40), 1+rng.Intn(40), 0.15)
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("Write: %v", err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read back: %v", err)
		}
		if !csr.Equal(m, got, 0) {
			t.Fatalf("round trip mismatch: %s", csr.Diff(m, got, 0))
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomMatrix(rng, 25, 25, 0.2)
	dir := t.TempDir()

	for _, name := range []string{"m.mtx", "m.mtx.gz"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, m); err != nil {
			t.Fatalf("WriteFile(%s): %v", name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", name, err)
		}
		if !csr.Equal(m, got, 0) {
			t.Fatalf("%s: file round trip mismatch", name)
		}
	}
}

// TestReadDuplicatesSameUnderAnyProcs reads a file of 60 000 entries
// over 200 positions, with values whose sums depend on their order,
// and requires bit-identical matrices under one and two procs.
func TestReadDuplicatesSameUnderAnyProcs(t *testing.T) {
	vals := []string{"1e16", "1", "-1e16", "3", "0.1", "-0.3"}
	rng := rand.New(rand.NewSource(12))
	const rows, cols, n = 20, 10, 60000
	var sb strings.Builder
	fmt.Fprintf(&sb, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", rows, cols, n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d %d %s\n", 1+rng.Intn(rows), 1+rng.Intn(cols), vals[rng.Intn(len(vals))])
	}
	var got [2]*csr.Matrix
	for i, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		m, err := Read(strings.NewReader(sb.String()))
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = m
	}
	if got[0].Nnz() != rows*cols || csr.Fingerprint(got[0]) != csr.Fingerprint(got[1]) {
		t.Fatalf("structure differs: nnz %d and %d", got[0].Nnz(), got[1].Nnz())
	}
	for i, v := range got[0].Data {
		if math.Float64bits(v) != math.Float64bits(got[1].Data[i]) {
			t.Fatalf("value %d reads %v under one proc, %v under two", i, v, got[1].Data[i])
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.mtx")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
