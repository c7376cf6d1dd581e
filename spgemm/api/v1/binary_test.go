package apiv1

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/spgemm"
)

func encodeFrame(t testing.TB, d *MatrixData) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMatrixBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostByteViews is what the host chose, before any test clears
// useByteViews.
var hostByteViews = useByteViews

// codecPaths names the codec's two element paths.
var codecPaths = map[bool]string{true: "views", false: "elements"}

// forEachPath runs test once per element path of the codec — the byte
// views where the host has them, then the per-element loop — and leaves
// the host's choice in place. The path's name is test's argument, for
// its failure messages.
func forEachPath(test func(path string)) {
	defer func() { useByteViews = hostByteViews }()
	for _, views := range []bool{true, false} {
		if views && !hostByteViews {
			continue
		}
		useByteViews = views
		test(codecPaths[views])
	}
}

// nonFiniteMatrix is one row whose values are NaN payloads, ±Inf and
// signed zeros, which the frame carries bit for bit.
func nonFiniteMatrix() *spgemm.Matrix {
	bits := []uint64{
		0x7ff8000000000000, // the canonical quiet NaN
		0x7ff8000000000001, // a quiet NaN with a payload
		0xfff0000000000123, // a signalling NaN, sign set
		0x7ff4dead0000beef, // a signalling NaN with a payload
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(0),
		math.Float64bits(math.SmallestNonzeroFloat64),
	}
	m := spgemm.NewMatrix(1, len(bits))
	m.RowOffsets[1] = int64(len(bits))
	for i, b := range bits {
		m.ColIDs = append(m.ColIDs, int32(i))
		m.Data = append(m.Data, math.Float64frombits(b))
	}
	return m
}

// sameBits reports whether a and b are the same matrix data, values
// compared by bit pattern (reflect.DeepEqual would call a NaN unequal
// to itself).
func sameBits(a, b *MatrixData) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Values) != len(b.Values) ||
		!reflect.DeepEqual(a.RowOffsets, b.RowOffsets) || !reflect.DeepEqual(a.ColIDs, b.ColIDs) {
		return false
	}
	for i, v := range a.Values {
		if math.Float64bits(v) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// TestBinaryRoundTrip: encode → decode → Matrix() is the identity over
// the generator families and the degenerate shapes, and the frame is
// exactly BinarySize long, on both element paths.
func TestBinaryRoundTrip(t *testing.T) {
	cases := map[string]*spgemm.Matrix{
		"rmat":           spgemm.RMAT(9, 8, 0.57, 0.19, 0.19, 1),
		"er":             spgemm.ER(300, 300, 0.02, 2),
		"tallskinny":     spgemm.ER(2000, 24, 0.1, 3),
		"band":           spgemm.Band(257, 5, 4),
		"stencil":        spgemm.Stencil2D(17, 13),
		"blocks":         spgemm.BlockDiag(9, 7, 5),
		"0x0":            spgemm.NewMatrix(0, 0),
		"0-row":          spgemm.NewMatrix(0, 40),
		"all-empty-rows": spgemm.NewMatrix(40, 7),
		// More than one staging block per section.
		"multi-block": spgemm.ER(9000, 9000, 0.002, 6),
		"nonfinite":   nonFiniteMatrix(),
	}
	for name, m := range cases {
		t.Run(name, func(t *testing.T) {
			var frames [][]byte
			forEachPath(func(path string) {
				frame := encodeFrame(t, MatrixDataFrom(m))
				frames = append(frames, frame)
				if int64(len(frame)) != BinarySize(MatrixDataFrom(m)) || int64(len(frame)) != binaryHeader+m.Bytes() {
					t.Fatalf("%s: frame is %d bytes, BinarySize %d, header+Bytes %d", path, len(frame), BinarySize(MatrixDataFrom(m)), binaryHeader+m.Bytes())
				}
				d, err := ReadMatrixBinary(bytes.NewReader(frame), m.Bytes())
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				got, err := d.Matrix()
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if got.Rows != m.Rows || got.Cols != m.Cols ||
					!reflect.DeepEqual(got.RowOffsets, m.RowOffsets) ||
					len(got.ColIDs) != len(m.ColIDs) || len(got.Data) != len(m.Data) {
					t.Fatalf("%s: shape or offsets changed: %dx%d nnz %d", path, got.Rows, got.Cols, got.Nnz())
				}
				for i := range m.ColIDs {
					if got.ColIDs[i] != m.ColIDs[i] || math.Float64bits(got.Data[i]) != math.Float64bits(m.Data[i]) {
						t.Fatalf("%s: entry %d changed across the wire", path, i)
					}
				}
				if spgemm.Fingerprint(got) != spgemm.Fingerprint(m) || spgemm.FingerprintValues(got) != spgemm.FingerprintValues(m) {
					t.Fatalf("%s: content fingerprints changed across the wire", path)
				}
				// One byte under the payload is a size rejection.
				if _, err := ReadMatrixBinary(bytes.NewReader(frame), m.Bytes()-1); !errors.Is(err, ErrBinaryTooLarge) {
					t.Fatalf("%s: cap %d: err = %v, want ErrBinaryTooLarge", path, m.Bytes()-1, err)
				}
			})
			for _, f := range frames[1:] {
				if !bytes.Equal(f, frames[0]) {
					t.Fatal("the element paths encode different bytes")
				}
			}
		})
	}
	forEachPath(func(path string) {
		// Nil offsets encode as the all-empty-rows offsets Matrix() assumes.
		d, err := ReadMatrixBinary(bytes.NewReader(encodeFrame(t, &MatrixData{Rows: 3, Cols: 2})), 1<<10)
		if err != nil || !reflect.DeepEqual(d.RowOffsets, []int64{0, 0, 0, 0}) {
			t.Fatalf("%s: nil offsets decoded to %+v, %v", path, d, err)
		}
		// The encoder refuses arrays whose lengths contradict each other.
		if err := WriteMatrixBinary(&bytes.Buffer{}, &MatrixData{Rows: 1, Cols: 1, RowOffsets: []int64{0, 1}, ColIDs: []int32{0}}); err == nil {
			t.Fatalf("%s: encoder accepted col_ids without values", path)
		}
	})
}

// TestBinaryConcurrentCodec: goroutines encoding and decoding at once
// share the pooled staging blocks without crossing their frames.
func TestBinaryConcurrentCodec(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := MatrixDataFrom(spgemm.ER(600, 500, 0.1, int64(g+1)))
			for i := 0; i < 10; i++ {
				var buf bytes.Buffer
				if err := WriteMatrixBinary(&buf, want); err != nil {
					t.Error(err)
					return
				}
				got, err := ReadMatrixBinary(&buf, BinarySize(want))
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d, round %d: decoded another matrix (%v)", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// failPast is a reader that fails once more than limit bytes are asked
// of it.
type failPast struct {
	r     *bytes.Reader
	limit int64
	read  int64
}

var errReadPast = errors.New("read past the first block of col_ids")

func (f *failPast) Read(p []byte) (int, error) {
	if f.read+int64(len(p)) > f.limit {
		return 0, errReadPast
	}
	n, err := f.r.Read(p)
	f.read += int64(n)
	return n, err
}

// TestBinaryRefusesBadColumnEarly: a column out of range in the first
// staging block of col_ids is refused with its index before any later
// block is read, on both element paths.
func TestBinaryRefusesBadColumnEarly(t *testing.T) {
	const cols, perBlock = 1 << 16, binaryBlock / 4
	nnz := 3*perBlock + 7 // col_ids span four blocks
	ids := make([]int32, nnz)
	for i := range ids {
		ids[i] = int32(i)
	}
	ids[1234] = cols
	frame := rawFrame(goodMagic, 1, cols, uint64(nnz), []int64{0, int64(nnz)}, ids, make([]float64, nnz))
	const want = "col_ids[1234] = 65536 outside [0,65536)"
	forEachPath(func(path string) {
		r := &failPast{r: bytes.NewReader(frame), limit: binaryHeader + 16 + binaryBlock}
		_, err := ReadMatrixBinary(r, hostileCap)
		if !errors.Is(err, ErrBinaryMalformed) || !strings.HasSuffix(err.Error(), want) {
			t.Fatalf("%s: err = %v, want ErrBinaryMalformed ending %q", path, err, want)
		}
		if r.read != binaryHeader+16+binaryBlock {
			t.Fatalf("%s: read %d bytes before refusing", path, r.read)
		}
	})
	// The reader does fail past the first block: the same frame with
	// every column in range gets that far and no further.
	ids[1234] = 0
	ok := rawFrame(goodMagic, 1, cols, uint64(nnz), []int64{0, int64(nnz)}, ids, make([]float64, nnz))
	r := &failPast{r: bytes.NewReader(ok), limit: binaryHeader + 16 + binaryBlock}
	if _, err := ReadMatrixBinary(r, hostileCap); !errors.Is(err, errReadPast) {
		t.Fatalf("a good frame through the failing reader: %v", err)
	}
}

// rawFrame assembles a frame without any of the encoder's checks.
func rawFrame(magic string, rows, cols, nnz uint64, offsets []int64, colIDs []int32, values []float64) []byte {
	le := binary.LittleEndian
	b := append([]byte(magic), make([]byte, 24)...)
	le.PutUint64(b[8:], rows)
	le.PutUint64(b[16:], cols)
	le.PutUint64(b[24:], nnz)
	for _, v := range offsets {
		b = le.AppendUint64(b, uint64(v))
	}
	for _, v := range colIDs {
		b = le.AppendUint32(b, uint32(v))
	}
	for _, v := range values {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

const goodMagic = binaryMagic + "\x01"

// hostileCap lets every declared size below 2^60 bytes past the cap
// check, so the table exercises what happens after it.
const hostileCap = 1 << 60

// hostileFrame is an input the decoder must refuse, with the error
// class it must report under hostileCap.
type hostileFrame struct {
	frame []byte
	want  error
}

func hostileFrames() map[string]hostileFrame {
	g := goldenFrame
	cut := func(n int) []byte { return append([]byte(nil), g[:n]...) }
	return map[string]hostileFrame{
		"empty body":               {nil, ErrBinaryMalformed},
		"wrong magic":              {rawFrame("SPGMCSX\x01", 0, 0, 0, []int64{0}, nil, nil), ErrBinaryMalformed},
		"json body":                {[]byte(`{"rows":2,"cols":3,"row_offsets":[0,2,3],"col_ids":[0,2,1],"values":[1,2,3]}`), ErrBinaryMalformed},
		"wrong version":            {rawFrame(binaryMagic+"\x02", 0, 0, 0, []int64{0}, nil, nil), ErrBinaryMalformed},
		"rows 2^63":                {rawFrame(goodMagic, 1<<63, 1, 0, nil, nil, nil), ErrBinaryMalformed},
		"cols 2^31":                {rawFrame(goodMagic, 1, 1<<31, 0, nil, nil, nil), ErrBinaryMalformed},
		"nnz over rows*cols":       {rawFrame(goodMagic, 2, 3, 7, nil, nil, nil), ErrBinaryMalformed},
		"2^40 nnz, no body":        {rawFrame(goodMagic, 1<<21, 1<<21, 1<<40, nil, nil, nil), ErrBinaryMalformed},
		"2^61 nnz over the cap":    {rawFrame(goodMagic, 1<<31-1, 1<<31-1, 1<<61, nil, nil, nil), ErrBinaryTooLarge},
		"offsets[0] != 0":          {rawFrame(goodMagic, 2, 3, 3, []int64{1, 2, 3}, []int32{0, 2, 1}, []float64{1, 2, 3}), ErrBinaryMalformed},
		"negative offset":          {rawFrame(goodMagic, 2, 3, 3, []int64{0, -1, 3}, []int32{0, 2, 1}, []float64{1, 2, 3}), ErrBinaryMalformed},
		"non-monotone offsets":     {rawFrame(goodMagic, 3, 3, 3, []int64{0, 2, 1, 3}, []int32{0, 2, 1}, []float64{1, 2, 3}), ErrBinaryMalformed},
		"offset over nnz":          {rawFrame(goodMagic, 2, 3, 3, []int64{0, 4, 3}, []int32{0, 2, 1}, []float64{1, 2, 3}), ErrBinaryMalformed},
		"last offset != nnz":       {rawFrame(goodMagic, 2, 3, 3, []int64{0, 2, 2}, []int32{0, 2, 1}, []float64{1, 2, 3}), ErrBinaryMalformed},
		"column >= cols":           {rawFrame(goodMagic, 2, 3, 3, []int64{0, 2, 3}, []int32{0, 3, 1}, []float64{1, 2, 3}), ErrBinaryMalformed},
		"negative column":          {rawFrame(goodMagic, 2, 3, 3, []int64{0, 2, 3}, []int32{0, -1, 1}, []float64{1, 2, 3}), ErrBinaryMalformed},
		"cut mid-header":           {cut(20), ErrBinaryMalformed},
		"cut after header":         {cut(32), ErrBinaryMalformed},
		"cut mid-offset":           {cut(32 + 12), ErrBinaryMalformed},
		"cut after offsets":        {cut(32 + 24), ErrBinaryMalformed},
		"cut mid-column":           {cut(32 + 24 + 6), ErrBinaryMalformed},
		"cut after columns":        {cut(32 + 24 + 12), ErrBinaryMalformed},
		"cut mid-value":            {cut(len(g) - 3), ErrBinaryMalformed},
		"trailing garbage":         {append(cut(len(g)), 0), ErrBinaryMalformed},
		"second frame in a single": {append(cut(len(g)), g...), ErrBinaryMalformed},
	}
}

// TestBinaryRejectsHostileInput: every hostile frame yields its typed
// error, and refusing it allocates no more than the staging block and
// the first block-sized array — whatever sizes its header declares.
func TestBinaryRejectsHostileInput(t *testing.T) {
	const allocBound = 4 * binaryBlock
	for name, tc := range hostileFrames() {
		t.Run(name, func(t *testing.T) {
			forEachPath(func(path string) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				d, err := ReadMatrixBinary(bytes.NewReader(tc.frame), hostileCap)
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Fatalf("%s: accepted: %+v", path, d)
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("%s: err = %v, want %v", path, err, tc.want)
				}
				if got := after.TotalAlloc - before.TotalAlloc; got > allocBound {
					t.Fatalf("%s: rejecting allocated %d bytes (bound %d): %v", path, got, allocBound, err)
				}
			})
		})
	}
	forEachPath(func(path string) {
		// The same lie under a realistic cap is refused before any read.
		huge := rawFrame(goodMagic, 1<<21, 1<<21, 1<<40, nil, nil, nil)
		if _, err := ReadMatrixBinary(bytes.NewReader(huge), 512<<20); !errors.Is(err, ErrBinaryTooLarge) {
			t.Fatalf("%s: 2^40 nnz under a 512 MiB cap: %v", path, err)
		}
		// Arrays are made from the bytes that arrive, not from the header:
		// a frame declaring 16 MiB of offsets and sending 1 MiB of them
		// costs at most twice what it sent, not what it declared.
		partial := rawFrame(goodMagic, 1<<21, 1<<21, 1<<40, make([]int64, 1<<17), nil, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadMatrixBinary(bytes.NewReader(partial), hostileCap)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBinaryMalformed) {
			t.Fatalf("%s: partial offsets: %v", path, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20+4*binaryBlock {
			t.Fatalf("%s: 1 MiB of offsets allocated %d bytes", path, got)
		}
	})
}

// TestJSONMatrixRoutesRejectHostileData is the JSON counterpart of the
// table above, on both routes that carry a data object: dimensions and
// array lengths are held against each other and against the caller's
// byte budget before anything is sized from them. The first case is 38
// bytes standing for a 24 GB row_offsets array; refusing any of them
// allocates next to nothing.
func TestJSONMatrixRoutesRejectHostileData(t *testing.T) {
	const budget = 1 << 20
	const small = `{"rows":2,"cols":3,"row_offsets":[0,2,3],"col_ids":[0,2,1],"values":[1,2,3]}`
	cases := map[string]struct {
		data   string
		status int // 0: accepted
	}{
		"3e9 rows, nothing else":        {`{"rows":3000000000,"cols":1}`, http.StatusBadRequest},
		"2e9 rows, nothing else":        {`{"rows":2000000000,"cols":1}`, http.StatusRequestEntityTooLarge},
		"rows = MaxInt64":               {`{"rows":9223372036854775807,"cols":1}`, http.StatusBadRequest},
		"rows past the budget":          {`{"rows":131072,"cols":1}`, http.StatusRequestEntityTooLarge},
		"negative rows":                 {`{"rows":-1,"cols":1}`, http.StatusBadRequest},
		"negative cols":                 {`{"rows":1,"cols":-1,"row_offsets":[0,0]}`, http.StatusBadRequest},
		"cols = 2^31":                   {`{"rows":1,"cols":2147483648,"row_offsets":[0,0]}`, http.StatusBadRequest},
		"offsets longer than rows+1":    {`{"rows":1,"cols":3,"row_offsets":[0,1,1],"col_ids":[0],"values":[1]}`, http.StatusBadRequest},
		"offsets shorter than rows+1":   {`{"rows":3,"cols":3,"row_offsets":[0,1],"col_ids":[0],"values":[1]}`, http.StatusBadRequest},
		"more col_ids than values":      {`{"rows":1,"cols":3,"row_offsets":[0,2],"col_ids":[0,1],"values":[1]}`, http.StatusBadRequest},
		"non-zeros without row_offsets": {`{"rows":1,"cols":3,"col_ids":[0],"values":[1]}`, http.StatusBadRequest},
		"empty rows inside the budget":  {`{"rows":1000,"cols":1}`, 0},
		"a small matrix":                {small, 0},
	}
	post := func(t *testing.T, bulk bool, body string) (status int, code string, alloc uint64) {
		t.Helper()
		r := httptest.NewRequest(http.MethodPost, "/v1/matrices", strings.NewReader(body))
		w := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var ok bool
		if bulk {
			_, ok = ReadMatrixBatchRequest(w, r, budget)
		} else {
			_, ok = ReadMatrixRequest(w, r, budget)
		}
		runtime.ReadMemStats(&after)
		if ok {
			return 0, "", after.TotalAlloc - before.TotalAlloc
		}
		var env ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("refusal is not the envelope: %v: %s", err, w.Body.Bytes())
		}
		return w.Code, env.Code, after.TotalAlloc - before.TotalAlloc
	}
	wantCode := map[int]string{0: "", http.StatusBadRequest: CodeBadRequest, http.StatusRequestEntityTooLarge: CodeOOM}
	for name, tc := range cases {
		for _, bulk := range []bool{false, true} {
			body := `{"data":` + tc.data + `}`
			if bulk {
				// Behind a good entry: every entry is checked.
				body = `{"matrices":[{"data":` + small + `},` + body + `]}`
			}
			status, code, alloc := post(t, bulk, body)
			if status != tc.status || code != wantCode[tc.status] {
				t.Errorf("%s (bulk %v): status %d code %q, want %d %q", name, bulk, status, code, tc.status, wantCode[tc.status])
			}
			if alloc > 256<<10 {
				t.Errorf("%s (bulk %v): reading it allocated %d bytes", name, bulk, alloc)
			}
		}
	}
	// The budget is one for the whole bulk body, as for frames.
	half := `{"data":{"rows":70000,"cols":1}}`
	if status, _, _ := post(t, true, `{"matrices":[`+half+`]}`); status != 0 {
		t.Errorf("one 560 KB entry under a 1 MiB budget: status %d", status)
	}
	if status, _, _ := post(t, true, `{"matrices":[`+half+`,`+half+`]}`); status != http.StatusRequestEntityTooLarge {
		t.Errorf("two 560 KB entries under a 1 MiB budget: status %d, want 413", status)
	}
	// Off the server (a client reading a fetched payload) the shape
	// checks alone stand between a lying payload and make.
	for name, tc := range cases {
		if tc.status != http.StatusBadRequest {
			continue
		}
		var d MatrixData
		if err := json.Unmarshal([]byte(tc.data), &d); err != nil {
			// Where int is 32 bits, a dimension past it is refused here
			// already, by encoding/json.
			var typeErr *json.UnmarshalTypeError
			if strconv.IntSize == 32 && errors.As(err, &typeErr) {
				continue
			}
			t.Fatal(err)
		}
		if m, err := d.Matrix(); err == nil {
			t.Errorf("%s: Matrix() accepted %dx%d", name, m.Rows, m.Cols)
		}
	}
}

// TestBulkBinary: the bulk body is a count and that many frames, under
// one shared payload cap, with the same rejections as a single frame.
func TestBulkBinary(t *testing.T) {
	forEachPath(func(path string) {
		t.Run(path, testBulkBinary)
	})
}

func testBulkBinary(t *testing.T) {
	a, b := MatrixDataFrom(spgemm.ER(50, 50, 0.1, 1)), MatrixDataFrom(spgemm.Band(30, 2, 2))
	var buf bytes.Buffer
	if err := writeBulkBinary(&buf, []*MatrixData{a, b}); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	payload := BinarySize(a) + BinarySize(b) - 2*binaryHeader
	ds, err := readBulkBinary(bytes.NewReader(body), payload)
	if err != nil || len(ds) != 2 || !reflect.DeepEqual(ds[0], a) || !reflect.DeepEqual(ds[1], b) {
		t.Fatalf("bulk round trip: %d frames, %v", len(ds), err)
	}
	if _, err := readBulkBinary(bytes.NewReader(body), payload-1); !errors.Is(err, ErrBinaryTooLarge) {
		t.Fatalf("frames over the shared cap: %v", err)
	}
	if _, err := readBulkBinary(bytes.NewReader(body[:len(body)-1]), payload); !errors.Is(err, ErrBinaryMalformed) {
		t.Fatalf("truncated bulk: %v", err)
	}
	if _, err := readBulkBinary(bytes.NewReader(append(body[:len(body):len(body)], 7)), payload); !errors.Is(err, ErrBinaryMalformed) {
		t.Fatalf("trailing byte: %v", err)
	}
	// A count of 2^32-1 over two frames is a truncation, not an
	// allocation.
	lying := append([]byte{0xff, 0xff, 0xff, 0xff}, body[4:]...)
	if _, err := readBulkBinary(bytes.NewReader(lying), payload); !errors.Is(err, ErrBinaryMalformed) {
		t.Fatalf("lying count: %v", err)
	}
}

// FuzzReadMatrixBinary: the decoder never panics, never allocates past
// what its input and cap justify, and anything it accepts either fails
// Matrix() (columns out of order — the one check left to Validate) or
// re-encodes to exactly the bytes it was given — on both element paths,
// which agree on every input: the same matrix or the same error.
func FuzzReadMatrixBinary(f *testing.F) {
	f.Add(goldenFrame)
	for _, tc := range hostileFrames() {
		f.Add(tc.frame)
	}
	f.Add(encodeFrame(f, MatrixDataFrom(spgemm.ER(12, 9, 0.3, 1))))
	f.Add(encodeFrame(f, MatrixDataFrom(spgemm.NewMatrix(0, 0))))
	f.Add(encodeFrame(f, MatrixDataFrom(nonFiniteMatrix())))
	const fuzzCap = 1 << 20
	f.Fuzz(func(t *testing.T, in []byte) {
		var first *MatrixData
		var firstErr error
		forEachPath(func(path string) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d, err := ReadMatrixBinary(bytes.NewReader(in), fuzzCap)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > 4*fuzzCap {
				t.Fatalf("%s: decoding %d bytes under a %d cap allocated %d", path, len(in), fuzzCap, got)
			}
			if path == codecPaths[hostByteViews] {
				first, firstErr = d, err
			} else if fmt.Sprint(err) != fmt.Sprint(firstErr) || !sameBits(d, first) {
				t.Fatalf("the element paths disagree: %s decoded %+v, %v; %s decoded %+v, %v",
					path, d, err, codecPaths[hostByteViews], first, firstErr)
			}
			if err != nil {
				if !errors.Is(err, ErrBinaryMalformed) && !errors.Is(err, ErrBinaryTooLarge) {
					t.Fatalf("%s: untyped error: %v", path, err)
				}
				return
			}
			if _, err := d.Matrix(); err != nil {
				return
			}
			if out := encodeFrame(t, d); !bytes.Equal(out, in) {
				t.Fatalf("%s: accepted frame re-encodes differently:\n in  %x\n out %x", path, in, out)
			}
		})
	})
}

var codecSink any

// BenchmarkMatrixDataCodec times both wire encodings of the payload the
// serve_payload_cold workload fetches (the product of a 4096² ER matrix
// with itself): MB/s of encoded bytes, so the two rows of one direction
// are not the same data volume — divide by B/op for matrices per second.
func BenchmarkMatrixDataCodec(b *testing.B) {
	a := spgemm.ER(4096, 4096, 6.0/4096, 1)
	c, err := spgemm.Multiply(a, a)
	if err != nil {
		b.Fatal(err)
	}
	d := MatrixDataFrom(c)
	jsonBody, err := json.Marshal(d)
	if err != nil {
		b.Fatal(err)
	}
	frame := encodeFrame(b, d)
	b.Run("json/encode", func(b *testing.B) {
		b.SetBytes(int64(len(jsonBody)))
		for i := 0; i < b.N; i++ {
			codecSink, _ = json.Marshal(d)
		}
	})
	b.Run("json/decode", func(b *testing.B) {
		b.SetBytes(int64(len(jsonBody)))
		for i := 0; i < b.N; i++ {
			var out MatrixData
			if err := json.Unmarshal(jsonBody, &out); err != nil {
				b.Fatal(err)
			}
			codecSink = &out
		}
	})
	// binary/ is the host's path (byte views on a little-endian host),
	// binary-elements/ the per-element path of a big-endian host.
	defer func() { useByteViews = hostByteViews }()
	for _, views := range []bool{hostByteViews, false} {
		name := "binary"
		if !views {
			name = "binary-elements"
		}
		b.Run(name+"/encode", func(b *testing.B) {
			useByteViews = views
			b.SetBytes(int64(len(frame)))
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := WriteMatrixBinary(&buf, d); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/decode", func(b *testing.B) {
			useByteViews = views
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				out, err := ReadMatrixBinary(bytes.NewReader(frame), int64(len(frame)))
				if err != nil {
					b.Fatal(err)
				}
				codecSink = out
			}
		})
	}
}
