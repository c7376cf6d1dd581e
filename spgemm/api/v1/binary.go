package apiv1

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// MediaTypeCSR names the binary representation of MatrixData: a fixed
// little-endian header followed by the three CSR arrays verbatim.
//
//	offset  size         field
//	0       7            magic "SPGMCSR"
//	7       1            version (1)
//	8       8            rows  (u64)
//	16      8            cols  (u64)
//	24      8            nnz   (u64)
//	32      8*(rows+1)   row_offsets (i64 each)
//	..      4*nnz        col_ids     (i32 each)
//	..      8*nnz        values      (f64 bit patterns)
//
// The layout is wire contract (golden bytes in wire_test.go). Unlike
// the JSON form it carries every float64 bit pattern, NaN payloads and
// ±Inf included.
const MediaTypeCSR = "application/x-spgemm-csr"

const (
	binaryMagic   = "SPGMCSR"
	binaryVersion = 1
	binaryHeader  = 32
	// binaryBlock is the staging buffer both directions convert through:
	// a multiple of every element size.
	binaryBlock = 64 << 10
)

// Errors of the binary decoder. Every rejection wraps one of the two,
// so callers dispatch with errors.Is: malformed input is the sender's
// fault (HTTP 400), an over-cap frame is a size rejection (HTTP 413).
var (
	// ErrBinaryMalformed is a frame that is not a well-formed matrix:
	// wrong magic or version, dimensions out of range, inconsistent row
	// offsets, a column outside the matrix, truncation, trailing bytes.
	ErrBinaryMalformed = errors.New("apiv1: malformed binary matrix")
	// ErrBinaryTooLarge is a matrix that declares more payload bytes
	// than the caller's cap: a frame by its header, a JSON data object by
	// its dimensions and array lengths. It is raised before any
	// allocation sized from the declaration.
	ErrBinaryTooLarge = errors.New("apiv1: matrix payload exceeds the byte cap")
)

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBinaryMalformed, fmt.Sprintf(format, args...))
}

// BinarySize is the exact length of d's binary frame.
func BinarySize(d *MatrixData) int64 {
	return binaryHeader + 8*int64(d.Rows+1) + 12*int64(len(d.ColIDs))
}

// WriteMatrixBinary writes d as one binary frame. Only the array
// lengths are checked (they fix the layout); content validation is the
// reader's job. Nil RowOffsets encode as the all-empty-rows offsets,
// as MatrixData.Matrix reads them.
func WriteMatrixBinary(w io.Writer, d *MatrixData) error {
	nnz := len(d.ColIDs)
	if d.Rows < 0 || d.Cols < 0 || len(d.Values) != nnz ||
		(d.RowOffsets != nil && len(d.RowOffsets) != d.Rows+1) {
		return fmt.Errorf("apiv1: matrix data %dx%d has inconsistent array lengths (offsets %d, col_ids %d, values %d)",
			d.Rows, d.Cols, len(d.RowOffsets), nnz, len(d.Values))
	}
	le := binary.LittleEndian
	block := make([]byte, min(binaryBlock, BinarySize(d)))
	copy(block, binaryMagic)
	block[7] = binaryVersion
	le.PutUint64(block[8:], uint64(d.Rows))
	le.PutUint64(block[16:], uint64(d.Cols))
	le.PutUint64(block[24:], uint64(nnz))
	n := binaryHeader
	// flush writes out the staged bytes once the next element of the
	// given size no longer fits.
	flush := func(size int) error {
		if n+size <= len(block) {
			return nil
		}
		_, err := w.Write(block[:n])
		n = 0
		return err
	}
	offsets := d.RowOffsets
	if offsets == nil {
		offsets = make([]int64, d.Rows+1)
	}
	for _, v := range offsets {
		if err := flush(8); err != nil {
			return err
		}
		le.PutUint64(block[n:], uint64(v))
		n += 8
	}
	for _, v := range d.ColIDs {
		if err := flush(4); err != nil {
			return err
		}
		le.PutUint32(block[n:], uint32(v))
		n += 4
	}
	for _, v := range d.Values {
		if err := flush(8); err != nil {
			return err
		}
		le.PutUint64(block[n:], math.Float64bits(v))
		n += 8
	}
	_, err := w.Write(block[:n])
	return err
}

// ReadMatrixBinary decodes a body holding exactly one frame. maxBytes
// caps the declared CSR payload, 8(rows+1)+12·nnz — the same quantity
// Matrix.Bytes reports and the matrix store budgets.
//
// The decoder is the first validator. Before allocating it checks
// magic, version, dimension ranges, nnz ≤ rows·cols and the declared
// payload against maxBytes; while reading it grows each array only as
// its bytes actually arrive (a header declaring 2⁴⁰ non-zeros over an
// empty body costs one block, not terabytes) and checks offsets[0]=0,
// monotone offsets ≤ nnz ending at nnz, and every column < cols.
// Truncation and trailing bytes are ErrBinaryMalformed. Strictly
// increasing columns within a row are left to MatrixData.Matrix.
func ReadMatrixBinary(r io.Reader, maxBytes int64) (*MatrixData, error) {
	d, err := readFrame(r, &maxBytes)
	if err != nil {
		return nil, err
	}
	if err := expectEOF(r); err != nil {
		return nil, err
	}
	return d, nil
}

// expectEOF rejects bytes after the last frame of a body.
func expectEOF(r io.Reader) error {
	var one [1]byte
	switch _, err := io.ReadFull(r, one[:]); err {
	case io.EOF:
		return nil
	case nil:
		return malformed("trailing bytes after the last frame")
	default:
		return err
	}
}

// readFrame decodes one frame, reading no byte past its end, and
// deducts its payload from *budget.
func readFrame(r io.Reader, budget *int64) (*MatrixData, error) {
	var hdr [binaryHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, truncated(err, "header")
	}
	if string(hdr[:7]) != binaryMagic {
		return nil, malformed("bad magic %q", hdr[:7])
	}
	if hdr[7] != binaryVersion {
		return nil, malformed("unsupported version %d (want %d)", hdr[7], binaryVersion)
	}
	le := binary.LittleEndian
	rows, cols, nnz := le.Uint64(hdr[8:]), le.Uint64(hdr[16:]), le.Uint64(hdr[24:])
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, malformed("dimensions %dx%d out of range (max %d)", rows, cols, math.MaxInt32)
	}
	if nnz > rows*cols {
		return nil, malformed("nnz %d exceeds rows*cols of a %dx%d matrix", nnz, rows, cols)
	}
	// nnz is compared by division first: 12*nnz may overflow, and once
	// it is known not to, neither can the sum (rows < 2^31).
	left := uint64(max(*budget, 0))
	payload := 8*(rows+1) + 12*nnz
	if nnz > left/12 || payload > left {
		return nil, fmt.Errorf("%w: %dx%d with %d non-zeros, %d payload bytes left",
			ErrBinaryTooLarge, rows, cols, nnz, left)
	}
	*budget -= int64(payload)

	d := &MatrixData{Rows: int(rows), Cols: int(cols)}
	block := make([]byte, min(binaryBlock, payload))
	var err error

	prev := int64(0)
	d.RowOffsets, err = readSection(r, block, int(rows)+1, 8, "row_offsets", func(dst []int64, b []byte, at int) error {
		for i := range dst {
			v := int64(le.Uint64(b[8*i:]))
			if v < prev || uint64(v) > nnz || (at+i == 0 && v != 0) {
				return malformed("row_offsets[%d] = %d (previous %d, nnz %d)", at+i, v, prev, nnz)
			}
			dst[i], prev = v, v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if uint64(prev) != nnz {
		return nil, malformed("last row offset %d, header declares nnz %d", prev, nnz)
	}
	d.ColIDs, err = readSection(r, block, int(nnz), 4, "col_ids", func(dst []int32, b []byte, at int) error {
		for i := range dst {
			v := le.Uint32(b[4*i:])
			if uint64(v) >= cols {
				return malformed("col_ids[%d] = %d outside [0,%d)", at+i, int32(v), cols)
			}
			dst[i] = int32(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.Values, err = readSection(r, block, int(nnz), 8, "values", func(dst []float64, b []byte, _ int) error {
		for i := range dst {
			dst[i] = math.Float64frombits(le.Uint64(b[8*i:]))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// readSection reads count elements of the given size through block,
// handing each block's worth to convert (dst is where they go, at the
// index of its first). The result starts at one block's worth of
// capacity and doubles toward count only as input arrives, so a lying
// header cannot make it allocate.
func readSection[T any](r io.Reader, block []byte, count, size int, name string, convert func(dst []T, b []byte, at int) error) ([]T, error) {
	out := make([]T, 0, min(count, len(block)/size))
	for len(out) < count {
		at := len(out)
		n := min(count-at, len(block)/size)
		if _, err := io.ReadFull(r, block[:n*size]); err != nil {
			return nil, truncated(err, name)
		}
		if at+n > cap(out) {
			// Not slices.Grow: append's growth rule overshoots a doubling,
			// and the bound on a lying header is this capacity.
			grown := make([]T, at, min(count, 2*cap(out)))
			copy(grown, out)
			out = grown
		}
		out = out[:at+n]
		if err := convert(out[at:], block, at); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// truncated classifies a short read: a body that simply ends is
// malformed input; any other read error (a transport failure, the
// server's http.MaxBytesReader cutting the body off) passes through
// for the caller to match.
func truncated(err error, section string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return malformed("truncated in %s", section)
	}
	return fmt.Errorf("apiv1: reading binary matrix %s: %w", section, err)
}

// Bulk bodies (POST /v1/matrices/bulk) are a little-endian u32 frame
// count followed by that many frames.

// writeBulkBinary writes the frames of a bulk upload.
func writeBulkBinary(w io.Writer, ds []*MatrixData) error {
	var count [4]byte
	binary.LittleEndian.PutUint32(count[:], uint32(len(ds)))
	if _, err := w.Write(count[:]); err != nil {
		return err
	}
	for _, d := range ds {
		if err := WriteMatrixBinary(w, d); err != nil {
			return err
		}
	}
	return nil
}

// readBulkBinary decodes a bulk body; maxBytes caps the payloads of
// all its frames together. The count is never trusted for allocation:
// the result grows one frame at a time.
func readBulkBinary(r io.Reader, maxBytes int64) ([]*MatrixData, error) {
	var count [4]byte
	if _, err := io.ReadFull(r, count[:]); err != nil {
		return nil, truncated(err, "bulk count")
	}
	var ds []*MatrixData
	for i := uint32(0); i < binary.LittleEndian.Uint32(count[:]); i++ {
		d, err := readFrame(r, &maxBytes)
		if err != nil {
			return nil, fmt.Errorf("bulk frame %d: %w", i, err)
		}
		ds = append(ds, d)
	}
	if err := expectEOF(r); err != nil {
		return nil, err
	}
	return ds, nil
}
