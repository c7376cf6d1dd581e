package apiv1

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
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
	// binaryBlock is the size of a staging block: a multiple of every
	// element size.
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

// WriteMatrixBinary writes d as one binary frame: the header, then each
// array as one write of its own memory on a little-endian host, or
// element by element through a pooled block elsewhere. Only the array
// lengths are checked (they fix the layout); content validation is the
// reader's job. Nil RowOffsets encode as the all-empty-rows offsets, as
// MatrixData.Matrix reads them.
func WriteMatrixBinary(w io.Writer, d *MatrixData) error {
	nnz := len(d.ColIDs)
	if d.Rows < 0 || d.Cols < 0 || len(d.Values) != nnz ||
		(d.RowOffsets != nil && len(d.RowOffsets) != d.Rows+1) {
		return fmt.Errorf("apiv1: matrix data %dx%d has inconsistent array lengths (offsets %d, col_ids %d, values %d)",
			d.Rows, d.Cols, len(d.RowOffsets), nnz, len(d.Values))
	}
	le := binary.LittleEndian
	var hdr [binaryHeader]byte
	copy(hdr[:], binaryMagic)
	hdr[7] = binaryVersion
	le.PutUint64(hdr[8:], uint64(d.Rows))
	le.PutUint64(hdr[16:], uint64(d.Cols))
	le.PutUint64(hdr[24:], uint64(nnz))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	offsets := d.RowOffsets
	if offsets == nil {
		offsets = make([]int64, d.Rows+1)
	}
	if err := writeSection(w, offsets, 8); err != nil {
		return err
	}
	if err := writeSection(w, d.ColIDs, 4); err != nil {
		return err
	}
	return writeSection(w, d.Values, 8)
}

// block is a staging block of readSection and of the per-element
// encoder, pooled across frames. Its words align it for every element
// type.
type block [binaryBlock / 8]uint64

var blockPool = sync.Pool{New: func() any { return new(block) }}

// staging holds the blocks a frame's sections are staged in: taken from
// blockPool as a section needs them and reused by the frame's next
// section, so a frame stages in as many blocks as its largest section.
type staging []*block

// at returns the i-th block, taking one from the pool when i is new.
func (st *staging) at(i int) *block {
	if i == len(*st) {
		*st = append(*st, blockPool.Get().(*block))
	}
	return (*st)[i]
}

// pooledBlocks is how many of a frame's staging blocks go back to
// blockPool (2 MiB, every block of a frame of a few MB). A larger
// frame's other blocks become garbage with its decode instead of
// staying reachable from the pool for two more collections.
const pooledBlocks = 32

// release gives back the first pooledBlocks of st's blocks.
func (st *staging) release() {
	for _, b := range (*st)[:min(len(*st), pooledBlocks)] {
		blockPool.Put(b)
	}
}

// writeSection writes the wire bytes of s (elements of the given size):
// the memory of s itself where useByteViews, in views of up to maxView
// bytes, else block by block through encodeElems.
func writeSection[T wireElem](w io.Writer, s []T, size int) error {
	if useByteViews {
		for len(s) > 0 {
			n := min(len(s), maxView/size)
			if _, err := w.Write(recast[byte](s[:n])); err != nil {
				return err
			}
			s = s[n:]
		}
		return nil
	}
	b := blockPool.Get().(*block)
	defer blockPool.Put(b)
	for len(s) > 0 {
		n := min(len(s), binaryBlock/size)
		wire := recast[byte](b[:])[:n*size]
		encodeElems(wire, s[:n])
		if _, err := w.Write(wire); err != nil {
			return err
		}
		s = s[n:]
	}
	return nil
}

// encodeElems writes the little-endian bytes of src to dst.
func encodeElems[T wireElem](dst []byte, src []T) {
	le := binary.LittleEndian
	switch s := any(src).(type) {
	case []int64:
		for i, v := range s {
			le.PutUint64(dst[8*i:], uint64(v))
		}
	case []int32:
		for i, v := range s {
			le.PutUint32(dst[4*i:], uint32(v))
		}
	case []float64:
		for i, v := range s {
			le.PutUint64(dst[8*i:], math.Float64bits(v))
		}
	}
}

// decodeElems sets dst from the little-endian bytes in src. src may be
// dst's own memory: each element's bytes are read before it is written.
func decodeElems[T wireElem](dst []T, src []byte) {
	le := binary.LittleEndian
	switch d := any(dst).(type) {
	case []int64:
		for i := range d {
			d[i] = int64(le.Uint64(src[8*i:]))
		}
	case []int32:
		for i := range d {
			d[i] = int32(le.Uint32(src[4*i:]))
		}
	case []float64:
		for i := range d {
			d[i] = math.Float64frombits(le.Uint64(src[8*i:]))
		}
	}
}

// ReadMatrixBinary decodes a body holding exactly one frame. maxBytes
// caps the declared CSR payload, 8(rows+1)+12·nnz — the same quantity
// Matrix.Bytes reports and the matrix store budgets.
//
// The decoder is the first validator. Before allocating it checks
// magic, version, dimension ranges, nnz ≤ rows·cols and the declared
// payload against maxBytes; while reading it makes each array only once
// its bytes have all arrived (a header declaring 2⁴⁰ non-zeros over an
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

	var st staging
	defer st.release()
	d := &MatrixData{Rows: int(rows), Cols: int(cols)}
	var err error
	prev := int64(0)
	d.RowOffsets, err = readSection(r, &st, rows+1, 8, "row_offsets", func(s []int64, at int) error {
		for i, v := range s {
			if v < prev || uint64(v) > nnz || (at+i == 0 && v != 0) {
				return malformed("row_offsets[%d] = %d (previous %d, nnz %d)", at+i, v, prev, nnz)
			}
			prev = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if uint64(prev) != nnz {
		return nil, malformed("last row offset %d, header declares nnz %d", prev, nnz)
	}
	d.ColIDs, err = readSection(r, &st, nnz, 4, "col_ids", func(s []int32, at int) error {
		for i, v := range s {
			if uint64(uint32(v)) >= cols {
				return malformed("col_ids[%d] = %d outside [0,%d)", at+i, v, cols)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.Values, err = readSection[float64](r, &st, nnz, 8, "values", nil)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// readSection reads a section of count elements of the given size. It
// stages them in st's blocks as they arrive — read straight into the
// block's words where useByteViews, else converted by decodeElems in
// place — and hands each block to check (at: the index of its first
// element; nil checks nothing) before it reads the next, so a bad
// element stops the read at its block. Only once the whole section has
// arrived is the array made, at its exact length, and filled with one
// copy per block. A lying header therefore costs at most twice the
// bytes the peer really sent, plus a block.
func readSection[T wireElem](r io.Reader, st *staging, count uint64, size int, name string, check func(s []T, at int) error) ([]T, error) {
	per := uint64(binaryBlock / size)
	n := 0
	for at := uint64(0); at < count; at += per {
		staged := recast[T](st.at(n)[:])[:min(count-at, per)]
		n++
		wire := recast[byte](staged)
		if _, err := io.ReadFull(r, wire); err != nil {
			return nil, truncated(err, name)
		}
		if !useByteViews {
			decodeElems(staged, wire)
		}
		if check != nil {
			if err := check(staged, int(at)); err != nil {
				return nil, err
			}
		}
	}
	// count fits an int here: its bytes are in memory.
	out := make([]T, count)
	for i, b := range (*st)[:n] {
		copy(out[i*int(per):], recast[T](b[:]))
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
