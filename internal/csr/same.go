package csr

import (
	"bytes"
	"unsafe"
)

// SameStructure reports whether x and y have one shape and the same row
// offsets and column ids, compared as bytes: what a fingerprint match
// must be confirmed by before one matrix stands for the other.
func SameStructure(x, y *Matrix) bool {
	return x.Rows == y.Rows && x.Cols == y.Cols &&
		bytes.Equal(bitsOf(x.RowOffsets), bitsOf(y.RowOffsets)) && bytes.Equal(bitsOf(x.ColIDs), bitsOf(y.ColIDs))
}

// SameBits compares two value arrays bit for bit (NaN payloads and the
// sign of zero included, as FingerprintValues hashes them).
func SameBits(x, y []float64) bool { return bytes.Equal(bitsOf(x), bitsOf(y)) }

// bitsOf returns the memory of an array as bytes, without copying: the
// package's only use of unsafe. Two arrays of one element type hold the
// same bits exactly when their byte views are equal, whatever the host's
// byte order, and bytes.Equal compares the views many bytes at a time
// where an element loop compares one element at a time.
func bitsOf[T int64 | int32 | float64](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), uintptr(len(s))*unsafe.Sizeof(s[0]))
}
