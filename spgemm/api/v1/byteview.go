package apiv1

import (
	"encoding/binary"
	"unsafe"
)

// This file holds the package's only use of unsafe: recast, through
// which the codec copies a CSR array to and from the wire in one piece.
//
// A frame's sections are the arrays' elements in little-endian order,
// without padding (binary.go). A Go []int64, []int32 or []float64 is its
// elements back to back in the host's byte order, without padding, and
// a float64 is stored as its IEEE-754 bit pattern. So on a
// little-endian host the memory of such an array is its section, byte
// for byte: WriteMatrixBinary writes the array's own bytes and
// readSection reads a section straight into elements. On a big-endian
// host (useByteViews false) every element is converted with
// encoding/binary instead, which is also what a test runs by clearing
// useByteViews.

// word is an element type recast may view memory as.
type word interface {
	byte | uint64 | wireElem
}

// wireElem is an element type of a frame section.
type wireElem interface{ int64 | int32 | float64 }

// useByteViews selects the one-copy path: true on a little-endian host.
// It is set once, before any frame is coded; only tests clear it, to
// run the per-element path on a little-endian host.
var useByteViews = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// maxView bounds the bytes of one recast view, a multiple of every
// element size: the length stays in range on a 32-bit host.
const maxView = 1 << 30

// recast returns the memory of s as a slice of To, as many whole To as
// fit in its bytes, without copying. The codec uses it two ways: an
// array as bytes (To = byte needs no alignment) and a staging block's
// uint64 words as elements (aligned for any wireElem). The caller keeps
// the view within maxView bytes.
func recast[To, From word](s []From) []To {
	if len(s) == 0 {
		return nil
	}
	var from From
	var to To
	n := uintptr(len(s)) * unsafe.Sizeof(from) / unsafe.Sizeof(to)
	return unsafe.Slice((*To)(unsafe.Pointer(&s[0])), n)
}
