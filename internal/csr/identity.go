package csr

import "repro/internal/metrics"

// Identity is proof that a matrix's structure was validated and hashes
// to a fingerprint: the structural fingerprint, bound to the shape and
// arrays it was computed from (Arrays). Its fields are unexported, so a
// record can only come from Identify.
//
// A record is checked against an operand in O(1) (Of): same shape, same
// nnz, same backing arrays. It holds for as long as those arrays are
// not written, which is the contract stored matrices and plan-owned
// structure arrays already had — every product of a warm plan shares
// them. A record that does not match an operand is ignored; nothing is
// ever trusted on the fingerprint alone.
type Identity struct {
	fp uint64
	at Arrays
}

// IdentityBytes is what one record retains beyond the arrays it points
// into, for byte-accounted caches that keep one.
const IdentityBytes = 48

// Arrays pins a matrix's shape and structure arrays: what is derived
// from a structure (a fingerprint, a row analysis) is bound to it.
type Arrays struct {
	rows, cols int
	nnz        int
	offs       *int64
	ids        *int32
}

// ArraysOf pins m's shape and structure arrays.
func ArraysOf(m *Matrix) Arrays {
	at := Arrays{rows: m.Rows, cols: m.Cols, nnz: len(m.ColIDs)}
	if len(m.RowOffsets) > 0 {
		at.offs = &m.RowOffsets[0]
	}
	if at.nnz > 0 {
		at.ids = &m.ColIDs[0]
	}
	return at
}

// Of reports in O(1) whether m has the pinned shape and arrays.
func (at Arrays) Of(m *Matrix) bool {
	if m.Rows != at.rows || m.Cols != at.cols ||
		len(m.RowOffsets) != at.rows+1 || len(m.ColIDs) != at.nnz || len(m.Data) != at.nnz ||
		&m.RowOffsets[0] != at.offs {
		return false
	}
	return at.nnz == 0 || &m.ColIDs[0] == at.ids
}

// Identify validates m and hashes its structure: the one place an
// Identity is minted.
func Identify(m *Matrix) (*Identity, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Identity{fp: Fingerprint(m), at: ArraysOf(m)}, nil
}

// Fingerprint returns the structural fingerprint of the matrix the
// record was minted from.
func (id *Identity) Fingerprint() uint64 { return id.fp }

// Of reports whether the record was minted from m's own arrays: m is
// then valid and fingerprints to id.Fingerprint() without looking at
// its content. A nil record is of nothing.
func (id *Identity) Of(m *Matrix) bool { return id != nil && id.at.Of(m) }

// StructOf returns m's structural fingerprint: the record's when id is
// of m, a fresh hash — one identity pass counted into col — otherwise.
func StructOf(m *Matrix, id *Identity, col *metrics.Collector) uint64 {
	if id.Of(m) {
		return id.fp
	}
	col.Add(metrics.CounterIdentityPasses, 1)
	return Fingerprint(m)
}
