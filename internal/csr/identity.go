package csr

import "repro/internal/metrics"

// Identity is proof that a matrix's structure was validated and hashes
// to a fingerprint: the structural fingerprint and shape, bound to the
// RowOffsets and ColIDs arrays they were computed from. Its fields are
// unexported, so a record can only come from Identify.
//
// A record is checked against an operand in O(1) (Of): same shape, same
// nnz, same backing arrays. It holds for as long as those arrays are
// not written, which is the contract stored matrices and plan-owned
// structure arrays already had — every product of a warm plan shares
// them. A record that does not match an operand is ignored; nothing is
// ever trusted on the fingerprint alone.
type Identity struct {
	fp         uint64
	rows, cols int
	nnz        int
	offs       *int64
	ids        *int32
}

// IdentityBytes is what one record retains beyond the arrays it points
// into, for byte-accounted caches that keep one.
const IdentityBytes = 48

// Identify validates m and hashes its structure: the one place an
// Identity is minted.
func Identify(m *Matrix) (*Identity, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	id := &Identity{
		fp: Fingerprint(m), rows: m.Rows, cols: m.Cols,
		nnz: len(m.ColIDs), offs: &m.RowOffsets[0],
	}
	if id.nnz > 0 {
		id.ids = &m.ColIDs[0]
	}
	return id, nil
}

// Fingerprint returns the structural fingerprint of the matrix the
// record was minted from.
func (id *Identity) Fingerprint() uint64 { return id.fp }

// Of reports whether the record was minted from m's own arrays: m is
// then valid and fingerprints to id.Fingerprint() without looking at
// its content. A nil record is of nothing.
func (id *Identity) Of(m *Matrix) bool {
	if id == nil || m.Rows != id.rows || m.Cols != id.cols ||
		len(m.RowOffsets) != id.rows+1 || len(m.ColIDs) != id.nnz || len(m.Data) != id.nnz ||
		&m.RowOffsets[0] != id.offs {
		return false
	}
	return id.nnz == 0 || &m.ColIDs[0] == id.ids
}

// StructOf returns m's structural fingerprint: the record's when id is
// of m, a fresh hash — one identity pass counted into col — otherwise.
func StructOf(m *Matrix, id *Identity, col *metrics.Collector) uint64 {
	if id.Of(m) {
		return id.fp
	}
	col.Add(metrics.CounterIdentityPasses, 1)
	return Fingerprint(m)
}
