package csr

import (
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// TestIdentityOf pins the O(1) match rule: a record is of the matrix
// whose arrays it was minted from and of any matrix sharing them (a
// re-valued copy), and of nothing else — not an equal clone, not
// another matrix of the same shape and nnz, not a header whose value
// array is the wrong length, and a nil record is of nothing.
func TestIdentityOf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 40, 30, 0.1)
	id, err := Identify(m)
	if err != nil {
		t.Fatal(err)
	}
	if id.Fingerprint() != Fingerprint(m) {
		t.Fatalf("record fingerprint %x, matrix hashes to %x", id.Fingerprint(), Fingerprint(m))
	}
	revalued := &Matrix{Rows: m.Rows, Cols: m.Cols, RowOffsets: m.RowOffsets, ColIDs: m.ColIDs, Data: make([]float64, len(m.Data))}
	if !id.Of(m) || !id.Of(revalued) {
		t.Fatal("record is not of the matrix it was minted from (or of a copy sharing its structure arrays)")
	}
	short := *revalued
	short.Data = short.Data[:len(short.Data)-1]
	other := m.Clone()
	other.ColIDs[0], other.ColIDs[len(other.ColIDs)-1] = other.ColIDs[len(other.ColIDs)-1], other.ColIDs[0]
	for name, x := range map[string]*Matrix{
		"an equal clone":               m.Clone(),
		"same shape and nnz":           other,
		"a short value array":          &short,
		"another shape, same arrays":   {Rows: m.Rows, Cols: m.Cols + 1, RowOffsets: m.RowOffsets, ColIDs: m.ColIDs, Data: m.Data},
		"the zero matrix":              {},
		"an empty matrix of the shape": New(m.Rows, m.Cols),
	} {
		if id.Of(x) {
			t.Errorf("record matches %s", name)
		}
	}
	if (*Identity)(nil).Of(m) {
		t.Error("a nil record matches")
	}

	empty := New(5, 7)
	eid, err := Identify(empty)
	if err != nil {
		t.Fatal(err)
	}
	if !eid.Of(empty) || eid.Of(New(5, 7)) {
		t.Error("an empty matrix's record must match it and no other empty matrix")
	}
}

// TestIdentifyRejectsInvalid: no record exists for arrays that do not
// validate.
func TestIdentifyRejectsInvalid(t *testing.T) {
	m := mustFromEntries(t, 3, 3, []Entry{{0, 2, 1}, {0, 1, 1}, {2, 0, 1}})
	m.ColIDs[0], m.ColIDs[1] = m.ColIDs[1], m.ColIDs[0]
	if id, err := Identify(m); err == nil || id != nil {
		t.Fatalf("Identify of unsorted columns = %v, %v; want an error and no record", id, err)
	}
}

// TestStructOf: the record's fingerprint in O(1) and uncounted when it
// is of the operand, one counted hash — the right one — when it is nil
// or of another matrix.
func TestStructOf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 50, 50, 0.08)
	other := randomMatrix(rng, 50, 50, 0.08)
	id, err := Identify(m)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.New()
	if got := StructOf(m, id, col); got != Fingerprint(m) || col.Counter(metrics.CounterIdentityPasses) != 0 {
		t.Fatalf("matching record: fp %x (want %x), %d passes (want 0)", got, Fingerprint(m), col.Counter(metrics.CounterIdentityPasses))
	}
	if got := StructOf(other, id, col); got != Fingerprint(other) || col.Counter(metrics.CounterIdentityPasses) != 1 {
		t.Fatalf("foreign record: fp %x (want %x), %d passes (want 1)", got, Fingerprint(other), col.Counter(metrics.CounterIdentityPasses))
	}
	if got := StructOf(m, nil, nil); got != Fingerprint(m) {
		t.Fatalf("no record, no collector: fp %x, want %x", got, Fingerprint(m))
	}
}
