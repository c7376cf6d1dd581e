package csr

import "math"

// fpOffset seeds the hash (the FNV-1a 64-bit offset basis); fpPrime is
// the FNV-1a 64-bit prime, reused as the multiplier of the
// word-at-a-time mixing below.
const (
	fpOffset = 14695981039346656037
	fpPrime  = 1099511628211
)

// fpMix folds one 64-bit word into the running hash. The word is first
// diffused with the murmur3 finalizer (so a change in any input bit
// flips about half the word before it meets the accumulator), then
// combined FNV-style. One multiply-xor-shift sequence per word instead
// of eight dependent byte steps keeps fingerprinting a small, flat
// cost on warm serving paths, where it runs per request rather than
// per symbolic phase.
func fpMix(h, v uint64) uint64 {
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	return (h ^ v) * fpPrime
}

// Fingerprint hashes the *structure* of a matrix — dimensions, row
// offsets and column ids, never the values — into a 64-bit key. Two
// matrices with the same sparsity pattern but different numeric values
// fingerprint identically, which is exactly what the structure-reuse
// fast path wants: a plan (chunk grid, row groups, output structure)
// computed for one multiply is valid for any later multiply whose
// operands carry the same pattern with fresh values.
//
// The hash mixes one machine word at a time (column ids are packed in
// pairs), making it cheap — one linear pass, no allocation — relative
// to the symbolic work it lets callers skip. Collisions are improbable
// by accident but constructible (fpMix is a bijection per word), so a
// match is a lookup, never a proof: the plan caches additionally key on
// the dimensions and non-zero counts, so a collision can at worst alias
// two patterns of identical shape and size, never cause an
// out-of-bounds plan, and the serving layer's matrix store compares
// content before it lets two uploads share a handle or a pattern.
func Fingerprint(m *Matrix) uint64 {
	h := fpMix(fpOffset, uint64(m.Rows))
	h = fpMix(h, uint64(m.Cols))
	for _, o := range m.RowOffsets {
		h = fpMix(h, uint64(o))
	}
	ids := m.ColIDs
	for len(ids) >= 2 {
		h = fpMix(h, uint64(uint32(ids[0]))|uint64(uint32(ids[1]))<<32)
		ids = ids[2:]
	}
	if len(ids) == 1 {
		h = fpMix(h, uint64(uint32(ids[0])))
	}
	return h
}

// FingerprintValues hashes the numeric values of a matrix (and nothing
// else). Together with Fingerprint it content-addresses a matrix: the
// serving layer's matrix store derives its handles from the pair, so
// re-uploading identical content is idempotent while a values-only
// change produces a new handle that still shares the structural
// fingerprint — and therefore the cached plan — of its pattern.
func FingerprintValues(m *Matrix) uint64 {
	h := uint64(fpOffset)
	for _, v := range m.Data {
		h = fpMix(h, math.Float64bits(v))
	}
	return h
}
