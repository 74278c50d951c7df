package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// Canonical renders the spec in a canonical byte form suitable for
// content-addressed caching: compact JSON with fields in struct order,
// units already normalized to numbers (bytes, bytes/second) by the
// Bandwidth/Size unmarshalers. Two parses of the same document — or of
// documents differing only in whitespace, key order within an object, or
// unit spelling ("50Gbps" vs 6.25e9) — produce identical bytes.
//
// Canonicalization is structural, not semantic: spellings that decode to
// different field values the model treats identically (e.g. kind "" vs
// "ip") hash differently. That costs cache sharing, never correctness.
func (f File) Canonical() ([]byte, error) {
	return json.Marshal(f)
}

// Hash returns the hex SHA-256 of the canonical form: a content address
// for the spec alone, which lognic-storm routes requests by. It is not
// lognic-serve's cache key, which hashes the endpoint name, a NUL and the
// canonical form of the whole request DTO.
func (f File) Hash() (string, error) {
	b, err := f.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
