package spec

import (
	"crypto/sha256"
	"encoding/hex"

	"lognic/internal/strictjson"
)

// Canonical renders the spec in a canonical byte form suitable for
// content-addressed caching: the compact JSON json.Marshal writes for f
// (WriteJSON writes it without reflection), with fields in struct order
// and units already normalized to numbers (bytes, bytes/second) when the
// spec was decoded. Two parses of the same document — or of
// documents differing only in whitespace, key order within an object, or
// unit spelling ("50Gbps" vs 6.25e9) — produce identical bytes.
//
// Canonicalization is structural, not semantic: spellings that decode to
// different field values the model treats identically (e.g. kind "" vs
// "ip") hash differently. That costs cache sharing, never correctness.
func (f File) Canonical() ([]byte, error) {
	w := strictjson.Writer{B: make([]byte, 0, 1024)}
	f.WriteJSON(&w)
	if w.Err != nil {
		return nil, w.Err
	}
	return w.B, nil
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
