// Package greedy implements the software reference of the NISQ+
// approximate decoding algorithm (§V-B of the paper): a greedy
// approximation to minimum-weight matching.
//
// All pairwise distances between hot syndromes — and, to handle the
// code boundaries, the distance from each hot syndrome to its nearest
// boundary — are sorted in ascending order (descending likelihood).
// Edges are then accepted greedily whenever both endpoints are still
// unmatched; boundary pseudo-nodes never saturate, mirroring the paper's
// formulation in which external nodes are connected to one another with
// weight zero. By the classical result of Drake & Hougardy the result is
// a 2-approximation of the optimal matching. The matching itself is
// match.Boundary's Greedy, which also fixes the tie-break order.
package greedy

import (
	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/match"
)

// Decoder is the greedy matching decoder. The zero value is ready to use.
type Decoder struct{}

// New returns a greedy decoder.
func New() *Decoder { return &Decoder{} }

// Name implements decoder.Decoder.
func (*Decoder) Name() string { return "greedy" }

// Decode implements decoder.Decoder: DecodeInto on a fresh scratch, so
// the decoder stays stateless and safe to share across goroutines.
func (d *Decoder) Decode(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
	return d.DecodeInto(g, syn, decodepool.NewScratch())
}

// DecodeInto implements decodepool.IntoDecoder: the greedy matching of
// the hot checks, weighted from the cached distance tables, laying
// every pair's chain, then every boundary chain. Steady state allocates
// nothing; the returned Correction aliases s.
func (d *Decoder) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	return decodepool.MatchInto(g, syn, s, (*match.Boundary).Greedy), nil
}

var (
	_ decoder.Decoder        = (*Decoder)(nil)
	_ decodepool.IntoDecoder = (*Decoder)(nil)
)
