// Package mwpm implements the exact minimum-weight perfect-matching
// surface-code decoder of Fowler et al. — the offline software baseline
// the NISQ+ paper compares against. The matching with open boundaries
// is match.Boundary's Exact: the blossom algorithm on a folded instance
// of n + n%2 nodes, equivalent to the classic boundary-twin
// construction on 2n.
package mwpm

import (
	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/match"
)

// Decoder is the exact MWPM decoder. The zero value is ready to use.
type Decoder struct{}

// New returns an MWPM decoder.
func New() *Decoder { return &Decoder{} }

// Name implements decoder.Decoder.
func (*Decoder) Name() string { return "mwpm" }

// Decode implements decoder.Decoder: DecodeInto on a fresh scratch, so
// the decoder stays stateless and safe to share across goroutines.
func (d *Decoder) Decode(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
	return d.DecodeInto(g, syn, decodepool.NewScratch())
}

// DecodeInto implements decodepool.IntoDecoder: the exact matching of
// the hot checks, weighted from the cached distance tables, laying
// every pair's chain, then every boundary chain. Steady state allocates
// nothing; the returned Correction aliases s and is valid until its
// next decode.
func (d *Decoder) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	return decodepool.MatchInto(g, syn, s, (*match.Boundary).Exact), nil
}

var (
	_ decoder.Decoder        = (*Decoder)(nil)
	_ decodepool.IntoDecoder = (*Decoder)(nil)
)
