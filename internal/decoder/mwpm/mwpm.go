// Package mwpm implements the exact minimum-weight perfect-matching
// surface-code decoder of Fowler et al. — the offline software baseline
// the NISQ+ paper compares against.
//
// The open boundaries are folded into the instance without doubling it:
// hot checks i and j are joined by an edge of weight min(dist(i,j),
// bdist(i)+bdist(j)) — pairing them directly or sending both to their
// nearest boundary, whichever is lighter — and when the hot count is
// odd one extra boundary node with edges bdist(i) absorbs the leftover
// check. Every matching of the classic twin-per-check construction maps
// to a matching of this folded instance with the same total weight (two
// boundary-matched checks pair up through the min), so the optimum is
// unchanged while the blossom algorithm from internal/match runs on
// half the nodes (8x less O(n³) work). Matched pairs whose min came
// from the boundary sum are decomposed back into two boundary chains.
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

// intoState is the MWPM decoder's private scratch: a reusable blossom
// matcher, the flat weight matrix it consumes, and the accepted
// matching, kept so the correction can lay down all pair chains before
// all boundary chains.
type intoState struct {
	matcher match.Matcher
	w       []int64
	pairs   [][2]int32
	bnd     []int32
}

// DecodeInto implements decodepool.IntoDecoder: the exact matching of
// the folded instance, weighted from the cached distance tables, with
// each picked pair's chain appended in closed form by g. Steady state
// allocates nothing; the returned Correction aliases s and is valid
// until its next decode.
func (d *Decoder) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	geo := decodepool.For(g)
	hot := s.HotChecks(syn)
	n := len(hot)
	if n == 0 {
		return decoder.Correction{}, nil
	}
	st := s.State("mwpm", func() any { return new(intoState) }).(*intoState)
	// Folded instance: nodes 0..n-1 are hot checks, node n (odd counts
	// only) absorbs the leftover check at its boundary distance.
	m := n + n%2
	if cap(st.w) < m*m {
		st.w = make([]int64, match.GrownSquare(m, cap(st.w)))
	}
	w := st.w[:m*m]
	for u := 0; u < n; u++ {
		bu := int64(geo.BoundaryDist(hot[u]))
		w[u*m+u] = 0
		for v := u + 1; v < n; v++ {
			wt := int64(geo.Dist(hot[u], hot[v]))
			if bs := bu + int64(geo.BoundaryDist(hot[v])); bs < wt {
				wt = bs
			}
			w[u*m+v], w[v*m+u] = wt, wt
		}
		if m > n {
			w[u*m+n], w[n*m+u] = bu, bu
		}
	}
	if m > n {
		w[n*m+n] = 0
	}
	mate, _ := st.matcher.MinWeightPerfect(m, w)
	st.pairs, st.bnd = st.pairs[:0], st.bnd[:0]
	for u := 0; u < n; u++ {
		v := mate[u]
		if v >= n {
			st.bnd = append(st.bnd, int32(hot[u]))
		} else if v > u {
			// Ties go to the direct pair, so a decomposition never
			// lengthens the correction.
			if int64(geo.Dist(hot[u], hot[v])) <= int64(geo.BoundaryDist(hot[u])+geo.BoundaryDist(hot[v])) {
				st.pairs = append(st.pairs, [2]int32{int32(hot[u]), int32(hot[v])})
			} else {
				st.bnd = append(st.bnd, int32(hot[u]), int32(hot[v]))
			}
		}
	}
	q := s.TakeQubits()
	for _, p := range st.pairs {
		q = g.AppendPathQubits(q, int(p[0]), int(p[1]))
	}
	for _, i := range st.bnd {
		q = g.AppendBoundaryPathQubits(q, int(i))
	}
	return s.PutQubits(q), nil
}

var (
	_ decoder.Decoder        = (*Decoder)(nil)
	_ decodepool.IntoDecoder = (*Decoder)(nil)
)
