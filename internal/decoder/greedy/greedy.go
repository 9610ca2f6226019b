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
// a 2-approximation of the optimal matching.
package greedy

import (
	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
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

// edge is a candidate matching edge; j == -1 marks a boundary edge for
// hot check i.
type edge struct{ w, i, j int32 }

// intoState is the greedy decoder's private scratch: the candidate edge
// list in generation order, the counting-sort permutation and buckets,
// the matched flags, and the accepted matching.
type intoState struct {
	edges   []edge
	idx     []int32
	counts  []int32
	matched []bool
	pairs   [][2]int32
	bnd     []int32
}

// DecodeInto implements decodepool.IntoDecoder. Candidate edges are
// taken in ascending distance. On ties, pair edges come before boundary
// edges (pairing two hot checks at distance w clears both for the price
// one boundary match would pay to clear one), and remaining ties go to
// the lower endpoint indices, so decoding is deterministic. A stable
// two-bucket-per-weight counting sort gives that order: the key is
// 2·w + 1 for boundary edges and 2·w for pair edges, and within a
// bucket the generation order (ascending (i, j) for pair edges,
// ascending i for boundary edges) is already the index tie-break. The
// correction lays down every pair's chain, then every boundary chain.
// Steady state allocates nothing; the returned Correction aliases s.
func (d *Decoder) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	geo := decodepool.For(g)
	hot := s.HotChecks(syn)
	if len(hot) == 0 {
		return decoder.Correction{}, nil
	}
	st := s.State("greedy", func() any { return new(intoState) }).(*intoState)
	edges := st.edges[:0]
	maxW := int32(0)
	for a := 0; a < len(hot); a++ {
		for b := a + 1; b < len(hot); b++ {
			w := int32(geo.Dist(hot[a], hot[b]))
			if w > maxW {
				maxW = w
			}
			edges = append(edges, edge{w, int32(hot[a]), int32(hot[b])})
		}
		w := int32(geo.BoundaryDist(hot[a]))
		if w > maxW {
			maxW = w
		}
		edges = append(edges, edge{w, int32(hot[a]), -1})
	}
	st.edges = edges

	nkeys := int(2*maxW) + 2
	if cap(st.counts) < nkeys {
		st.counts = make([]int32, nkeys)
	}
	counts := st.counts[:nkeys]
	clear(counts)
	key := func(e edge) int32 {
		k := 2 * e.w
		if e.j < 0 {
			k++
		}
		return k
	}
	for _, e := range edges {
		counts[key(e)]++
	}
	var sum int32
	for k := range counts {
		counts[k], sum = sum, sum+counts[k]
	}
	if cap(st.idx) < len(edges) {
		st.idx = make([]int32, len(edges))
	}
	idx := st.idx[:len(edges)]
	for k, e := range edges {
		ky := key(e)
		idx[counts[ky]] = int32(k)
		counts[ky]++
	}

	m := g.NumChecks()
	if cap(st.matched) < m {
		st.matched = make([]bool, m)
	}
	matched := st.matched[:m]
	clear(matched)
	st.pairs, st.bnd = st.pairs[:0], st.bnd[:0]
	for _, k := range idx {
		e := edges[k]
		if matched[e.i] {
			continue
		}
		if e.j < 0 {
			matched[e.i] = true
			st.bnd = append(st.bnd, e.i)
			continue
		}
		if matched[e.j] {
			continue
		}
		matched[e.i], matched[e.j] = true, true
		st.pairs = append(st.pairs, [2]int32{e.i, e.j})
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
