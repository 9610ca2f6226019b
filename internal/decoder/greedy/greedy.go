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
	"sort"

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

// edge is a candidate matching edge. j == lattice.Boundary marks a
// boundary edge for hot check i.
type edge struct {
	w    int
	i, j int
}

// Match computes the greedy matching for the syndrome without converting
// it to a correction. Exposed so harnesses can inspect pairings.
func (*Decoder) Match(g *lattice.Graph, syn []bool) decoder.Matching {
	hot := lattice.HotChecks(syn)
	edges := make([]edge, 0, len(hot)*(len(hot)+1)/2)
	for a := 0; a < len(hot); a++ {
		for b := a + 1; b < len(hot); b++ {
			edges = append(edges, edge{g.Dist(hot[a], hot[b]), hot[a], hot[b]})
		}
		edges = append(edges, edge{g.BoundaryDist(hot[a]), hot[a], lattice.Boundary})
	}
	// Ascending distance. On ties, pair edges come before boundary
	// edges — pairing two hot checks at distance w clears both for the
	// price one boundary match would pay to clear one — and remaining
	// ties are broken by endpoint indices so decoding is deterministic.
	rank := func(e edge) int {
		if e.j == lattice.Boundary {
			return 1
		}
		return 0
	}
	sort.Slice(edges, func(x, y int) bool {
		if edges[x].w != edges[y].w {
			return edges[x].w < edges[y].w
		}
		if rank(edges[x]) != rank(edges[y]) {
			return rank(edges[x]) < rank(edges[y])
		}
		if edges[x].i != edges[y].i {
			return edges[x].i < edges[y].i
		}
		return edges[x].j < edges[y].j
	})

	matched := make(map[int]bool, len(hot))
	var m decoder.Matching
	for _, e := range edges {
		if matched[e.i] {
			continue
		}
		if e.j == lattice.Boundary {
			matched[e.i] = true
			m.Boundary = append(m.Boundary, e.i)
			continue
		}
		if matched[e.j] {
			continue
		}
		matched[e.i], matched[e.j] = true, true
		m.Pairs = append(m.Pairs, [2]int{e.i, e.j})
	}
	return m
}

// Decode implements decoder.Decoder.
func (d *Decoder) Decode(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
	return d.Match(g, syn).Correction(g), nil
}

// gedge is the scratch-resident candidate edge; j == -1 marks a
// boundary edge.
type gedge struct{ w, i, j int32 }

// intoState is the greedy decoder's private scratch: the candidate edge
// list in generation order, the counting-sort permutation and buckets,
// the matched flags, and the accepted matching.
type intoState struct {
	edges   []gedge
	idx     []int32
	counts  []int32
	matched []bool
	pairs   [][2]int32
	bnd     []int32
}

// DecodeInto implements decodepool.IntoDecoder. It reproduces Decode's
// matching exactly but replaces the comparison sort with a stable
// two-bucket-per-weight counting sort: the sort key is 2·w + rank
// (rank 1 for boundary edges), and within a bucket the generation order
// — ascending (i, j) for pair edges, ascending i for boundary edges —
// already equals the legacy comparator's tie-break order. Steady state
// allocates nothing; the returned Correction aliases s.
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
			edges = append(edges, gedge{w, int32(hot[a]), int32(hot[b])})
		}
		w := int32(geo.BoundaryDist(hot[a]))
		if w > maxW {
			maxW = w
		}
		edges = append(edges, gedge{w, int32(hot[a]), -1})
	}
	st.edges = edges

	nkeys := int(2*maxW) + 2
	if cap(st.counts) < nkeys {
		st.counts = make([]int32, nkeys)
	}
	counts := st.counts[:nkeys]
	clear(counts)
	key := func(e gedge) int32 {
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
