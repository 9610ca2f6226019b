// Package unionfind implements the almost-linear-time union-find decoder
// of Delfosse & Nickerson — one of the fast offline baselines the NISQ+
// paper compares against (§IV, §VIII).
//
// The decoder works on the decoding graph (one vertex per check, one
// pendant boundary vertex per boundary data qubit, one edge per data
// qubit). Clusters seeded at hot checks grow by half an edge per round;
// clusters with even defect parity or boundary contact stop growing.
// Once every cluster is neutral, a spanning forest of each cluster is
// peeled from the leaves inward, emitting a correction edge whenever a
// defect sits on a leaf.
package unionfind

import (
	"fmt"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
)

// Decoder is the union-find decoder. The zero value is ready to use.
type Decoder struct{}

// New returns a union-find decoder.
func New() *Decoder { return &Decoder{} }

// Name implements decoder.Decoder.
func (*Decoder) Name() string { return "union-find" }

// Decode implements decoder.Decoder: DecodeInto on a fresh scratch, so
// the decoder stays stateless and safe to share across goroutines.
func (u *Decoder) Decode(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
	return u.DecodeInto(g, syn, decodepool.NewScratch())
}

// intoState is the union-find decoder's private scratch: flat
// union-find arrays, per-edge growth state, and the CSR adjacency plus
// traversal buffers of the peeling stage.
type intoState struct {
	// Union-find over the decoding-graph vertices. At a root, odd
	// marks an odd number of defects in the cluster and boundary a
	// boundary vertex in it.
	parent, size  []int32
	odd, boundary []bool

	// Growth stage.
	growth []int32
	grown  []bool

	// Peeling stage: CSR adjacency over grown edges, then BFS + leaf
	// peel buffers.
	adjOff     []int32
	adjData    []int32
	defect     []bool
	visited    []bool
	parentEdge []int32
	order      []int32
}

func (st *intoState) reset(nv, ne int) {
	if cap(st.parent) < nv {
		st.parent = make([]int32, nv)
		st.size = make([]int32, nv)
		st.odd = make([]bool, nv)
		st.boundary = make([]bool, nv)
		st.defect = make([]bool, nv)
		st.visited = make([]bool, nv)
		st.parentEdge = make([]int32, nv)
		st.adjOff = make([]int32, nv+1)
		st.order = make([]int32, 0, nv)
	}
	st.parent = st.parent[:nv]
	st.size = st.size[:nv]
	st.odd = st.odd[:nv]
	st.boundary = st.boundary[:nv]
	st.defect = st.defect[:nv]
	st.visited = st.visited[:nv]
	st.parentEdge = st.parentEdge[:nv]
	st.adjOff = st.adjOff[:nv+1]
	for i := range st.parent {
		st.parent[i] = int32(i)
		st.size[i] = 1
	}
	clear(st.odd)
	clear(st.boundary)
	clear(st.defect)
	clear(st.visited)
	if cap(st.growth) < ne {
		st.growth = make([]int32, ne)
		st.grown = make([]bool, ne)
		st.adjData = make([]int32, 2*ne)
	}
	st.growth = st.growth[:ne]
	st.grown = st.grown[:ne]
	clear(st.growth)
	clear(st.grown)
}

func (st *intoState) find(x int32) int32 {
	for st.parent[x] != x {
		st.parent[x] = st.parent[st.parent[x]]
		x = st.parent[x]
	}
	return x
}

func (st *intoState) union(a, b int32) {
	ra, rb := st.find(a), st.find(b)
	if ra == rb {
		return
	}
	if st.size[ra] < st.size[rb] {
		ra, rb = rb, ra
	}
	st.parent[rb] = ra
	st.size[ra] += st.size[rb]
	st.odd[ra] = st.odd[ra] != st.odd[rb]
	st.boundary[ra] = st.boundary[ra] || st.boundary[rb]
}

// active reports whether the cluster rooted at r must keep growing.
func (st *intoState) active(r int32) bool { return st.odd[r] && !st.boundary[r] }

// DecodeInto implements decodepool.IntoDecoder: cluster growth and
// peeling on the cached decoding-edge tables (geo.Endpoints numbers one
// pendant boundary vertex per boundary edge) and flat scratch arrays.
// Steady state allocates nothing; the returned Correction aliases s.
func (u *Decoder) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	geo := decodepool.For(g)
	st := s.State("unionfind", func() any { return new(intoState) }).(*intoState)
	st.reset(geo.NV, len(geo.Edges))
	for v := geo.M; v < geo.NV; v++ {
		st.boundary[v] = true
	}
	anyActive := false
	for i, hot := range syn {
		if hot {
			st.odd[i] = true
			anyActive = true
		}
	}

	// Growth: each un-grown edge accumulates support from its
	// endpoints' active clusters; a fully supported edge (support >= 2)
	// merges them.
	for rounds := 1; anyActive; rounds++ {
		for k := range geo.Edges {
			if st.grown[k] {
				continue
			}
			a, b := geo.Endpoints[k][0], geo.Endpoints[k][1]
			if st.active(st.find(a)) {
				st.growth[k]++
			}
			if st.active(st.find(b)) {
				st.growth[k]++
			}
		}
		for k := range geo.Edges {
			if !st.grown[k] && st.growth[k] >= 2 {
				st.grown[k] = true
				st.union(geo.Endpoints[k][0], geo.Endpoints[k][1])
			}
		}
		anyActive = false
		for i, hot := range syn {
			if hot && st.active(st.find(int32(i))) {
				anyActive = true
				break
			}
		}
		if rounds > 4*g.Lattice().Size() {
			return decoder.Correction{}, fmt.Errorf("unionfind: growth did not converge after %d rounds", rounds)
		}
	}
	q, err := st.peel(geo, syn, s.TakeQubits())
	if err != nil {
		return decoder.Correction{}, err
	}
	return s.PutQubits(q), nil
}

// peel appends to q the correction that clears syn inside the grown
// edge set: a spanning forest of each cluster is peeled from the leaves
// inward, emitting an edge whenever a defect sits on a leaf.
func (st *intoState) peel(geo *decodepool.Geometry, syn []bool, q []int) ([]int, error) {
	hasDefect := false
	for i, hot := range syn {
		if hot {
			st.defect[i] = true
			hasDefect = true
		}
	}
	if !hasDefect {
		return q, nil
	}
	// CSR adjacency of the grown edges, each vertex's slots filled in
	// ascending edge order.
	nv, m := geo.NV, geo.M
	adjOff := st.adjOff
	clear(adjOff)
	for k := range geo.Edges {
		if st.grown[k] {
			adjOff[geo.Endpoints[k][0]+1]++
			adjOff[geo.Endpoints[k][1]+1]++
		}
	}
	for v := 0; v < nv; v++ {
		adjOff[v+1] += adjOff[v]
	}
	fill := st.parentEdge // reuse as temporary cursor before BFS overwrites it
	copy(fill, adjOff[:nv])
	for k := range geo.Edges {
		if st.grown[k] {
			a, b := geo.Endpoints[k][0], geo.Endpoints[k][1]
			st.adjData[fill[a]] = int32(k)
			fill[a]++
			st.adjData[fill[b]] = int32(k)
			fill[b]++
		}
	}

	// Roots: boundary vertices first, so peeled defects can always
	// drain into the boundary, then the checks.
	for root := int32(0); root < int32(nv); root++ {
		r := root + int32(m)
		if r >= int32(nv) {
			r -= int32(nv)
		}
		if st.visited[r] {
			continue
		}
		// BFS spanning tree of the cluster containing r.
		order := st.order[:0]
		order = append(order, r)
		st.visited[r] = true
		st.parentEdge[r] = -1
		for i := 0; i < len(order); i++ {
			v := order[i]
			for _, k := range st.adjData[adjOff[v]:adjOff[v+1]] {
				w := geo.Endpoints[k][0] + geo.Endpoints[k][1] - v
				if !st.visited[w] {
					st.visited[w] = true
					st.parentEdge[w] = k
					order = append(order, w)
				}
			}
		}
		st.order = order
		// Peel leaves first (reverse BFS order).
		for i := len(order) - 1; i > 0; i-- {
			v := order[i]
			if !st.defect[v] {
				continue
			}
			k := st.parentEdge[v]
			q = append(q, geo.Edges[k].Q)
			st.defect[v] = false
			p := geo.Endpoints[k][0] + geo.Endpoints[k][1] - v
			st.defect[p] = !st.defect[p]
		}
		if st.defect[r] && int(r) < m {
			return nil, fmt.Errorf("unionfind: unresolved defect at check %d", r)
		}
		st.defect[r] = false
	}
	return q, nil
}

var (
	_ decoder.Decoder        = (*Decoder)(nil)
	_ decodepool.IntoDecoder = (*Decoder)(nil)
)

// DecodeErasure performs linear-time maximum-likelihood decoding of the
// quantum erasure channel (Delfosse & Zémor): the erased data qubits
// are known, every error lies inside them, so the peeling stage runs
// directly on the erased edge set with no cluster growth. erased is
// indexed by physical qubit; it must cover every hot check's
// explanation (true for genuine erasure noise).
func (u *Decoder) DecodeErasure(g *lattice.Graph, erased []bool, syn []bool) (decoder.Correction, error) {
	if len(erased) != g.Lattice().NumQubits() {
		return decoder.Correction{}, fmt.Errorf("unionfind: erasure mask covers %d qubits, lattice has %d",
			len(erased), g.Lattice().NumQubits())
	}
	geo := decodepool.For(g)
	st := new(intoState)
	st.reset(geo.NV, len(geo.Edges))
	for k, e := range geo.Edges {
		st.grown[k] = erased[e.Q]
	}
	q, err := st.peel(geo, syn, nil)
	return decoder.Correction{Qubits: q}, err
}
