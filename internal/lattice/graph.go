package lattice

import (
	"fmt"

	"repro/internal/pauli"
)

// Graph is the matching graph a decoder works on: one node per ancilla
// (check) of a fixed type, plus two code boundaries. Distances are the
// minimum number of data-qubit errors needed to connect two checks (or a
// check and a boundary), and paths enumerate the data qubits realizing
// that minimum.
//
// For ZErrors the checks are X-ancillas and the boundaries are the left
// (column 0) and right (column 2d−2) edges of the grid; for XErrors the
// checks are Z-ancillas and the boundaries are the top and bottom rows.
type Graph struct {
	l      *Lattice
	etype  ErrorType
	checks []Site
	index  map[Site]int

	// Flattened per-check stabilizer supports, precomputed so the
	// syndrome hot loop (SyndromeInto) performs no allocation: check i's
	// data-qubit neighbours are supData[supOff[i]:supOff[i+1]].
	supOff  []int
	supData []int
}

// MatchingGraph builds the matching graph for the given error type.
func (l *Lattice) MatchingGraph(e ErrorType) *Graph {
	g := &Graph{l: l, etype: e, index: make(map[Site]int)}
	g.checks = l.AncillaSites(e)
	g.supOff = make([]int, len(g.checks)+1)
	for i, s := range g.checks {
		g.index[s] = i
		g.supData = append(g.supData, l.StabilizerSupport(s)...)
		g.supOff[i+1] = len(g.supData)
	}
	return g
}

// Lattice returns the underlying lattice.
func (g *Graph) Lattice() *Lattice { return g.l }

// ErrorType returns the Pauli component this graph decodes.
func (g *Graph) ErrorType() ErrorType { return g.etype }

// NumChecks returns the number of check nodes.
func (g *Graph) NumChecks() int { return len(g.checks) }

// CheckSite returns the lattice site of check i.
func (g *Graph) CheckSite(i int) Site { return g.checks[i] }

// CheckIndex returns the check index of the ancilla at site s, if any.
func (g *Graph) CheckIndex(s Site) (int, bool) {
	i, ok := g.index[s]
	return i, ok
}

// axial returns the coordinate of s along the axis that runs between the
// two boundaries of this graph, and the transverse coordinate.
func (g *Graph) axial(s Site) (a, t int) {
	if g.etype == ZErrors {
		return s.Col, s.Row
	}
	return s.Row, s.Col
}

// site reconstructs a lattice site from axial/transverse coordinates.
func (g *Graph) site(a, t int) Site {
	if g.etype == ZErrors {
		return Site{Row: t, Col: a}
	}
	return Site{Row: a, Col: t}
}

// Dist returns the matching-graph distance between checks i and j: the
// minimum number of data-qubit errors forming a chain with hot syndromes
// exactly at i and j.
func (g *Graph) Dist(i, j int) int {
	ai, ti := g.axial(g.checks[i])
	aj, tj := g.axial(g.checks[j])
	return (abs(ai-aj) + abs(ti-tj)) / 2
}

// BoundaryDist returns the distance from check i to its nearest code
// boundary.
func (g *Graph) BoundaryDist(i int) int {
	near, far := g.boundaryDists(i)
	if near < far {
		return near
	}
	return far
}

// boundaryDists returns the distances to the low-coordinate and
// high-coordinate boundaries, in that order.
func (g *Graph) boundaryDists(i int) (low, high int) {
	a, _ := g.axial(g.checks[i])
	return (a + 1) / 2, (2*g.l.d - 1 - a) / 2
}

// AppendPathQubits appends the data-qubit indices of a minimum-length
// error chain connecting checks i and j to dst and returns it. The chain
// is L-shaped: it runs along the axial direction at check i's transverse
// coordinate, then turns. It allocates only when dst has to grow.
func (g *Graph) AppendPathQubits(dst []int, i, j int) []int {
	ai, ti := g.axial(g.checks[i])
	aj, tj := g.axial(g.checks[j])
	for a := min(ai, aj) + 1; a < max(ai, aj); a += 2 {
		dst = append(dst, g.l.QubitIndex(g.site(a, ti)))
	}
	for t := min(ti, tj) + 1; t < max(ti, tj); t += 2 {
		dst = append(dst, g.l.QubitIndex(g.site(aj, t)))
	}
	return dst
}

// AppendBoundaryPathQubits appends the data-qubit indices of the
// shortest error chain from check i to its nearest boundary (the low
// boundary on ties) to dst and returns it. It allocates only when dst
// has to grow.
func (g *Graph) AppendBoundaryPathQubits(dst []int, i int) []int {
	a, t := g.axial(g.checks[i])
	low, high := g.boundaryDists(i)
	if low <= high {
		for x := a - 1; x >= 0; x -= 2 {
			dst = append(dst, g.l.QubitIndex(g.site(x, t)))
		}
	} else {
		for x := a + 1; x < g.l.size; x += 2 {
			dst = append(dst, g.l.QubitIndex(g.site(x, t)))
		}
	}
	return dst
}

// Syndrome computes the hot-check bit vector produced by the given Pauli
// frame over the whole device: element i is true iff check i measures
// odd parity of the error component it detects.
func (g *Graph) Syndrome(f *pauli.Frame) []bool {
	return g.SyndromeInto(f, make([]bool, len(g.checks)))
}

// SyndromeInto is Syndrome writing into a caller-owned buffer, reused
// across cycles by the zero-allocation decode hot path. The buffer is
// resized (reallocating only when its capacity is insufficient) and
// returned.
func (g *Graph) SyndromeInto(f *pauli.Frame, syn []bool) []bool {
	if f.Len() != g.l.NumQubits() {
		panic(fmt.Sprintf("lattice: frame covers %d qubits, lattice has %d", f.Len(), g.l.NumQubits()))
	}
	if cap(syn) < len(g.checks) {
		syn = make([]bool, len(g.checks))
	}
	syn = syn[:len(g.checks)]
	for i := range g.checks {
		sup := g.supData[g.supOff[i]:g.supOff[i+1]]
		if g.etype == ZErrors {
			syn[i] = f.ParityZ(sup) == 1
		} else {
			syn[i] = f.ParityX(sup) == 1
		}
	}
	return syn
}

// HotChecks returns the indices of the true entries of a syndrome vector.
func HotChecks(syn []bool) []int {
	var hot []int
	for i, h := range syn {
		if h {
			hot = append(hot, i)
		}
	}
	return hot
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
