package sfq

import (
	"sync"

	"repro/internal/lattice"
)

// meshGeom holds the immutable geometry of one decoder mesh: the cell
// classification of the (2d+1)×(2d+1) grid and the cell↔qubit/check
// index maps. Geometry depends only on (distance, error type), so it is
// computed once per parameter pair and shared read-only by every mesh —
// any number of Monte-Carlo shards rebuilding their own lattices still
// hit one table, mirroring decodepool.Geometry.
type meshGeom struct {
	d int               // code distance
	e lattice.ErrorType // error type the mesh decodes
	m int               // mesh side length
	n int               // m*m cells

	kind   []cellKind
	dataQ  []int // interior data cells -> qubit index, else -1
	cellOf []int // check index -> cell index
}

// cellKind classifies a mesh cell.
type cellKind uint8

const (
	cellInert    cellKind = iota // ring position with no boundary role
	cellInterior                 // one module per physical qubit
	cellBoundary                 // boundary module facing the code edge
)

type geomKey struct {
	d int
	e lattice.ErrorType
}

var (
	geomMu    sync.RWMutex
	geomCache = map[geomKey]*meshGeom{}
)

// geomFor returns the memoized mesh geometry of g, building it on first
// use. Racing builders construct private tables; the first one stored
// wins.
func geomFor(g *lattice.Graph) *meshGeom {
	k := geomKey{d: g.Lattice().Distance(), e: g.ErrorType()}
	geomMu.RLock()
	geo := geomCache[k]
	geomMu.RUnlock()
	if geo != nil {
		return geo
	}
	built := buildGeom(g)
	geomMu.Lock()
	if exist, ok := geomCache[k]; ok {
		built = exist
	} else {
		geomCache[k] = built
	}
	geomMu.Unlock()
	return built
}

func buildGeom(g *lattice.Graph) *meshGeom {
	l := g.Lattice()
	size := l.Size()
	side := size + 2
	geo := &meshGeom{
		d: l.Distance(),
		e: g.ErrorType(),
		m: side,
		n: side * side,
	}
	geo.kind = make([]cellKind, geo.n)
	geo.dataQ = make([]int, geo.n)
	geo.cellOf = make([]int, g.NumChecks())
	for i := range geo.dataQ {
		geo.dataQ[i] = -1
	}
	for lr := 0; lr < size; lr++ {
		for lc := 0; lc < size; lc++ {
			i := geo.index(lr+1, lc+1)
			geo.kind[i] = cellInterior
			s := lattice.Site{Row: lr, Col: lc}
			if l.KindAt(s) == lattice.Data {
				geo.dataQ[i] = l.QubitIndex(s)
			} else if ci, ok := g.CheckIndex(s); ok {
				geo.cellOf[ci] = i
			}
		}
	}
	// Boundary modules sit on the ring, facing the two code edges the
	// decoded error type can terminate on, adjacent to boundary data
	// qubits (even lattice coordinates).
	for x := 0; x < size; x += 2 {
		if g.ErrorType() == lattice.ZErrors {
			geo.kind[geo.index(x+1, 0)] = cellBoundary
			geo.kind[geo.index(x+1, side-1)] = cellBoundary
		} else {
			geo.kind[geo.index(0, x+1)] = cellBoundary
			geo.kind[geo.index(side-1, x+1)] = cellBoundary
		}
	}
	return geo
}

func (geo *meshGeom) index(r, c int) int { return r*geo.m + c }

// neighbor returns the cell index one step in direction d, or -1 when
// the step leaves the mesh.
func (geo *meshGeom) neighbor(i int, d Dir) int {
	dr, dc := d.Delta()
	r, c := i/geo.m+dr, i%geo.m+dc
	if r < 0 || r >= geo.m || c < 0 || c >= geo.m {
		return -1
	}
	return r*geo.m + c
}

// drainDir returns the direction and hop count of cell i's nearest
// boundary edge for the geometry's error type.
func (geo *meshGeom) drainDir(i int) (Dir, int) {
	if geo.e == lattice.ZErrors {
		c := i % geo.m
		if c <= geo.m-1-c {
			return West, c
		}
		return East, geo.m - 1 - c
	}
	r := i / geo.m
	if r <= geo.m-1-r {
		return North, r
	}
	return South, geo.m - 1 - r
}

func clearPlane(p []uint64) {
	for i := range p {
		p[i] = 0
	}
}
