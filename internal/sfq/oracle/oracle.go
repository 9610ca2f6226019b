// Package oracle is the reference model of the SFQ decoder mesh: the
// original struct-of-bools kernel, stepping one cell and one direction
// at a time with none of the production kernel's bit packing, lane
// layout or event-driven scheduling, and with its own copy of the mesh
// geometry. It exists to be compared against: the conformance suite
// and fuzzer in internal/sfq require sfq.Mesh and sfq.BatchMesh to
// reproduce its corrections and Stats bit for bit, and BenchmarkSFQMesh
// and cmd/bench time it as the reference row. Production code never
// imports it.
package oracle

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/sfq"
)

type cellKind uint8

const (
	cellInert    cellKind = iota // ring position with no boundary role
	cellInterior                 // one module per physical qubit
	cellBoundary                 // boundary module facing the code edge
)

var dirs = [4]sfq.Dir{sfq.North, sfq.East, sfq.South, sfq.West}

// Mesh is the reference decoder mesh bound to one matching graph. It is
// reusable across decodes but not safe for concurrent use.
type Mesh struct {
	g       *lattice.Graph
	variant sfq.Variant
	m       int // mesh side
	kind    []cellKind
	dataQ   []int // interior data cells -> qubit index, else -1
	cellOf  []int // check index -> cell index

	// MaxCycles bounds one decode, as sfq.Mesh.MaxCycles does.
	MaxCycles int

	maxRetries int

	// Module state.
	hot      []bool
	growFrom [][4]bool
	fired    []bool
	reqDirs  [][4]bool
	grants   [][4]bool
	sentPair []bool
	granted  []bool
	errOut   []bool

	grow, req, grant, pair     [][4]bool // signals in flight, by direction of travel
	growN, reqN, grantN, pairN [][4]bool // next-cycle buffers
	pairB, pairBN              [][4]bool // provenance: pair signal originated at a boundary module

	reqArrived [][4]bool     // scratch: request arrivals at hot modules this cycle
	growArr    []growArrival // scratch: grow arrivals, reused across cycles
	reqArrAt   []int         // scratch: cells with request arrivals, reused

	hotCount       int
	resetCountdown int
	priorityOffset int
	stats          sfq.Stats
}

type growArrival struct {
	n int
	d sfq.Dir
}

// New builds a reference mesh for the matching graph with the given
// design variant.
func New(g *lattice.Graph, v sfq.Variant) *Mesh {
	l := g.Lattice()
	size := l.Size()
	side := size + 2
	n := side * side
	m := &Mesh{
		g:          g,
		variant:    v,
		m:          side,
		kind:       make([]cellKind, n),
		dataQ:      make([]int, n),
		cellOf:     make([]int, g.NumChecks()),
		MaxCycles:  200 * side,
		maxRetries: 3,
	}
	for i := range m.dataQ {
		m.dataQ[i] = -1
	}
	for lr := 0; lr < size; lr++ {
		for lc := 0; lc < size; lc++ {
			i := (lr+1)*side + lc + 1
			m.kind[i] = cellInterior
			s := lattice.Site{Row: lr, Col: lc}
			if l.KindAt(s) == lattice.Data {
				m.dataQ[i] = l.QubitIndex(s)
			} else if ci, ok := g.CheckIndex(s); ok {
				m.cellOf[ci] = i
			}
		}
	}
	// Boundary modules sit on the ring, facing the two code edges the
	// decoded error type can terminate on, next to boundary data qubits.
	for x := 0; x < size; x += 2 {
		if g.ErrorType() == lattice.ZErrors {
			m.kind[(x+1)*side] = cellBoundary
			m.kind[(x+1)*side+side-1] = cellBoundary
		} else {
			m.kind[x+1] = cellBoundary
			m.kind[(side-1)*side+x+1] = cellBoundary
		}
	}
	m.hot = make([]bool, n)
	m.growFrom = make([][4]bool, n)
	m.fired = make([]bool, n)
	m.reqDirs = make([][4]bool, n)
	m.grants = make([][4]bool, n)
	m.sentPair = make([]bool, n)
	m.granted = make([]bool, n)
	m.errOut = make([]bool, n)
	m.grow = make([][4]bool, n)
	m.req = make([][4]bool, n)
	m.grant = make([][4]bool, n)
	m.pair = make([][4]bool, n)
	m.growN = make([][4]bool, n)
	m.reqN = make([][4]bool, n)
	m.grantN = make([][4]bool, n)
	m.pairN = make([][4]bool, n)
	m.pairB = make([][4]bool, n)
	m.pairBN = make([][4]bool, n)
	m.reqArrived = make([][4]bool, n)
	return m
}

// Decode runs the mesh on the syndrome, appends the corrected qubit
// indices to q in ascending cell order, and returns the decode's Stats.
func (m *Mesh) Decode(syn []bool, q []int) ([]int, sfq.Stats, error) {
	if len(syn) != m.g.NumChecks() {
		return q, sfq.Stats{}, fmt.Errorf("oracle: syndrome has %d checks, graph has %d", len(syn), m.g.NumChecks())
	}
	m.reset()
	for ci, h := range syn {
		if h {
			m.hot[m.cellOf[ci]] = true
			m.hotCount++
		}
	}
	if m.hotCount == 0 {
		return q, m.stats, nil
	}
	for i, h := range m.hot {
		if h {
			m.grow[i] = [4]bool{true, true, true, true}
		}
	}
	retries := 0
	for {
		if m.hotCount == 0 && !anySignal(m.pair) && m.resetCountdown == 0 {
			break // every syndrome paired and every chain fully marked
		}
		if m.resetCountdown == 0 && m.quiescent() {
			// Stalled with hot modules left: recover with a global
			// reset and a rotated grant priority, or give up.
			m.stats.Stalls++
			if m.variant.Reset && retries < m.maxRetries {
				retries++
				m.stats.Retries++
				m.priorityOffset = retries
				m.globalReset()
			} else if m.variant.Boundary {
				// Watchdog: drive every remaining hot module's chain
				// straight to its nearest boundary. The drained modules
				// still count as Unresolved: the protocol failed on them.
				m.stats.Unresolved = m.hotCount
				m.drainToBoundary()
				break
			} else {
				m.stats.Unresolved = m.hotCount
				break
			}
		}
		if m.stats.Cycles >= m.MaxCycles {
			m.stats.Unresolved = m.hotCount
			if m.variant.Boundary {
				m.drainToBoundary()
			}
			break
		}
		m.step()
	}
	for i, e := range m.errOut {
		if e && m.dataQ[i] >= 0 {
			q = append(q, m.dataQ[i])
		}
	}
	return q, m.stats, nil
}

// neighbor returns the cell index one step in direction d, or -1 when
// the step leaves the mesh.
func (m *Mesh) neighbor(i int, d sfq.Dir) int {
	dr, dc := d.Delta()
	r, c := i/m.m+dr, i%m.m+dc
	if r < 0 || r >= m.m || c < 0 || c >= m.m {
		return -1
	}
	return r*m.m + c
}

// reset clears all per-decode state.
func (m *Mesh) reset() {
	for i := range m.hot {
		m.hot[i] = false
		m.growFrom[i] = [4]bool{}
		m.fired[i] = false
		m.reqDirs[i] = [4]bool{}
		m.grants[i] = [4]bool{}
		m.sentPair[i] = false
		m.granted[i] = false
		m.errOut[i] = false
		m.grow[i] = [4]bool{}
		m.req[i] = [4]bool{}
		m.grant[i] = [4]bool{}
		m.pair[i] = [4]bool{}
		m.pairB[i] = [4]bool{}
	}
	m.hotCount = 0
	m.resetCountdown = 0
	m.priorityOffset = 0
	m.stats = sfq.Stats{}
}

func anySignal(buf [][4]bool) bool {
	for i := range buf {
		if buf[i] != ([4]bool{}) {
			return true
		}
	}
	return false
}

// quiescent reports whether no signal of any kind is in flight.
func (m *Mesh) quiescent() bool {
	return !anySignal(m.grow) && !anySignal(m.req) &&
		!anySignal(m.grant) && !anySignal(m.pair)
}

// globalReset implements the §VI-A reset: every subcircuit except pair
// propagation is cleared and module inputs are blocked for
// sfq.ResetDepth cycles.
func (m *Mesh) globalReset() {
	for i := range m.hot {
		m.growFrom[i] = [4]bool{}
		m.fired[i] = false
		m.reqDirs[i] = [4]bool{}
		m.grants[i] = [4]bool{}
		m.sentPair[i] = false
		m.granted[i] = false
		m.grow[i] = [4]bool{}
		m.req[i] = [4]bool{}
		m.grant[i] = [4]bool{}
		// pair and errOut survive by design.
	}
	m.resetCountdown = sfq.ResetDepth
}

// step advances the mesh one clock.
func (m *Mesh) step() {
	clearBuf(m.growN)
	clearBuf(m.reqN)
	clearBuf(m.grantN)
	clearBuf(m.pairN)
	clearBuf(m.pairBN)

	pairingDone := false
	if m.resetCountdown > 0 {
		// Inputs blocked: only pair signals propagate.
		pairingDone = m.movePairs()
		m.resetCountdown--
		if m.resetCountdown == 0 {
			// Blocking over; surviving hot modules grow again.
			for i, h := range m.hot {
				if h {
					m.growN[i] = [4]bool{true, true, true, true}
				}
			}
		}
	} else {
		m.moveGrows()
		m.moveReqs()
		m.moveGrants()
		pairingDone = m.movePairs()
		m.fireIntermediates()
		m.completeHandshakes()
	}

	m.grow, m.growN = m.growN, m.grow
	m.req, m.reqN = m.reqN, m.req
	m.grant, m.grantN = m.grantN, m.grant
	m.pair, m.pairN = m.pairN, m.pair
	m.pairB, m.pairBN = m.pairBN, m.pairB
	m.stats.Cycles++

	if pairingDone && m.variant.Reset {
		m.globalReset()
		m.stats.Resets++
	}
}

func clearBuf(buf [][4]bool) {
	for i := range buf {
		buf[i] = [4]bool{}
	}
}

// moveGrows advances grow wavefronts one module and latches arrivals.
// Opposing wavefronts annihilate where they meet: a grow signal does not
// continue into territory an opposite-direction grow has already swept,
// so the meeting module is the unique intermediate on the line.
func (m *Mesh) moveGrows() {
	arrivals := m.growArr[:0]
	for i := range m.grow {
		for _, d := range dirs {
			if !m.grow[i][d] {
				continue
			}
			n := m.neighbor(i, d)
			if n < 0 {
				continue
			}
			entry := d.Opposite()
			switch m.kind[n] {
			case cellInterior:
				m.growFrom[n][entry] = true
				arrivals = append(arrivals, growArrival{n, d})
			case cellBoundary:
				if m.variant.Boundary && !m.fired[n] {
					m.fired[n] = true
					m.reqDirs[n][entry] = true
					if m.variant.ReqGrant {
						m.reqN[n][entry] = true
					} else {
						m.sentPair[n] = true
						m.pairN[n][entry] = true
						m.pairBN[n][entry] = true
					}
				}
			}
		}
	}
	// Propagation is decided after every arrival has latched, so
	// head-on meetings stop both fronts symmetrically.
	for _, a := range arrivals {
		if !m.growFrom[a.n][a.d] {
			m.growN[a.n][a.d] = true
		}
	}
	m.growArr = arrivals
}

// moveReqs advances pair requests; requests stop at hot modules, which
// grant at most one.
func (m *Mesh) moveReqs() {
	arrivedAt := m.reqArrAt[:0]
	for i := range m.req {
		for _, d := range dirs {
			if !m.req[i][d] {
				continue
			}
			n := m.neighbor(i, d)
			if n < 0 || m.kind[n] != cellInterior {
				continue
			}
			entry := d.Opposite()
			if m.hot[n] {
				if !m.reqArrived[n][entry] {
					m.reqArrived[n][entry] = true
					arrivedAt = append(arrivedAt, n)
				}
			} else {
				m.reqN[n][d] = true
			}
		}
	}
	// Grant policy: one grant per hot module, direction chosen by a
	// fixed priority; stall retries rotate it per module so symmetric
	// grant cycles cannot repeat verbatim.
	for _, n := range arrivedAt {
		if m.granted[n] || !m.hot[n] {
			m.reqArrived[n] = [4]bool{}
			continue
		}
		prio := [4]sfq.Dir{sfq.North, sfq.West, sfq.East, sfq.South}
		off := 0
		if m.priorityOffset > 0 {
			off = (m.priorityOffset + n) % 4
		}
		for k := 0; k < 4; k++ {
			d := prio[(k+off)%4]
			if m.reqArrived[n][d] {
				m.granted[n] = true
				m.grantN[n][d] = true
				break
			}
		}
		m.reqArrived[n] = [4]bool{}
	}
	m.reqArrAt = arrivedAt
}

// moveGrants advances pair grants; a grant is consumed by the first
// module that requested along its line (the intermediate, or a boundary
// module).
func (m *Mesh) moveGrants() {
	for i := range m.grant {
		for _, d := range dirs {
			if !m.grant[i][d] {
				continue
			}
			n := m.neighbor(i, d)
			if n < 0 {
				continue
			}
			entry := d.Opposite()
			switch m.kind[n] {
			case cellInterior:
				if m.fired[n] && m.reqDirs[n][entry] && !m.grants[n][entry] {
					m.grants[n][entry] = true
				} else {
					m.grantN[n][d] = true
				}
			case cellBoundary:
				if m.fired[n] && m.reqDirs[n][entry] && !m.sentPair[n] {
					m.sentPair[n] = true
					m.pairN[n][entry] = true
					m.pairBN[n][entry] = true
				}
			}
		}
	}
}

// movePairs advances pair signals, toggling the error output of every
// module they reach; a pair signal terminates at a hot module, clearing
// it. It reports whether any pairing completed this cycle.
func (m *Mesh) movePairs() bool {
	done := false
	for i := range m.pair {
		for _, d := range dirs {
			if !m.pair[i][d] {
				continue
			}
			n := m.neighbor(i, d)
			if n < 0 || m.kind[n] != cellInterior {
				continue
			}
			m.errOut[n] = !m.errOut[n]
			if m.hot[n] {
				m.hot[n] = false
				m.hotCount--
				m.stats.Pairings++
				if m.pairB[i][d] {
					m.stats.BoundaryPairings++
				}
				done = true
			} else {
				m.pairN[n][d] = true
				m.pairBN[n][d] = m.pairB[i][d]
			}
		}
	}
	return done
}

// fireIntermediates turns modules holding grow signals from two distinct
// directions into intermediates. Head-on meetings always fire, and of
// the two corner candidates of an L-shaped meeting only the one whose
// grows arrived from the north fires.
func (m *Mesh) fireIntermediates() {
	for i := range m.growFrom {
		if m.kind[i] != cellInterior || m.fired[i] || m.hot[i] {
			continue
		}
		gf := m.growFrom[i]
		var a, b sfq.Dir
		switch {
		case gf[sfq.West] && gf[sfq.East]:
			a, b = sfq.West, sfq.East
		case gf[sfq.North] && gf[sfq.South]:
			a, b = sfq.North, sfq.South
		case gf[sfq.North] && gf[sfq.West]:
			a, b = sfq.North, sfq.West
		case gf[sfq.North] && gf[sfq.East]:
			a, b = sfq.North, sfq.East
		default:
			continue
		}
		m.fired[i] = true
		m.reqDirs[i][a] = true
		m.reqDirs[i][b] = true
		if m.variant.ReqGrant {
			m.reqN[i][a] = true
			m.reqN[i][b] = true
		} else {
			m.sentPair[i] = true
			m.errOut[i] = !m.errOut[i]
			m.pairN[i][a] = true
			m.pairN[i][b] = true
		}
	}
}

// completeHandshakes lets intermediates holding grants from both request
// directions emit their pair signals.
func (m *Mesh) completeHandshakes() {
	if !m.variant.ReqGrant {
		return
	}
	for i := range m.fired {
		if !m.fired[i] || m.sentPair[i] || m.kind[i] != cellInterior {
			continue
		}
		all := true
		for _, d := range dirs {
			if m.reqDirs[i][d] && !m.grants[i][d] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		m.sentPair[i] = true
		m.errOut[i] = !m.errOut[i]
		for _, d := range dirs {
			if m.reqDirs[i][d] {
				m.pairN[i][d] = true
			}
		}
	}
}

// drainToBoundary force-pairs every remaining hot module with its
// nearest boundary, toggling the error outputs along the straight-line
// chain and charging the cycles the drive would take (request, grant and
// pair traversals plus a reset per pairing).
func (m *Mesh) drainToBoundary() {
	for i, h := range m.hot {
		if !h {
			continue
		}
		d, hops := m.drainDir(i)
		for j := m.neighbor(i, d); j >= 0 && m.kind[j] == cellInterior; j = m.neighbor(j, d) {
			m.errOut[j] = !m.errOut[j]
		}
		m.hot[i] = false
		m.hotCount--
		m.stats.Fallbacks++
		m.stats.Pairings++
		m.stats.BoundaryPairings++
		m.stats.Cycles += 3*hops + sfq.ResetDepth
	}
}

// drainDir returns the direction and hop count of cell i's nearest
// boundary edge for the mesh's error type.
func (m *Mesh) drainDir(i int) (sfq.Dir, int) {
	if m.g.ErrorType() == lattice.ZErrors {
		c := i % m.m
		if c <= m.m-1-c {
			return sfq.West, c
		}
		return sfq.East, m.m - 1 - c
	}
	r := i / m.m
	if r <= m.m-1-r {
		return sfq.North, r
	}
	return sfq.South, m.m - 1 - r
}
