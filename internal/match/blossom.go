// Package match implements exact maximum-weight matching in general
// graphs via the blossom algorithm (Edmonds' primal-dual method in the
// O(n³) formulation), plus a minimum-weight perfect-matching wrapper.
//
// The NISQ+ paper compares its approximate SFQ decoder against the
// minimum-weight perfect-matching (MWPM) surface-code decoder of Fowler
// et al.; this package is that baseline's combinatorial core, built from
// scratch on the standard dual-variable formulation: labels on vertices
// and blossoms, alternating trees grown from free vertices, blossom
// shrinking at odd cycles, and dual adjustments when the trees get stuck.
//
// Matcher takes a flat weight matrix and owns reusable blossom working
// state, so decode loops solve instance after instance without
// allocating. Boundary, the entry point every decoder uses, owns one:
// it states the surface-code matching problem once — n nodes, each
// paired with another or sent to an open boundary — and solves it
// greedily (the paper's §V-B decoder) or exactly (MWPM, on a folded
// instance of n + n%2 nodes). Each user holds its own Boundary: the
// greedy and MWPM decoders one per decodepool scratch, a space-time
// decoder one per simulator, and the rotated code one per Monte-Carlo
// shard.
package match

import "math"

// Infinite is the sentinel slack used during dual adjustment.
const infinite = int64(1) << 60

// graph carries the working state of one matching computation.
// Vertices are 1-indexed; indices above n denote shrunken blossoms.
// The arrays are sized for `slots` vertex slots and reused across
// instances by Matcher; init re-establishes the exact state a freshly
// allocated graph would have, so reuse never changes results.
type graph struct {
	n     int // number of real vertices
	nx    int // current number of vertex slots in use (incl. blossoms)
	slots int // allocated vertex slots (2·n+1 for the largest n seen)

	// The pairwise tables are flat with stride `slots` (w[u*slots+v]):
	// one contiguous array per table keeps the eDelta hot loop free of
	// the pointer chase a [][]T layout would pay on every access.
	w     []int64 // edge weight between real-or-blossom slots
	eu    []int   // real endpoint on u's side of edge (u,v)
	ev    []int   // real endpoint on v's side
	lab   []int64 // dual labels
	match []int   // match[u]: real endpoint matched to u (0 = free)
	slack []int   // slack[x]: real vertex with the tightest edge into x
	st    []int   // st[x]: the top-level blossom containing x
	pa    []int   // pa[x]: parent edge endpoint in the alternating tree
	side  []int8  // side[x]: -1 unvisited, 0 outer, 1 inner
	vis   []int   // visit stamps for LCA search
	visT  int

	flowerFrom []int   // flowerFrom[b*slots+x]: sub-blossom of b containing real x
	flower     [][]int // blossom cycles

	q  []int // BFS queue of real vertices
	qh int   // queue head: q[qh:] is pending (popping must not reslice q)
}

// Matcher owns reusable blossom working state. The zero value is ready
// to use; a Matcher must not be used from two goroutines at once. Its
// tables grow to at least 1.25× their old size when an instance does
// not fit, so a Matcher fed instances of increasing size reallocates
// O(log n) times, and solves that fit the tables allocate nothing.
type Matcher struct {
	g    graph
	mate []int
	flip []int64 // min-weight wrapper's flipped-weight buffer
}

// NewMatcher returns an empty reusable matcher.
func NewMatcher() *Matcher { return &Matcher{} }

// MaxWeight computes a maximum-weight matching of the complete graph on
// n vertices with the given flat symmetric weight matrix: w[u*n+v] is
// the weight between vertices u and v (0-indexed; weights must be
// non-negative, and zero-weight pairs are treated as absent edges). It
// returns mate, where mate[u] is u's partner or -1, and the total
// matched weight. The returned slice is owned by the Matcher and valid
// only until the next solve.
func (m *Matcher) MaxWeight(n int, w []int64) (mate []int, total int64) {
	if cap(m.mate) < n {
		m.mate = make([]int, grown(n, cap(m.mate)))
	}
	mate = m.mate[:n]
	if n == 0 {
		return mate, 0
	}
	g := &m.g
	g.init(n, w)
	for g.phase() {
	}
	for u := 1; u <= n; u++ {
		if g.match[u] != 0 {
			mate[u-1] = g.match[u] - 1
			if g.match[u] < u {
				total += g.w[u*g.slots+g.match[u]] / 2
			}
		} else {
			mate[u-1] = -1
		}
	}
	return mate, total
}

// MinWeightPerfect computes a minimum-weight perfect matching of the
// complete graph on an even number of vertices with the given flat
// weight matrix (see MaxWeight), of which it reads only the upper
// triangle, w[u*n+v] with u < v. It returns mate and the total weight;
// the returned slice is owned by the Matcher and valid only until the
// next solve.
func (m *Matcher) MinWeightPerfect(n int, w []int64) (mate []int, total int64) {
	if n%2 != 0 {
		panic("match: perfect matching requires an even vertex count")
	}
	if n == 0 {
		return m.mate[:0], 0
	}
	var wMax int64
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if x := w[u*n+v]; x > wMax {
				wMax = x
			}
		}
	}
	if cap(m.flip) < n*n {
		m.flip = make([]int64, grownSquare(n, cap(m.flip)))
	}
	flip := m.flip[:n*n]
	// Flip weights so that minimum becomes maximum; the +1 keeps every
	// edge strictly positive, which makes the maximum-weight matching
	// perfect on a complete graph.
	for u := 0; u < n; u++ {
		flip[u*n+u] = 0
		for v := u + 1; v < n; v++ {
			f := wMax - w[u*n+v] + 1
			flip[u*n+v], flip[v*n+u] = f, f
		}
	}
	mate, _ = m.MaxWeight(n, flip)
	for u, v := range mate {
		if v < 0 {
			panic("match: perfect matching not found on complete graph")
		}
		if v > u {
			total += w[u*n+v]
		}
	}
	return mate, total
}

// grown is the size to allocate when a table of size have must hold
// need: at least need, and at least 1.25× have. Doubling instead would
// cost peak memory in every Monte-Carlo shard for little gain.
func grown(need, have int) int { return max(need, have+have/4) }

// grownSquare is grown for an n×n table held in a slice of capacity
// have: the side grows to at least 1.25× the side have holds.
func grownSquare(n, have int) int {
	s := grown(n, int(math.Sqrt(float64(have))))
	return s * s
}

// grow ensures the graph owns at least `slots` vertex slots, allocating
// fresh arrays, at least 1.25× the old slot count, when the previous
// instances were smaller. Blossom cycle buffers carry over.
func (g *graph) grow(slots int) {
	if slots <= g.slots {
		return
	}
	slots = grown(slots, g.slots)
	g.slots = slots
	g.w = make([]int64, slots*slots)
	g.eu = make([]int, slots*slots)
	g.ev = make([]int, slots*slots)
	g.flowerFrom = make([]int, slots*slots)
	g.lab = make([]int64, slots)
	g.match = make([]int, slots)
	g.slack = make([]int, slots)
	g.st = make([]int, slots)
	g.pa = make([]int, slots)
	g.side = make([]int8, slots)
	g.vis = make([]int, slots)
	flower := make([][]int, slots)
	copy(flower, g.flower)
	g.flower = flower
}

// init re-establishes the exact state of a freshly allocated graph for
// an n-vertex instance with flat weights w (w[u*n+v], 0-indexed).
func (g *graph) init(n int, w []int64) {
	slots := 2*n + 1
	g.grow(slots)
	g.n, g.nx = n, n
	g.visT = 0
	// The stride stays g.slots (the high-water size). The pairwise
	// tables need no bulk clearing: the real-vertex region is fully
	// rewritten below, and blossom slots re-initialize their own rows
	// and columns in addBlossom before any read. The one exception is
	// flowerFrom's real rows — only their diagonal is written here, but
	// addBlossom tests arbitrary real cells against zero, so stale
	// entries from a previous (larger) instance must be wiped.
	s := g.slots
	for i := 0; i < slots; i++ {
		g.flower[i] = g.flower[i][:0]
	}
	clear(g.lab[:slots])
	clear(g.match[:slots])
	clear(g.slack[:slots])
	clear(g.st[:slots])
	clear(g.pa[:slots])
	clear(g.side[:slots])
	clear(g.vis[:slots])
	g.q, g.qh = g.q[:0], 0

	var wMax int64
	for u := 1; u <= n; u++ {
		g.st[u] = u
		clear(g.flowerFrom[u*s+1 : u*s+n+1])
		g.flowerFrom[u*s+u] = u
		g.w[u*s+u] = 0
		for v := 1; v <= n; v++ {
			g.eu[u*s+v], g.ev[u*s+v] = u, v
			if u != v {
				// Doubled weights keep every dual adjustment integral.
				g.w[u*s+v] = 2 * w[(u-1)*n+(v-1)]
				if g.w[u*s+v] > wMax {
					wMax = g.w[u*s+v]
				}
			}
		}
	}
	for u := 1; u <= n; u++ {
		g.lab[u] = wMax / 2
	}
}

// eDelta is the dual slack of the edge between real vertices u and v as
// recorded in slot pair (u,v).
func (g *graph) eDelta(u, v int) int64 {
	k := u*g.slots + v
	return g.lab[g.eu[k]] + g.lab[g.ev[k]] - g.w[g.eu[k]*g.slots+g.ev[k]]
}

func (g *graph) updateSlack(u, x int) {
	sx := g.slack[x]
	if sx == 0 {
		g.slack[x] = u
		return
	}
	if x <= g.n {
		// Real slot: eu/ev are the identity (only init writes real-real
		// cells), so both deltas reduce to lab-w with lab[x] cancelling.
		if g.lab[u]-g.w[u*g.slots+x] < g.lab[sx]-g.w[sx*g.slots+x] {
			g.slack[x] = u
		}
		return
	}
	if g.eDelta(u, x) < g.eDelta(sx, x) {
		g.slack[x] = u
	}
}

// slackDelta is eDelta(slack[x], x) with the real-slot shortcut.
func (g *graph) slackDelta(x int) int64 {
	sx := g.slack[x]
	if x <= g.n {
		return g.lab[sx] + g.lab[x] - g.w[sx*g.slots+x]
	}
	return g.eDelta(sx, x)
}

func (g *graph) setSlack(x int) {
	g.slack[x] = 0
	for u := 1; u <= g.n; u++ {
		if g.w[u*g.slots+x] > 0 && g.st[u] != x && g.side[g.st[u]] == 0 {
			g.updateSlack(u, x)
		}
	}
}

func (g *graph) qPush(x int) {
	if x <= g.n {
		g.q = append(g.q, x)
		return
	}
	for _, i := range g.flower[x] {
		g.qPush(i)
	}
}

func (g *graph) setSt(x, b int) {
	g.st[x] = b
	if x > g.n {
		for _, i := range g.flower[x] {
			g.setSt(i, b)
		}
	}
}

// getPr orients blossom b's cycle so that sub-blossom xr sits at an even
// position and returns that position.
func (g *graph) getPr(b, xr int) int {
	pr := 0
	for i, f := range g.flower[b] {
		if f == xr {
			pr = i
			break
		}
	}
	if pr%2 == 1 {
		// Reverse the cycle (keeping the base fixed) to make pr even.
		fl := g.flower[b]
		reverse(fl[1:])
		return len(fl) - pr
	}
	return pr
}

// reverse flips a slice segment in place.
func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// setMatch matches slot u across the edge recorded at (u,v), recursing
// into blossoms.
func (g *graph) setMatch(u, v int) {
	k := u*g.slots + v
	g.match[u] = g.ev[k]
	if u <= g.n {
		return
	}
	xr := g.flowerFrom[u*g.slots+g.eu[k]]
	pr := g.getPr(u, xr)
	for i := 0; i < pr; i++ {
		g.setMatch(g.flower[u][i], g.flower[u][i^1])
	}
	g.setMatch(xr, v)
	// Rotate in place so the newly matched sub-blossom becomes the base:
	// the cycle fl[pr:] + fl[:pr] via three reversals.
	fl := g.flower[u]
	reverse(fl[:pr])
	reverse(fl[pr:])
	reverse(fl)
}

func (g *graph) augment(u, v int) {
	for {
		xnv := g.st[g.match[u]]
		g.setMatch(u, v)
		if xnv == 0 {
			return
		}
		g.setMatch(xnv, g.st[g.pa[xnv]])
		u, v = g.st[g.pa[xnv]], xnv
	}
}

func (g *graph) getLCA(u, v int) int {
	g.visT++
	for u != 0 || v != 0 {
		if u != 0 {
			if g.vis[u] == g.visT {
				return u
			}
			g.vis[u] = g.visT
			u = g.st[g.match[u]]
			if u != 0 {
				u = g.st[g.pa[u]]
			}
		}
		u, v = v, u
	}
	return 0
}

func (g *graph) addBlossom(u, lca, v int) {
	b := g.n + 1
	for b <= g.nx && g.st[b] != 0 {
		b++
	}
	if b > g.nx {
		g.nx++
	}
	g.lab[b] = 0
	g.side[b] = 0
	g.match[b] = g.match[lca]
	g.flower[b] = g.flower[b][:0]
	g.flower[b] = append(g.flower[b], lca)
	for x := u; x != lca; {
		g.flower[b] = append(g.flower[b], x)
		y := g.st[g.match[x]]
		g.flower[b] = append(g.flower[b], y)
		g.qPush(y)
		x = g.st[g.pa[y]]
	}
	// Reverse everything after the base so the two arms are ordered
	// consistently around the cycle.
	reverse(g.flower[b][1:])
	for x := v; x != lca; {
		g.flower[b] = append(g.flower[b], x)
		y := g.st[g.match[x]]
		g.flower[b] = append(g.flower[b], y)
		g.qPush(y)
		x = g.st[g.pa[y]]
	}
	g.setSt(b, b)
	s := g.slots
	for x := 1; x <= g.nx; x++ {
		g.w[b*s+x], g.w[x*s+b] = 0, 0
	}
	for x := 1; x <= g.n; x++ {
		g.flowerFrom[b*s+x] = 0
	}
	for _, xs := range g.flower[b] {
		for x := 1; x <= g.nx; x++ {
			if g.w[b*s+x] == 0 || g.eDelta(xs, x) < g.eDelta(b, x) {
				g.eu[b*s+x], g.ev[b*s+x], g.w[b*s+x] = g.eu[xs*s+x], g.ev[xs*s+x], g.w[xs*s+x]
				g.eu[x*s+b], g.ev[x*s+b], g.w[x*s+b] = g.eu[x*s+xs], g.ev[x*s+xs], g.w[x*s+xs]
			}
		}
		for x := 1; x <= g.n; x++ {
			if g.flowerFrom[xs*s+x] != 0 {
				g.flowerFrom[b*s+x] = xs
			}
		}
	}
	g.setSlack(b)
}

func (g *graph) expandBlossom(b int) {
	for _, i := range g.flower[b] {
		g.setSt(i, i)
	}
	xr := g.flowerFrom[b*g.slots+g.eu[b*g.slots+g.pa[b]]]
	pr := g.getPr(b, xr)
	for i := 0; i < pr; i += 2 {
		xs := g.flower[b][i]
		xns := g.flower[b][i+1]
		g.pa[xs] = g.eu[xns*g.slots+xs]
		g.side[xs], g.side[xns] = 1, 0
		g.slack[xs] = 0
		g.setSlack(xns)
		g.qPush(xns)
	}
	g.side[xr] = 1
	g.pa[xr] = g.pa[b]
	for i := pr + 1; i < len(g.flower[b]); i++ {
		xs := g.flower[b][i]
		g.side[xs] = -1
		g.setSlack(xs)
	}
	g.st[b] = 0
}

// onFoundEdge processes a tight edge between real endpoints (u0, v0); it
// reports whether an augmenting path was found and applied.
func (g *graph) onFoundEdge(u0, v0 int) bool {
	u, v := g.st[u0], g.st[v0]
	switch g.side[v] {
	case -1:
		g.pa[v] = u0
		g.side[v] = 1
		nu := g.st[g.match[v]]
		g.slack[v], g.slack[nu] = 0, 0
		g.side[nu] = 0
		g.qPush(nu)
	case 0:
		lca := g.getLCA(u, v)
		if lca == 0 {
			g.augment(u, v)
			g.augment(v, u)
			return true
		}
		g.addBlossom(u, lca, v)
	}
	return false
}

// phase runs one augmentation phase; it reports whether a new matched
// edge was added (false means the matching is maximum).
func (g *graph) phase() bool {
	for x := 1; x <= g.nx; x++ {
		g.side[x] = -1
		g.slack[x] = 0
	}
	g.q, g.qh = g.q[:0], 0
	for x := 1; x <= g.nx; x++ {
		if g.st[x] == x && g.match[x] == 0 {
			g.pa[x] = 0
			g.side[x] = 0
			g.qPush(x)
		}
	}
	if len(g.q) == 0 {
		return false
	}
	for {
		for g.qh < len(g.q) {
			u := g.q[g.qh]
			g.qh++
			if g.side[g.st[u]] == 1 {
				continue
			}
			// Real-real cells keep eu=u, ev=v forever (only init writes
			// them), so eDelta reduces to lab[u]+lab[v]-w here — the
			// indirection-free form keeps this O(n³) core scan cheap.
			row := g.w[u*g.slots : u*g.slots+g.n+1]
			labU := g.lab[u]
			for v := 1; v <= g.n; v++ {
				if row[v] > 0 && g.st[u] != g.st[v] {
					if labU+g.lab[v]-row[v] == 0 {
						if g.onFoundEdge(u, v) {
							return true
						}
					} else {
						g.updateSlack(u, g.st[v])
					}
				}
			}
		}
		d := infinite
		for b := g.n + 1; b <= g.nx; b++ {
			if g.st[b] == b && g.side[b] == 1 {
				if g.lab[b]/2 < d {
					d = g.lab[b] / 2
				}
			}
		}
		for x := 1; x <= g.nx; x++ {
			if g.st[x] == x && g.slack[x] != 0 {
				switch g.side[x] {
				case -1:
					if del := g.slackDelta(x); del < d {
						d = del
					}
				case 0:
					if del := g.slackDelta(x) / 2; del < d {
						d = del
					}
				}
			}
		}
		for u := 1; u <= g.n; u++ {
			switch g.side[g.st[u]] {
			case 0:
				if g.lab[u] <= d {
					return false
				}
				g.lab[u] -= d
			case 1:
				g.lab[u] += d
			}
		}
		for b := g.n + 1; b <= g.nx; b++ {
			if g.st[b] == b {
				switch g.side[b] {
				case 0:
					g.lab[b] += 2 * d
				case 1:
					g.lab[b] -= 2 * d
				}
			}
		}
		g.q, g.qh = g.q[:0], 0
		for x := 1; x <= g.nx; x++ {
			if g.st[x] == x && g.slack[x] != 0 && g.st[g.slack[x]] != x && g.slackDelta(x) == 0 {
				if g.onFoundEdge(g.slack[x], x) {
					return true
				}
			}
		}
		for b := g.n + 1; b <= g.nx; b++ {
			if g.st[b] == b && g.side[b] == 1 && g.lab[b] == 0 {
				g.expandBlossom(b)
			}
		}
	}
}
