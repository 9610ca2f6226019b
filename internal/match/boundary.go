package match

// Boundary matches n nodes with open boundaries: each node pairs with
// another or goes to the boundary. It is the one matching step of every
// decoder here — greedy and MWPM, in space and in space-time. Callers
// Reset it for n nodes, set every pair and boundary weight (non-negative
// distances), and solve with Greedy or Exact. The zero value is ready to
// use; it is not safe for concurrent use, and solves that fit its tables
// allocate nothing.
type Boundary struct {
	n, m int // nodes, and the exact instance's size n + n%2
	// w is m×m: pair weights below the diagonal (w[j*m+i], i < j) and,
	// once Exact has run, its folded instance above it, the only part
	// MinWeightPerfect reads.
	w     []int64
	b     []int64 // b[i]: boundary weights
	pairs [][2]int32
	bnd   []int32

	// Greedy's candidates, sort permutation and buckets, matched flags.
	edges   []edge
	idx     []int32
	counts  []int32
	matched []bool

	matcher Matcher // Exact's blossom matcher
}

// edge is a greedy candidate, j == -1 marking i's boundary edge. Its
// sort key orders candidates by ascending weight w, pair edges before
// boundary edges of equal weight: 2w for a pair, 2w+1 for a boundary.
type edge struct{ key, i, j int32 }

// Reset sizes the tables for an n-node instance. Every pair i < j and
// every node's boundary weight must then be set before a solve.
func (bm *Boundary) Reset(n int) {
	bm.n, bm.m = n, n+n%2
	if cap(bm.w) < bm.m*bm.m {
		bm.w = make([]int64, grownSquare(bm.m, cap(bm.w)))
	}
	if cap(bm.b) < n {
		bm.b = make([]int64, grown(n, cap(bm.b)))
	}
}

// SetPair sets the weight of pairing nodes i < j.
func (bm *Boundary) SetPair(i, j, w int) { bm.w[j*bm.m+i] = int64(w) }

// SetBoundary sets the weight of sending node i to the boundary.
func (bm *Boundary) SetBoundary(i, w int) { bm.b[i] = int64(w) }

// Greedy is the paper's greedy matching (§V-B): candidates are taken
// in ascending weight while their endpoints are unmatched, and the
// boundary never saturates. On equal weight a pair edge comes first
// (one pairing clears two nodes for the price one boundary match pays
// to clear one), then the lower (i, j). A stable counting sort on
// edge.key gives that order, since edges are generated in ascending
// (i, j). It returns the pairs and boundary-matched nodes in acceptance
// order, valid until the next solve.
func (bm *Boundary) Greedy() (pairs [][2]int32, bnd []int32) {
	n, m := bm.n, bm.m
	w, b := bm.w[:m*m], bm.b[:n]
	edges := bm.edges[:0]
	maxKey := int32(0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k := 2 * int32(w[j*m+i])
			maxKey = max(maxKey, k)
			edges = append(edges, edge{k, int32(i), int32(j)})
		}
		k := 2*int32(b[i]) + 1
		maxKey = max(maxKey, k)
		edges = append(edges, edge{k, int32(i), -1})
	}
	bm.edges = edges

	if cap(bm.counts) <= int(maxKey) {
		bm.counts = make([]int32, grown(int(maxKey)+1, cap(bm.counts)))
	}
	counts := bm.counts[:maxKey+1]
	clear(counts)
	for _, e := range edges {
		counts[e.key]++
	}
	var sum int32
	for k := range counts {
		counts[k], sum = sum, sum+counts[k]
	}
	if cap(bm.idx) < len(edges) {
		bm.idx = make([]int32, grown(len(edges), cap(bm.idx)))
	}
	idx := bm.idx[:len(edges)]
	for k, e := range edges {
		idx[counts[e.key]] = int32(k)
		counts[e.key]++
	}

	if cap(bm.matched) < n {
		bm.matched = make([]bool, grown(n, cap(bm.matched)))
	}
	matched := bm.matched[:n]
	clear(matched)
	pairs, bnd = bm.pairs[:0], bm.bnd[:0]
	// Every node is matched once the accepted edges cover n nodes; the
	// rest of the candidates cannot be accepted.
	for left, x := n, 0; left > 0; x++ {
		e := edges[idx[x]]
		switch {
		case matched[e.i]:
		case e.j < 0:
			matched[e.i] = true
			bnd = append(bnd, e.i)
			left--
		case !matched[e.j]:
			matched[e.i], matched[e.j] = true, true
			pairs = append(pairs, [2]int32{e.i, e.j})
			left -= 2
		}
	}
	bm.pairs, bm.bnd = pairs, bnd
	return pairs, bnd
}

// Exact is the minimum-weight matching, by the blossom algorithm on a
// folded instance instead of the classic one that gives every node a
// boundary twin: i and j are joined at min(w(i,j), b(i)+b(j)), pairing
// directly or sending both to the boundary, and for odd n one extra
// node joined to each i at b(i) takes the leftover. Any twin matching
// maps to a folded one of equal weight, so the optimum is the same on
// n + n%2 nodes instead of 2n (8x less O(n³) work). A folded pair splits
// into two boundary matches only when that is strictly lighter. It
// returns the pairs by ascending lower node and the boundary-matched
// nodes in ascending order (a split pair at its lower node's place),
// valid until the next solve.
func (bm *Boundary) Exact() (pairs [][2]int32, bnd []int32) {
	n, m := bm.n, bm.m
	pairs, bnd = bm.pairs[:0], bm.bnd[:0]
	if n == 0 {
		return pairs, bnd
	}
	w, b := bm.w[:m*m], bm.b[:n]
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			w[u*m+v] = min(w[v*m+u], b[u]+b[v])
		}
		if m > n {
			w[u*m+n] = b[u]
		}
	}
	mate, _ := bm.matcher.MinWeightPerfect(m, w)
	for u := 0; u < n; u++ {
		switch v := mate[u]; {
		case v >= n:
			bnd = append(bnd, int32(u))
		case v < u:
		case w[v*m+u] <= b[u]+b[v]:
			pairs = append(pairs, [2]int32{int32(u), int32(v)})
		default:
			bnd = append(bnd, int32(u), int32(v))
		}
	}
	bm.pairs, bm.bnd = pairs, bnd
	return pairs, bnd
}
