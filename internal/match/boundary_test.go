package match

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// boundaryInstance is a test-side boundary matching instance: w[i][j]
// pair weights (i < j read), b[i] boundary weights.
type boundaryInstance struct {
	w [][]int64
	b []int64
}

func randBoundaryInstance(rng *rand.Rand, n int, maxW int64) boundaryInstance {
	in := boundaryInstance{w: randWeights(rng, n, maxW), b: make([]int64, n)}
	for i := range in.b {
		in.b[i] = rng.Int63n(maxW)
	}
	return in
}

// load writes the instance into bm.
func (in boundaryInstance) load(bm *Boundary) {
	n := len(in.b)
	bm.Reset(n)
	for i := 0; i < n; i++ {
		bm.SetBoundary(i, int(in.b[i]))
		for j := i + 1; j < n; j++ {
			bm.SetPair(i, j, int(in.w[i][j]))
		}
	}
}

// sortGreedy is the greedy oracle: every candidate edge in one slice,
// ordered by a sort.Slice comparator (ascending weight, pair edges
// before boundary edges, then ascending (i, j)), accepted while both
// endpoints are free.
func sortGreedy(in boundaryInstance) (pairs [][2]int32, bnd []int32) {
	type cand struct{ w, i, j int64 } // j == -1: boundary edge
	n := len(in.b)
	var cands []cand
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cands = append(cands, cand{in.w[i][j], int64(i), int64(j)})
		}
		cands = append(cands, cand{in.b[i], int64(i), -1})
	}
	sort.Slice(cands, func(x, y int) bool {
		if cands[x].w != cands[y].w {
			return cands[x].w < cands[y].w
		}
		if (cands[x].j == -1) != (cands[y].j == -1) {
			return cands[y].j == -1
		}
		if cands[x].i != cands[y].i {
			return cands[x].i < cands[y].i
		}
		return cands[x].j < cands[y].j
	})
	matched := make([]bool, n)
	for _, c := range cands {
		if matched[c.i] || (c.j >= 0 && matched[c.j]) {
			continue
		}
		matched[c.i] = true
		if c.j < 0 {
			bnd = append(bnd, int32(c.i))
			continue
		}
		matched[c.j] = true
		pairs = append(pairs, [2]int32{int32(c.i), int32(c.j)})
	}
	return pairs, bnd
}

// twinOptimum is the exact oracle: the classic construction in which
// node u has a boundary twin n+u, every node reaches every twin at its
// own boundary weight and twins pair with each other at zero, solved by
// MinWeightPerfect on 2n nodes. It returns the optimal total weight.
func twinOptimum(in boundaryInstance) int64 {
	n := len(in.b)
	if n == 0 {
		return 0
	}
	m := 2 * n
	w := make([]int64, m*m)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			w[u*m+v] = in.w[u][v]
			w[u*m+n+v], w[(n+v)*m+u] = in.b[u], in.b[u]
		}
	}
	_, total := NewMatcher().MinWeightPerfect(m, w)
	return total
}

// checkBoundary solves in on bm with both methods and checks Greedy
// against sortGreedy exactly, and Exact for a valid matching (every
// node covered once, no pair heavier than sending both its nodes to
// the boundary) whose total reaches twinOptimum.
func checkBoundary(t *testing.T, bm *Boundary, in boundaryInstance) {
	t.Helper()
	n := len(in.b)
	in.load(bm)
	gotP, gotB := bm.Greedy()
	wantP, wantB := sortGreedy(in)
	if !slices.Equal(gotP, wantP) || !slices.Equal(gotB, wantB) {
		t.Fatalf("n=%d: Greedy = %v, %v; sort oracle = %v, %v", n, gotP, gotB, wantP, wantB)
	}
	pairs, bnd := bm.Exact()
	seen := make([]int, n)
	var total int64
	for _, p := range pairs {
		seen[p[0]]++
		seen[p[1]]++
		total += in.w[p[0]][p[1]]
		if in.w[p[0]][p[1]] > in.b[p[0]]+in.b[p[1]] {
			t.Fatalf("n=%d: pair %v is heavier than its boundary matches", n, p)
		}
	}
	for _, u := range bnd {
		seen[u]++
		total += in.b[u]
	}
	for u, c := range seen {
		if c != 1 {
			t.Fatalf("n=%d: node %d covered %d times (pairs %v, boundary %v)", n, u, c, pairs, bnd)
		}
	}
	if want := twinOptimum(in); total != want {
		t.Fatalf("n=%d: Exact total %d, twin construction optimum %d", n, total, want)
	}
}

// Random instances with a narrow weight range, so equal-weight
// candidates and tied optima are common, through one reused Boundary.
func TestBoundaryMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var bm Boundary
	for trial := 0; trial < 600; trial++ {
		n := rng.Intn(13)
		checkBoundary(t, &bm, randBoundaryInstance(rng, n, 1+int64(trial%9)))
	}
}
