package match

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bruteMaxMatching returns the maximum total weight over all matchings
// (not necessarily perfect) of the complete graph with the given weights,
// treating zero-weight pairs as absent edges.
func bruteMaxMatching(n int, w [][]int64) int64 {
	used := make([]bool, n)
	var rec func(u int) int64
	rec = func(u int) int64 {
		for u < n && used[u] {
			u++
		}
		if u >= n {
			return 0
		}
		used[u] = true
		best := rec(u + 1) // leave u unmatched
		for v := u + 1; v < n; v++ {
			if used[v] || w[u][v] == 0 {
				continue
			}
			used[v] = true
			if got := w[u][v] + rec(u+1); got > best {
				best = got
			}
			used[v] = false
		}
		used[u] = false
		return best
	}
	return rec(0)
}

// bruteMinPerfect returns the minimum total weight over all perfect
// matchings via bitmask DP.
func bruteMinPerfect(n int, w [][]int64) int64 {
	const inf = int64(1) << 60
	dp := make([]int64, 1<<uint(n))
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0
	for mask := 0; mask < 1<<uint(n); mask++ {
		if dp[mask] == inf {
			continue
		}
		u := 0
		for u < n && mask&(1<<uint(u)) != 0 {
			u++
		}
		if u == n {
			continue
		}
		for v := u + 1; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				continue
			}
			next := mask | 1<<uint(u) | 1<<uint(v)
			if cand := dp[mask] + w[u][v]; cand < dp[next] {
				dp[next] = cand
			}
		}
	}
	return dp[1<<uint(n)-1]
}

func randWeights(rng *rand.Rand, n int, maxW int64) [][]int64 {
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w[i][j] = rng.Int63n(maxW)
			w[j][i] = w[i][j]
		}
	}
	return w
}

// flat lays w out as the flat row-major matrix a Matcher consumes.
func flat(w [][]int64) []int64 {
	f := make([]int64, 0, len(w)*len(w))
	for _, row := range w {
		f = append(f, row...)
	}
	return f
}

func matchingWeight(t *testing.T, n int, w [][]int64, mate []int) int64 {
	t.Helper()
	var total int64
	for u := 0; u < n; u++ {
		v := mate[u]
		if v == -1 {
			continue
		}
		if v < 0 || v >= n || mate[v] != u {
			t.Fatalf("mate inconsistent: mate[%d]=%d, mate[%d]=%d", u, v, v, mate[v])
		}
		if v > u {
			total += w[u][v]
		}
	}
	return total
}

func TestMaxWeightMatchingSmallExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		w := randWeights(rng, n, 20)
		mate, total := NewMatcher().MaxWeight(n, flat(w))
		got := matchingWeight(t, n, w, mate)
		if got != total {
			t.Fatalf("n=%d trial=%d reported total %d != recomputed %d", n, trial, total, got)
		}
		want := bruteMaxMatching(n, w)
		if total != want {
			t.Fatalf("n=%d trial=%d max matching weight %d, brute force %d (w=%v)", n, trial, total, want, w)
		}
	}
}

func TestMaxWeightMatchingTriangle(t *testing.T) {
	// A triangle forces an odd component; the best matching picks the
	// single heaviest edge.
	w := [][]int64{
		{0, 5, 3},
		{5, 0, 4},
		{3, 4, 0},
	}
	mate, total := NewMatcher().MaxWeight(3, flat(w))
	if total != 5 {
		t.Fatalf("triangle total = %d, want 5", total)
	}
	if mate[0] != 1 || mate[1] != 0 || mate[2] != -1 {
		t.Fatalf("triangle mate = %v", mate)
	}
}

func TestMaxWeightMatchingBlossomStress(t *testing.T) {
	// Larger random instances with weights chosen to force many equal
	// distances (odd-cycle structure), checked for internal consistency
	// and against brute force when n is small enough.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(9)
		w := randWeights(rng, n, 5) // small range -> many ties -> blossoms
		mate, total := NewMatcher().MaxWeight(n, flat(w))
		if got := matchingWeight(t, n, w, mate); got != total {
			t.Fatalf("n=%d inconsistent total", n)
		}
		if want := bruteMaxMatching(n, w); total != want {
			t.Fatalf("n=%d trial=%d weight %d want %d (w=%v)", n, trial, total, want, w)
		}
	}
}

func TestMinWeightPerfectMatchingExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 * (1 + rng.Intn(5))
		w := randWeights(rng, n, 15)
		// Perfect matching needs every pair usable; keep weights >= 0
		// and remember 0 means "absent" only in MaxWeight, not
		// in the min-perfect wrapper (which shifts internally).
		// Only the upper triangle is read: junk below the diagonal
		// (Boundary keeps its pair weights there) changes nothing.
		fw := flat(w)
		for u := 0; u < n; u++ {
			for v := 0; v < u; v++ {
				fw[u*n+v] = rng.Int63n(1000)
			}
		}
		mate, total := NewMatcher().MinWeightPerfect(n, fw)
		for u, v := range mate {
			if v == -1 {
				t.Fatalf("n=%d vertex %d unmatched in perfect matching", n, u)
			}
		}
		if got := matchingWeight(t, n, w, mate); got != total {
			t.Fatalf("n=%d total %d != recomputed %d", n, total, got)
		}
		if want := bruteMinPerfect(n, w); total != want {
			t.Fatalf("n=%d trial=%d min perfect %d want %d (w=%v)", n, trial, total, want, w)
		}
	}
}

func TestMinWeightPerfectMatchingOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd vertex count did not panic")
		}
	}()
	NewMatcher().MinWeightPerfect(3, []int64{0, 1, 1, 1, 0, 1, 1, 1, 0})
}

func TestEmptyAndSingle(t *testing.T) {
	mate, total := NewMatcher().MaxWeight(0, nil)
	if len(mate) != 0 || total != 0 {
		t.Error("empty graph mishandled")
	}
	mate, total = NewMatcher().MaxWeight(1, []int64{0})
	if len(mate) != 1 || mate[0] != -1 || total != 0 {
		t.Errorf("single vertex mishandled: %v %d", mate, total)
	}
	mate, total = NewMatcher().MinWeightPerfect(0, nil)
	if len(mate) != 0 || total != 0 {
		t.Error("empty perfect matching mishandled")
	}
}

func TestMinPerfectLargerConsistency(t *testing.T) {
	// n up to 40: can't brute force, but verify perfectness and that the
	// weight is no worse than a greedy matching.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 2 * (10 + rng.Intn(11))
		w := randWeights(rng, n, 1000)
		mate, total := NewMatcher().MinWeightPerfect(n, flat(w))
		var greedy int64
		used := make([]bool, n)
		for u := 0; u < n; u++ {
			if used[u] {
				continue
			}
			best, bi := int64(1)<<62, -1
			for v := u + 1; v < n; v++ {
				if !used[v] && w[u][v] < best {
					best, bi = w[u][v], v
				}
			}
			used[u], used[bi] = true, true
			greedy += best
		}
		if got := matchingWeight(t, n, w, mate); got != total {
			t.Fatalf("n=%d total mismatch", n)
		}
		if total > greedy {
			t.Fatalf("n=%d blossom %d worse than greedy %d", n, total, greedy)
		}
	}
}

func BenchmarkMinWeightPerfectMatching40(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	w := randWeights(rng, 40, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewMatcher().MinWeightPerfect(40, flat(w))
	}
}

// TestMatcherGrowth solves instances of increasing size, n = 2…80, on
// one Matcher: its tables grow geometrically, so each reallocates
// O(log n) times rather than once per size. After the largest instance
// the grown Matcher must reproduce a fresh Matcher's matching on
// smaller instances exactly.
func TestMatcherGrowth(t *testing.T) {
	const maxN = 80
	rng := rand.New(rand.NewSource(6))
	flat := func(w [][]int64) []int64 {
		n := len(w)
		f := make([]int64, n*n)
		for u := range w {
			copy(f[u*n:], w[u])
		}
		return f
	}
	var m Matcher
	var slots, mates, flips int
	lastSlots, lastMate, lastFlip := 0, 0, 0
	for n := 2; n <= maxN; n++ {
		w := flat(randWeights(rng, n, 1000))
		m.MaxWeight(n, w)
		if n%2 == 0 {
			m.MinWeightPerfect(n, w)
		}
		if m.g.slots != lastSlots {
			slots, lastSlots = slots+1, m.g.slots
		}
		if cap(m.mate) != lastMate {
			mates, lastMate = mates+1, cap(m.mate)
		}
		if cap(m.flip) != lastFlip {
			flips, lastFlip = flips+1, cap(m.flip)
		}
	}
	// Growing 1.25× per step from the first instance to the last needs
	// ⌈log1.25(last/first)⌉ steps; the rounding at small sizes may add
	// a few.
	bound := func(first, last int) int {
		return int(math.Ceil(math.Log(float64(last)/float64(first))/math.Log(1.25))) + 3
	}
	for _, c := range []struct {
		name       string
		got, bound int
	}{
		{"graph slots", slots, bound(5, 2*maxN+1)},
		{"mate", mates, bound(2, maxN)},
		{"flip", flips, bound(2, maxN)},
	} {
		if c.got > c.bound {
			t.Errorf("%s reallocated %d times over n = 2…%d, want at most %d", c.name, c.got, maxN, c.bound)
		}
	}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(maxN-1)
		w := flat(randWeights(rng, n, 1000))
		got, gotTotal := m.MaxWeight(n, w)
		got = append([]int(nil), got...)
		want, wantTotal := NewMatcher().MaxWeight(n, w)
		if gotTotal != wantTotal || !slices.Equal(got, want) {
			t.Fatalf("n=%d: grown matcher mate %v (total %d), fresh %v (total %d)", n, got, gotTotal, want, wantTotal)
		}
		if n%2 != 0 {
			continue
		}
		got, gotTotal = m.MinWeightPerfect(n, w)
		got = append([]int(nil), got...)
		want, wantTotal = NewMatcher().MinWeightPerfect(n, w)
		if gotTotal != wantTotal || !slices.Equal(got, want) {
			t.Fatalf("n=%d perfect: grown matcher mate %v (total %d), fresh %v (total %d)", n, got, gotTotal, want, wantTotal)
		}
	}
}
