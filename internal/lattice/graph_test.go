package lattice

import (
	"math/rand"
	"testing"

	"repro/internal/pauli"
)

func TestGraphCheckIndexing(t *testing.T) {
	l := MustNew(5)
	for _, e := range []ErrorType{ZErrors, XErrors} {
		g := l.MatchingGraph(e)
		if g.NumChecks() != l.d*(l.d-1) {
			t.Errorf("%v NumChecks=%d want %d", e, g.NumChecks(), l.d*(l.d-1))
		}
		for i := 0; i < g.NumChecks(); i++ {
			j, ok := g.CheckIndex(g.CheckSite(i))
			if !ok || j != i {
				t.Fatalf("%v check index round trip failed at %d", e, i)
			}
		}
		if _, ok := g.CheckIndex(Site{0, 0}); ok {
			t.Errorf("%v data site has a check index", e)
		}
		if g.ErrorType() != e || g.Lattice() != l {
			t.Errorf("%v accessors wrong", e)
		}
	}
}

func TestDistExamples(t *testing.T) {
	l := MustNew(5)
	g := l.MatchingGraph(ZErrors)
	// Two X ancillas on row 0: (0,1) and (0,3) share data (0,2).
	i, _ := g.CheckIndex(Site{0, 1})
	j, _ := g.CheckIndex(Site{0, 3})
	if got := g.Dist(i, j); got != 1 {
		t.Errorf("same-row adjacent dist=%d want 1", got)
	}
	// Vertically adjacent: (0,1) and (2,1) share data (1,1).
	k, _ := g.CheckIndex(Site{2, 1})
	if got := g.Dist(i, k); got != 1 {
		t.Errorf("same-col adjacent dist=%d want 1", got)
	}
	// Diagonal: (0,1) to (2,3) needs two data errors.
	m, _ := g.CheckIndex(Site{2, 3})
	if got := g.Dist(i, m); got != 2 {
		t.Errorf("diagonal dist=%d want 2", got)
	}
	if g.Dist(i, i) != 0 {
		t.Error("self distance nonzero")
	}
}

func TestBoundaryDist(t *testing.T) {
	l := MustNew(5) // size 9, columns 0..8
	g := l.MatchingGraph(ZErrors)
	cases := []struct {
		s Site
		d int
	}{
		{Site{0, 1}, 1}, // one step to left boundary
		{Site{0, 7}, 1}, // one step to right boundary
		{Site{0, 3}, 2},
		{Site{0, 5}, 2},
	}
	for _, c := range cases {
		i, ok := g.CheckIndex(c.s)
		if !ok {
			t.Fatalf("no check at %v", c.s)
		}
		if got := g.BoundaryDist(i); got != c.d {
			t.Errorf("BoundaryDist(%v)=%d want %d", c.s, got, c.d)
		}
	}
}

// Property: Dist is a metric (symmetric, zero iff equal, triangle
// inequality) on random check pairs.
func TestDistMetricProperties(t *testing.T) {
	l := MustNew(7)
	rng := rand.New(rand.NewSource(3))
	for _, e := range []ErrorType{ZErrors, XErrors} {
		g := l.MatchingGraph(e)
		n := g.NumChecks()
		for trial := 0; trial < 500; trial++ {
			i, j, k := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			if g.Dist(i, j) != g.Dist(j, i) {
				t.Fatalf("%v Dist not symmetric at %d,%d", e, i, j)
			}
			if (g.Dist(i, j) == 0) != (i == j) {
				t.Fatalf("%v Dist zero mismatch at %d,%d", e, i, j)
			}
			if g.Dist(i, k) > g.Dist(i, j)+g.Dist(j, k) {
				t.Fatalf("%v triangle inequality violated at %d,%d,%d", e, i, j, k)
			}
		}
	}
}

// chainDistances are the code distances the chain properties cover:
// every size the benchmark workloads and the decoder tests decode.
var chainDistances = []int{3, 5, 7, 9, 13}

// realizes reports the first check whose syndrome under the chain
// differs from want, applying the chain to f and undoing it again.
func realizes(g *Graph, f *pauli.Frame, op pauli.Op, chain []int, syn []bool, want func(c int) bool) (int, bool) {
	for _, q := range chain {
		f.Apply(q, op)
	}
	syn = g.SyndromeInto(f, syn)
	for _, q := range chain {
		f.Apply(q, op)
	}
	for c, hot := range syn {
		if hot != want(c) {
			return c, false
		}
	}
	return 0, true
}

// Property: the chain AppendPathQubits lays down has exactly Dist(i,j)
// data qubits, leaves dst's prefix alone and, applied as an error,
// produces hot syndromes exactly at checks i and j (none when i == j).
// Every pair of checks is covered, for both error types.
func TestPathQubitsRealizesSyndrome(t *testing.T) {
	for _, d := range chainDistances {
		l := MustNew(d)
		f := pauli.NewFrame(l.NumQubits())
		for _, e := range []ErrorType{ZErrors, XErrors} {
			g := l.MatchingGraph(e)
			op := pauli.Z
			if e == XErrors {
				op = pauli.X
			}
			syn := make([]bool, g.NumChecks())
			prefix := []int{-1}
			for i := 0; i < g.NumChecks(); i++ {
				for j := 0; j < g.NumChecks(); j++ {
					got := g.AppendPathQubits(prefix, i, j)
					if got[0] != -1 {
						t.Fatalf("d=%d %v chain %d-%d overwrote dst's prefix", d, e, i, j)
					}
					chain := got[1:]
					if len(chain) != g.Dist(i, j) {
						t.Fatalf("d=%d %v chain %d-%d length %d != dist %d", d, e, i, j, len(chain), g.Dist(i, j))
					}
					for _, q := range chain {
						if l.KindAt(l.SiteOf(q)) != Data {
							t.Fatalf("d=%d %v chain %d-%d contains non-data qubit %d", d, e, i, j, q)
						}
					}
					if c, ok := realizes(g, f, op, chain, syn, func(c int) bool { return (c == i) != (c == j) }); !ok {
						t.Fatalf("d=%d %v chain %d-%d: check %d has the wrong parity", d, e, i, j, c)
					}
				}
			}
		}
	}
}

// Property: the boundary chain AppendBoundaryPathQubits lays down has
// exactly BoundaryDist(i) data qubits, leaves dst's prefix alone and
// lights up only check i. Every check is covered, for both error types.
func TestBoundaryPathRealizesSyndrome(t *testing.T) {
	for _, d := range chainDistances {
		l := MustNew(d)
		f := pauli.NewFrame(l.NumQubits())
		for _, e := range []ErrorType{ZErrors, XErrors} {
			g := l.MatchingGraph(e)
			op := pauli.Z
			if e == XErrors {
				op = pauli.X
			}
			syn := make([]bool, g.NumChecks())
			prefix := []int{-1}
			for i := 0; i < g.NumChecks(); i++ {
				got := g.AppendBoundaryPathQubits(prefix, i)
				if got[0] != -1 {
					t.Fatalf("d=%d %v boundary chain of %d overwrote dst's prefix", d, e, i)
				}
				chain := got[1:]
				if len(chain) != g.BoundaryDist(i) {
					t.Fatalf("d=%d %v boundary chain of %d length %d != dist %d", d, e, i, len(chain), g.BoundaryDist(i))
				}
				for _, q := range chain {
					if l.KindAt(l.SiteOf(q)) != Data {
						t.Fatalf("d=%d %v boundary chain of %d contains non-data qubit %d", d, e, i, q)
					}
				}
				if c, ok := realizes(g, f, op, chain, syn, func(c int) bool { return c == i }); !ok {
					t.Fatalf("d=%d %v boundary chain of %d: check %d has the wrong parity", d, e, i, c)
				}
			}
		}
	}
}

// Appending a chain into a dst that already has room allocates nothing.
func TestAppendChainsZeroAlloc(t *testing.T) {
	for _, d := range chainDistances {
		l := MustNew(d)
		for _, e := range []ErrorType{ZErrors, XErrors} {
			g := l.MatchingGraph(e)
			m := g.NumChecks()
			dst := make([]int, 0, 2*l.NumQubits())
			if avg := testing.AllocsPerRun(16, func() {
				dst = g.AppendPathQubits(dst[:0], 0, m-1)
				dst = g.AppendBoundaryPathQubits(dst, m/2)
			}); avg != 0 {
				t.Errorf("d=%d %v: %.1f allocations per append pair, want 0", d, e, avg)
			}
		}
	}
}

func TestSyndromePanicsOnSizeMismatch(t *testing.T) {
	l := MustNew(3)
	g := l.MatchingGraph(ZErrors)
	defer func() {
		if recover() == nil {
			t.Error("Syndrome accepted wrong-size frame")
		}
	}()
	g.Syndrome(pauli.NewFrame(4))
}

func TestHotChecks(t *testing.T) {
	got := HotChecks([]bool{false, true, true, false, true})
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("HotChecks=%v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("HotChecks=%v want %v", got, want)
		}
	}
	if HotChecks(nil) != nil {
		t.Error("HotChecks(nil) != nil")
	}
}

// A single data-qubit error must light exactly its adjacent checks
// (Fig. 2 of the paper).
func TestSingleErrorSyndromes(t *testing.T) {
	l := MustNew(5)
	for _, e := range []ErrorType{ZErrors, XErrors} {
		g := l.MatchingGraph(e)
		op := pauli.Z
		if e == XErrors {
			op = pauli.X
		}
		for _, s := range l.DataSites() {
			f := pauli.NewFrame(l.NumQubits())
			f.Set(l.QubitIndex(s), op)
			hot := HotChecks(g.Syndrome(f))
			if len(hot) < 1 || len(hot) > 2 {
				t.Fatalf("%v single error at %v lights %d checks", e, s, len(hot))
			}
			for _, c := range hot {
				cs := g.CheckSite(c)
				if abs(cs.Row-s.Row)+abs(cs.Col-s.Col) != 1 {
					t.Fatalf("%v error at %v lit non-adjacent check at %v", e, s, cs)
				}
			}
		}
	}
}
