package greedy

import (
	"slices"
	"testing"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/match"
)

func syn(g *lattice.Graph, sites ...lattice.Site) []bool {
	s := make([]bool, g.NumChecks())
	for _, site := range sites {
		i, ok := g.CheckIndex(site)
		if !ok {
			panic("not a check")
		}
		s[i] = true
	}
	return s
}

// decode runs DecodeInto on a fresh scratch and returns the correction,
// checked against the syndrome, together with the accepted pairs and
// boundary matches (as hot-list positions), re-solved on the weights
// the decode left in the scratch's boundary matcher.
func decode(t *testing.T, g *lattice.Graph, syn []bool) (decoder.Correction, [][2]int32, []int32) {
	t.Helper()
	s := decodepool.NewScratch()
	c, err := New().DecodeInto(g, syn, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := decoder.Validate(g, syn, c); err != nil {
		t.Fatal(err)
	}
	pairs, bnd := s.State("match", func() any { return new(match.Boundary) }).(*match.Boundary).Greedy()
	return c, pairs, bnd
}

func TestEmptySyndrome(t *testing.T) {
	g := lattice.MustNew(3).MatchingGraph(lattice.ZErrors)
	c, pairs, bnd := decode(t, g, make([]bool, g.NumChecks()))
	if len(pairs) != 0 || len(bnd) != 0 || len(c.Qubits) != 0 {
		t.Errorf("empty syndrome matched: pairs %v boundary %v correction %v", pairs, bnd, c.Qubits)
	}
}

// The tie-break rule: a pair edge beats boundary edges of the same
// weight, because one pairing clears two syndromes.
func TestTieBreakPrefersPairing(t *testing.T) {
	l := lattice.MustNew(3)
	g := l.MatchingGraph(lattice.ZErrors)
	// Checks (0,1) and (0,3): distance 1 from each other AND from their
	// respective boundaries.
	s := syn(g, lattice.Site{Row: 0, Col: 1}, lattice.Site{Row: 0, Col: 3})
	c, pairs, bnd := decode(t, g, s)
	if len(pairs) != 1 || len(bnd) != 0 {
		t.Fatalf("pairs %v boundary %v, want one pair", pairs, bnd)
	}
	if c.Weight() != 1 {
		t.Errorf("weight = %d, want 1", c.Weight())
	}
}

// A lone far-from-partner check pairs with its nearest boundary.
func TestIsolatedCheckGoesToBoundary(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	s := syn(g, lattice.Site{Row: 4, Col: 1})
	c, pairs, bnd := decode(t, g, s)
	if len(bnd) != 1 || len(pairs) != 0 {
		t.Fatalf("pairs %v boundary %v, want one boundary match", pairs, bnd)
	}
	if c.Weight() != 1 {
		t.Errorf("weight = %d, want 1", c.Weight())
	}
}

// Two distant checks each adjacent to opposite boundaries: boundary
// matching (total weight 2) beats pairing (weight 4).
func TestBoundaryBeatsLongPair(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	s := syn(g, lattice.Site{Row: 0, Col: 1}, lattice.Site{Row: 0, Col: 7})
	c, pairs, bnd := decode(t, g, s)
	if len(bnd) != 2 || len(pairs) != 0 {
		t.Fatalf("pairs %v boundary %v, want two boundary matches", pairs, bnd)
	}
	if c.Weight() != 2 {
		t.Errorf("weight = %d, want 2", c.Weight())
	}
}

func TestMatchingIsDeterministic(t *testing.T) {
	l := lattice.MustNew(7)
	g := l.MatchingGraph(lattice.ZErrors)
	s := syn(g,
		lattice.Site{Row: 2, Col: 3}, lattice.Site{Row: 2, Col: 7},
		lattice.Site{Row: 6, Col: 5}, lattice.Site{Row: 10, Col: 9},
		lattice.Site{Row: 8, Col: 1},
	)
	a, pairsA, bndA := decode(t, g, s)
	b, pairsB, bndB := decode(t, g, s)
	if !slices.Equal(pairsA, pairsB) || !slices.Equal(bndA, bndB) {
		t.Fatal("nondeterministic matching")
	}
	if !slices.Equal(a.Qubits, b.Qubits) {
		t.Fatal("nondeterministic correction")
	}
}
