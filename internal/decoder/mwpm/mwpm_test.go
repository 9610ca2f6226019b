package mwpm

import (
	"testing"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
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
// boundary matches read from the decoder's scratch state.
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
	st := s.State("mwpm", func() any { return new(intoState) }).(*intoState)
	return c, st.pairs, st.bnd
}

func TestEmptySyndrome(t *testing.T) {
	g := lattice.MustNew(3).MatchingGraph(lattice.ZErrors)
	c, pairs, bnd := decode(t, g, make([]bool, g.NumChecks()))
	if len(pairs) != 0 || len(bnd) != 0 || len(c.Qubits) != 0 {
		t.Errorf("matched empty syndrome: pairs %v boundary %v correction %v", pairs, bnd, c.Qubits)
	}
}

func TestSingleCheckBoundary(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	s := syn(g, lattice.Site{Row: 2, Col: 3})
	_, pairs, bnd := decode(t, g, s)
	if len(bnd) != 1 || len(pairs) != 0 {
		t.Fatalf("pairs %v boundary %v, want one boundary match", pairs, bnd)
	}
}

// Optimality on a handcrafted instance where greedy-by-distance is
// suboptimal: three checks in a row where the middle one is closest to
// both ends — MWPM must pick the global optimum.
func TestOptimalOnAmbiguousRow(t *testing.T) {
	l := lattice.MustNew(7)
	g := l.MatchingGraph(lattice.ZErrors)
	// Checks at columns 1, 5, 9 in row 0: pairwise distances 2, 2, 4;
	// boundary distances 1, 3, 2.
	s := syn(g,
		lattice.Site{Row: 0, Col: 1},
		lattice.Site{Row: 0, Col: 5},
		lattice.Site{Row: 0, Col: 9},
	)
	c, _, _ := decode(t, g, s)
	// Optimum: pair (5,9) at cost 2, send column-1 to the boundary at
	// cost 1 — total 3.
	if got := c.Weight(); got != 3 {
		t.Fatalf("weight = %d, want 3 (correction %v)", got, c.Qubits)
	}
}

// All-boundary optimum: an even number of checks all hugging opposite
// edges must not be paired across the lattice.
func TestPrefersBoundariesWhenCheaper(t *testing.T) {
	l := lattice.MustNew(9)
	g := l.MatchingGraph(lattice.ZErrors)
	s := syn(g,
		lattice.Site{Row: 0, Col: 1},
		lattice.Site{Row: 8, Col: 15},
		lattice.Site{Row: 16, Col: 1},
		lattice.Site{Row: 4, Col: 15},
	)
	c, _, _ := decode(t, g, s)
	// Several matchings tie at the optimum here (two co-column checks
	// sit exactly two apart); only the optimal weight is asserted.
	if c.Weight() != 4 {
		t.Errorf("weight = %d, want 4", c.Weight())
	}
}

func TestXErrorGraph(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.XErrors)
	s := syn(g, lattice.Site{Row: 3, Col: 4}, lattice.Site{Row: 5, Col: 4})
	_, pairs, bnd := decode(t, g, s)
	if len(pairs) != 1 || len(bnd) != 0 {
		t.Fatalf("pairs %v boundary %v, want one pair", pairs, bnd)
	}
}
