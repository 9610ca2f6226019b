package decodepool

import (
	"sync"
	"testing"

	"repro/internal/lattice"
)

// The cached tables must agree entry-for-entry with the graph's own
// per-call geometry methods, at every distance the benchmark decodes.
func TestGeometryMatchesGraph(t *testing.T) {
	for _, d := range []int{3, 5, 7, 9, 13} {
		l := lattice.MustNew(d)
		for _, e := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			g := l.MatchingGraph(e)
			geo := For(g)
			if geo.M != g.NumChecks() || geo.D != d || geo.E != e {
				t.Fatalf("d=%d %v: geometry header %+v", d, e, geo)
			}
			for i := 0; i < geo.M; i++ {
				if geo.BoundaryDist(i) != g.BoundaryDist(i) {
					t.Fatalf("d=%d %v: BoundaryDist(%d) = %d, want %d",
						d, e, i, geo.BoundaryDist(i), g.BoundaryDist(i))
				}
				for j := 0; j < geo.M; j++ {
					if geo.Dist(i, j) != g.Dist(i, j) {
						t.Fatalf("d=%d %v: Dist(%d,%d) = %d, want %d",
							d, e, i, j, geo.Dist(i, j), g.Dist(i, j))
					}
				}
			}
			// Union-find view mirrors the legacy per-call derivation.
			edges := g.DecodingEdges()
			if len(edges) != len(geo.Edges) {
				t.Fatalf("d=%d %v: %d edges, want %d", d, e, len(geo.Edges), len(edges))
			}
			nv := geo.M
			for k, ed := range edges {
				if ed != geo.Edges[k] {
					t.Fatalf("d=%d %v: edge %d = %+v, want %+v", d, e, k, geo.Edges[k], ed)
				}
				a, b := ed.C1, ed.C2
				if a == lattice.Boundary {
					a = nv
					nv++
				}
				if b == lattice.Boundary {
					b = nv
					nv++
				}
				if geo.Endpoints[k] != [2]int32{int32(a), int32(b)} {
					t.Fatalf("d=%d %v: endpoints %d = %v, want (%d,%d)", d, e, k, geo.Endpoints[k], a, b)
				}
			}
			if nv != geo.NV {
				t.Fatalf("d=%d %v: NV = %d, want %d", d, e, geo.NV, nv)
			}
		}
	}
}

// Distinct graph instances of the same (distance, error type) must share
// one cached table; distinct parameters must not.
func TestGeometryCacheSharing(t *testing.T) {
	g1 := lattice.MustNew(5).MatchingGraph(lattice.ZErrors)
	g2 := lattice.MustNew(5).MatchingGraph(lattice.ZErrors)
	if For(g1) != For(g2) {
		t.Error("same (d, etype) from different lattices did not share a geometry")
	}
	if For(g1) == For(lattice.MustNew(5).MatchingGraph(lattice.XErrors)) {
		t.Error("Z and X graphs share a geometry")
	}
	if For(g1) == For(lattice.MustNew(7).MatchingGraph(lattice.ZErrors)) {
		t.Error("d=5 and d=7 share a geometry")
	}
}

// A cold build writes the distance tables and derives the union-find
// view; it tables no error chains, so it makes no allocation per pair
// of checks. At d = 13 there are 24,336 pairs; building their chains
// took about 100,000 allocations.
func TestColdBuildAllocs(t *testing.T) {
	g := lattice.MustNew(13).MatchingGraph(lattice.ZErrors)
	if avg := testing.AllocsPerRun(4, func() { build(g) }); avg >= 1000 {
		t.Errorf("d=13 Z geometry build: %.0f allocations, want < 1000", avg)
	}
}

// Concurrent warm-up: many goroutines racing to build the same (and
// different) geometries must all observe one shared table per key. Run
// under -race in ci.sh, this is the cache's data-race regression test.
func TestGeometryConcurrentWarmup(t *testing.T) {
	distances := []int{3, 5, 7, 9}
	const workersPerKey = 8
	var wg sync.WaitGroup
	got := make([][]*Geometry, len(distances)*2)
	for ki := range got {
		got[ki] = make([]*Geometry, workersPerKey)
	}
	for ki, d := range distances {
		for _, e := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			slot := 2*ki + int(e)
			for w := 0; w < workersPerKey; w++ {
				wg.Add(1)
				go func(d, slot, w int, e lattice.ErrorType) {
					defer wg.Done()
					g := lattice.MustNew(d).MatchingGraph(e)
					geo := For(g)
					// Exercise shared read-only access while others warm up.
					for i := 0; i < geo.M; i++ {
						_ = geo.BoundaryDist(i)
					}
					got[slot][w] = geo
				}(d, slot, w, e)
			}
		}
	}
	wg.Wait()
	for slot, geos := range got {
		for w, geo := range geos {
			if geo == nil {
				t.Fatalf("slot %d worker %d: nil geometry", slot, w)
			}
			if geo != geos[0] {
				t.Errorf("slot %d: workers observed distinct geometries", slot)
			}
		}
	}
}

// Scratch state is built once per key and then reused.
func TestScratchState(t *testing.T) {
	s := NewScratch()
	calls := 0
	mk := func() any { calls++; return &calls }
	a := s.State("k", mk)
	b := s.State("k", mk)
	if a != b || calls != 1 {
		t.Fatalf("State built %d times, pointers %p vs %p", calls, a, b)
	}
	if s.State("other", mk) == nil || calls != 2 {
		t.Fatalf("distinct key did not build new state (calls=%d)", calls)
	}
}

// HotChecks reuses its buffer and reports exactly the hot indices.
func TestScratchHotChecks(t *testing.T) {
	s := NewScratch()
	syn := []bool{false, true, true, false, true}
	hot := s.HotChecks(syn)
	if !equalInts(hot, []int{1, 2, 4}) {
		t.Fatalf("hot = %v", hot)
	}
	hot2 := s.HotChecks([]bool{true})
	if !equalInts(hot2, []int{0}) {
		t.Fatalf("hot2 = %v", hot2)
	}
	if len(syn) > 0 && cap(hot2) < 3 {
		t.Error("hot buffer was not reused")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
