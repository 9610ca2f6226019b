package sfq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/pauli"
)

func synWithHot(g *lattice.Graph, sites ...lattice.Site) []bool {
	syn := make([]bool, g.NumChecks())
	for _, s := range sites {
		i, ok := g.CheckIndex(s)
		if !ok {
			panic("not a check site")
		}
		syn[i] = true
	}
	return syn
}

func TestVariantNames(t *testing.T) {
	cases := map[string]Variant{
		"baseline":          Baseline,
		"resets":            WithReset,
		"resets+boundaries": WithBoundary,
		"final":             Final,
	}
	for name, v := range cases {
		if v.Name() != name {
			t.Errorf("Name()=%q want %q", v.Name(), name)
		}
		got, ok := VariantByName(name)
		if !ok || got != v {
			t.Errorf("VariantByName(%q) = %v,%v", name, got, ok)
		}
	}
	if _, ok := VariantByName("nope"); ok {
		t.Error("unknown variant resolved")
	}
	custom := Variant{Reset: true, ReqGrant: true}
	if custom.Name() != "custom+reset+reqgrant" {
		t.Errorf("custom name = %q", custom.Name())
	}
}

func TestDirections(t *testing.T) {
	if North.Opposite() != South || East.Opposite() != West ||
		South.Opposite() != North || West.Opposite() != East {
		t.Error("Opposite wrong")
	}
	names := map[Dir]string{North: "N", East: "E", South: "S", West: "W"}
	for d, n := range names {
		if d.String() != n {
			t.Errorf("Dir %d String=%q", d, d.String())
		}
		dr, dc := d.Delta()
		or, oc := d.Opposite().Delta()
		if dr+or != 0 || dc+oc != 0 {
			t.Errorf("Delta of %v and opposite do not cancel", d)
		}
	}
}

func TestEmptySyndromeZeroCycles(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	mesh := New(g, Final)
	c, st, err := mesh.DecodeWithStats(make([]bool, g.NumChecks()))
	if err != nil || len(c.Qubits) != 0 || st.Cycles != 0 {
		t.Fatalf("empty syndrome: c=%v st=%+v err=%v", c, st, err)
	}
}

func TestSyndromeSizeMismatch(t *testing.T) {
	l := lattice.MustNew(3)
	g := l.MatchingGraph(lattice.ZErrors)
	mesh := New(g, Final)
	if _, _, err := mesh.DecodeWithStats(make([]bool, 3)); err == nil {
		t.Error("wrong-size syndrome accepted")
	}
	other := l.MatchingGraph(lattice.XErrors)
	if _, err := mesh.Decode(other, make([]bool, other.NumChecks())); err == nil {
		t.Error("foreign graph accepted")
	}
}

// The Fig. 7 scenario: two hot syndromes pair through an intermediate
// module and the reported chain connects them.
func TestTwoHotSyndromesPair(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	mesh := New(g, Final)
	// Adjacent checks on the same row: chain must be the single data
	// qubit between them.
	syn := synWithHot(g, lattice.Site{Row: 2, Col: 3}, lattice.Site{Row: 2, Col: 5})
	c, st, err := mesh.DecodeWithStats(syn)
	if err != nil {
		t.Fatal(err)
	}
	if err := decoder.Validate(g, syn, c); err != nil {
		t.Fatalf("correction invalid: %v", err)
	}
	sup := c.Support()
	if len(sup) != 1 || sup[0] != l.QubitIndex(lattice.Site{Row: 2, Col: 4}) {
		t.Fatalf("chain = %v, want just (2,4)", sup)
	}
	if st.Pairings != 2 {
		t.Errorf("cleared %d hot modules, want 2", st.Pairings)
	}
	if st.Unresolved != 0 {
		t.Errorf("unresolved %d", st.Unresolved)
	}
	if st.Cycles == 0 {
		t.Error("zero cycles for nonempty syndrome")
	}
}

// Diagonal pairing: exactly one of the two L corners may fire, and the
// resulting chain must realize the syndrome, whichever diagonal is used.
func TestDiagonalPairingBothOrientations(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	mesh := New(g, Final)
	cases := [][2]lattice.Site{
		{{Row: 0, Col: 3}, {Row: 2, Col: 5}},
		{{Row: 2, Col: 3}, {Row: 0, Col: 5}},
		{{Row: 4, Col: 1}, {Row: 6, Col: 5}},
	}
	for _, pair := range cases {
		syn := synWithHot(g, pair[0], pair[1])
		c, st, err := mesh.DecodeWithStats(syn)
		if err != nil {
			t.Fatal(err)
		}
		if err := decoder.Validate(g, syn, c); err != nil {
			t.Fatalf("%v: %v (chain %v)", pair, err, c.Support())
		}
		if st.Unresolved != 0 {
			t.Fatalf("%v: unresolved=%d", pair, st.Unresolved)
		}
		i, _ := g.CheckIndex(pair[0])
		j, _ := g.CheckIndex(pair[1])
		if got, want := c.Weight(), g.Dist(i, j); got != want {
			t.Errorf("%v: chain weight %d, want %d", pair, got, want)
		}
	}
}

// A lone hot syndrome next to the boundary must pair with the boundary
// (Fig. 8(b) mechanism) under the final design.
func TestBoundaryPairing(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	mesh := New(g, Final)
	syn := synWithHot(g, lattice.Site{Row: 4, Col: 1})
	c, st, err := mesh.DecodeWithStats(syn)
	if err != nil {
		t.Fatal(err)
	}
	if err := decoder.Validate(g, syn, c); err != nil {
		t.Fatalf("boundary correction invalid: %v (chain %v)", err, c.Support())
	}
	sup := c.Support()
	if len(sup) != 1 || sup[0] != l.QubitIndex(lattice.Site{Row: 4, Col: 0}) {
		t.Fatalf("chain = %v, want just (4,0)", sup)
	}
	if st.BoundaryPairings != 1 {
		t.Errorf("BoundaryPairings=%d want 1", st.BoundaryPairings)
	}
}

// Without the boundary mechanism a lone hot syndrome cannot be resolved:
// the mesh must give up and report it.
func TestNoBoundaryLeavesUnresolved(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	for _, v := range []Variant{Baseline, WithReset} {
		mesh := New(g, v)
		syn := synWithHot(g, lattice.Site{Row: 4, Col: 1})
		_, st, err := mesh.DecodeWithStats(syn)
		if err != nil {
			t.Fatal(err)
		}
		if st.Unresolved != 1 {
			t.Errorf("%s: unresolved=%d want 1", v.Name(), st.Unresolved)
		}
	}
}

// The Fig. 8(c) equidistant scenario: three evenly spaced hot syndromes.
// The final design must produce a correction realizing the syndrome
// (pairing two and sending one to a boundary, or chaining all three
// consistently) rather than pairing one module twice.
func TestEquidistantResolved(t *testing.T) {
	l := lattice.MustNew(7)
	g := l.MatchingGraph(lattice.ZErrors)
	mesh := New(g, Final)
	syn := synWithHot(g,
		lattice.Site{Row: 4, Col: 3},
		lattice.Site{Row: 4, Col: 7},
		lattice.Site{Row: 4, Col: 11},
	)
	c, st, err := mesh.DecodeWithStats(syn)
	if err != nil {
		t.Fatal(err)
	}
	if st.Unresolved != 0 {
		t.Fatalf("unresolved=%d", st.Unresolved)
	}
	if err := decoder.Validate(g, syn, c); err != nil {
		t.Fatalf("equidistant correction invalid: %v (chain %v)", err, c.Support())
	}
}

// Reset flaw demonstration (Fig. 8(a)): without resets, grow signals of
// already-paired modules keep flowing and produce heavier, sloppier
// corrections than the final design on multi-error rounds. We only
// assert the final design stays valid where the baseline is allowed to
// be wrong.
func TestFinalValidWhereBaselineMaywander(t *testing.T) {
	l := lattice.MustNew(7)
	g := l.MatchingGraph(lattice.ZErrors)
	final := New(g, Final)
	base := New(g, Baseline)
	syn := synWithHot(g,
		lattice.Site{Row: 2, Col: 3},
		lattice.Site{Row: 2, Col: 7},
		lattice.Site{Row: 6, Col: 5},
		lattice.Site{Row: 6, Col: 9},
	)
	c, st, err := final.DecodeWithStats(syn)
	if err != nil {
		t.Fatal(err)
	}
	if st.Unresolved != 0 {
		t.Fatalf("final unresolved=%d", st.Unresolved)
	}
	if err := decoder.Validate(g, syn, c); err != nil {
		t.Fatalf("final invalid: %v", err)
	}
	// Baseline must still terminate (even if its correction is wrong).
	_, bst, err := base.DecodeWithStats(syn)
	if err != nil {
		t.Fatal(err)
	}
	if bst.Cycles >= base.MaxCycles {
		t.Errorf("baseline hit the cycle guard: %+v", bst)
	}
}

// The fundamental decoder invariant for the final design: random
// syndromes at a wide range of rates are always fully resolved with a
// syndrome-clearing correction, for both error types and all distances.
func TestFinalClearsRandomSyndromes(t *testing.T) {
	rng := noise.NewRand(99)
	for _, d := range []int{3, 5, 7, 9} {
		l := lattice.MustNew(d)
		for _, e := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			g := l.MatchingGraph(e)
			mesh := New(g, Final)
			op := pauli.Z
			if e == lattice.XErrors {
				op = pauli.X
			}
			for _, p := range []float64{0.01, 0.05, 0.1} {
				for trial := 0; trial < 40; trial++ {
					f := pauli.NewFrame(l.NumQubits())
					for _, s := range l.DataSites() {
						if rng.Float64() < p {
							f.Apply(l.QubitIndex(s), op)
						}
					}
					syn := g.Syndrome(f)
					c, st, err := mesh.DecodeWithStats(syn)
					if err != nil {
						t.Fatal(err)
					}
					// Unresolved > 0 is legal only when the watchdog
					// drained those modules to a boundary (Fallbacks):
					// the final design never leaves a module hot.
					if st.Unresolved != 0 && st.Fallbacks == 0 {
						t.Fatalf("d=%d %v p=%v trial=%d: unresolved=%d stats=%+v",
							d, e, p, trial, st.Unresolved, st)
					}
					if err := decoder.Validate(g, syn, c); err != nil {
						t.Fatalf("d=%d %v p=%v trial=%d: %v", d, e, p, trial, err)
					}
				}
			}
		}
	}
}

// Decoding is deterministic: the same syndrome gives the same chain and
// cycle count.
func TestDeterministicDecode(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	mesh := New(g, Final)
	syn := synWithHot(g,
		lattice.Site{Row: 0, Col: 3},
		lattice.Site{Row: 4, Col: 5},
		lattice.Site{Row: 6, Col: 1},
	)
	c1, st1, err := mesh.DecodeWithStats(syn)
	if err != nil {
		t.Fatal(err)
	}
	c2, st2, err := mesh.DecodeWithStats(syn)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := c1.Support(), c2.Support()
	if len(s1) != len(s2) || st1 != st2 {
		t.Fatalf("nondeterministic: %v/%+v vs %v/%+v", s1, st1, s2, st2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("nondeterministic chains: %v vs %v", s1, s2)
		}
	}
}

// Mesh cycle counts must grow with the separation of the pair (signals
// advance one module per cycle).
func TestCyclesScaleWithDistance(t *testing.T) {
	l := lattice.MustNew(9)
	g := l.MatchingGraph(lattice.ZErrors)
	mesh := New(g, Final)
	near := synWithHot(g, lattice.Site{Row: 8, Col: 7}, lattice.Site{Row: 8, Col: 9})
	far := synWithHot(g, lattice.Site{Row: 0, Col: 7}, lattice.Site{Row: 16, Col: 9})
	_, stNear, err := mesh.DecodeWithStats(near)
	if err != nil {
		t.Fatal(err)
	}
	_, stFar, err := mesh.DecodeWithStats(far)
	if err != nil {
		t.Fatal(err)
	}
	if stFar.Cycles <= stNear.Cycles {
		t.Errorf("far pair %d cycles <= near pair %d", stFar.Cycles, stNear.Cycles)
	}
}

func TestStatsTimeNs(t *testing.T) {
	st := Stats{Cycles: 100}
	if got := st.TimeNs(); got < 16.2 || got > 16.3 {
		t.Errorf("100 cycles = %vns, want ~16.27", got)
	}
}

func TestAccessors(t *testing.T) {
	l := lattice.MustNew(3)
	g := l.MatchingGraph(lattice.ZErrors)
	mesh := New(g, WithBoundary)
	if mesh.Name() != "sfq-resets+boundaries" {
		t.Errorf("Name = %q", mesh.Name())
	}
	if b := NewBatch(g, WithBoundary); b.Name() != mesh.Name() {
		t.Errorf("%d-lane Name = %q, one-lane %q", b.Lanes(), b.Name(), mesh.Name())
	}
	if mesh.Variant() != WithBoundary {
		t.Error("Variant accessor wrong")
	}
	syn := synWithHot(g, lattice.Site{Row: 0, Col: 1})
	c, err := mesh.Decode(g, syn)
	if err != nil {
		t.Fatal(err)
	}
	if err := decoder.Validate(g, syn, c); err != nil {
		t.Fatal(err)
	}
	if mesh.Stats().Cycles == 0 {
		t.Error("Stats not retained after Decode")
	}
}

// The X-error mesh pairs with the top/bottom boundaries instead.
func TestXErrorBoundarySides(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.XErrors)
	mesh := New(g, Final)
	syn := synWithHot(g, lattice.Site{Row: 1, Col: 4})
	c, st, err := mesh.DecodeWithStats(syn)
	if err != nil {
		t.Fatal(err)
	}
	if st.BoundaryPairings != 1 || st.Unresolved != 0 {
		t.Fatalf("stats = %+v", st)
	}
	sup := c.Support()
	if len(sup) != 1 || sup[0] != l.QubitIndex(lattice.Site{Row: 0, Col: 4}) {
		t.Fatalf("chain = %v, want just (0,4)", sup)
	}
}

// TestMeshPoolReuse checks the pool hands back parked meshes instead of
// building new ones, and that recycled meshes decode correctly.
func TestMeshPoolReuse(t *testing.T) {
	pool := NewPool(Final)
	m1 := pool.Get(5, lattice.ZErrors)
	g := pool.Graph(5, lattice.ZErrors)
	syn := make([]bool, g.NumChecks())
	syn[0], syn[1] = true, true
	c1, _, err := m1.DecodeWithStats(syn)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(m1)
	m2 := pool.Get(5, lattice.ZErrors)
	if m2 != m1 {
		t.Fatalf("pool built a new mesh instead of reusing the parked one")
	}
	if m2.Stats() != (Stats{}) {
		t.Fatalf("recycled mesh carries stale stats: %+v", m2.Stats())
	}
	c2, _, err := m2.DecodeWithStats(syn)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(c1.Qubits) != fmt.Sprint(c2.Qubits) {
		t.Fatalf("recycled mesh decodes differently: %v vs %v", c1.Qubits, c2.Qubits)
	}
	// A mesh of a foreign variant must not enter the pool.
	pool.Put(New(pool.Graph(5, lattice.ZErrors), Baseline))
	if got := pool.Get(5, lattice.ZErrors); got == nil || got.Variant() != Final {
		t.Fatalf("pool handed out a foreign-variant mesh")
	}
}

// TestMeshPoolRelease checks the decoder.Decoder adapter ignores
// non-mesh decoders and recycles meshes.
func TestMeshPoolRelease(t *testing.T) {
	pool := NewPool(Final)
	m := pool.Get(3, lattice.XErrors)
	pool.Release(m)
	if got := pool.Get(3, lattice.XErrors); got != m {
		t.Fatalf("Release did not recycle the mesh")
	}
	pool.Release(nil) // non-mesh decoder: must not panic
}

// TestDecodeIntoMatchesDecode checks the pooled path returns the same
// correction as the allocating path, and that a structurally identical
// graph (distinct pointer) is accepted while a foreign one is rejected.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	g2 := lattice.MustNew(5).MatchingGraph(lattice.ZErrors) // same structure, different pointer
	wrong := l.MatchingGraph(lattice.XErrors)
	mesh := New(g, Final)
	s := decodepool.NewScratch()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		syn := make([]bool, g.NumChecks())
		for i := range syn {
			syn[i] = rng.Float64() < 0.1
		}
		want, err := mesh.Decode(g, syn)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mesh.DecodeInto(g2, syn, s)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(want.Qubits) != fmt.Sprint(got.Qubits) {
			t.Fatalf("trial %d: DecodeInto %v != Decode %v", trial, got.Qubits, want.Qubits)
		}
	}
	if _, err := mesh.DecodeInto(wrong, make([]bool, wrong.NumChecks()), s); err == nil {
		t.Fatalf("DecodeInto accepted a graph of the wrong error type")
	}
}
