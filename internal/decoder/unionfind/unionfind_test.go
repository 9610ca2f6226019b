package unionfind

import (
	"testing"

	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/pauli"
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

func TestDSUInvariants(t *testing.T) {
	var d intoState
	d.reset(6, 0)
	d.odd[0], d.odd[1], d.odd[3] = true, true, true
	d.boundary[5] = true
	d.union(0, 1)
	r := d.find(0)
	if d.find(1) != r {
		t.Fatal("union did not merge")
	}
	if d.odd[r] {
		t.Error("two odd clusters merged to odd")
	}
	d.union(3, 5)
	r = d.find(3)
	if !d.odd[r] || !d.boundary[r] {
		t.Error("odd+boundary merge lost flags")
	}
	if d.active(r) {
		t.Error("boundary cluster still active")
	}
	// Merging a cluster with itself is a no-op.
	size := d.size[d.find(0)]
	d.union(0, 1)
	if d.size[d.find(0)] != size {
		t.Error("self-union changed size")
	}
}

func TestSingleDefectDrainsToBoundary(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	u := New()
	s := syn(g, lattice.Site{Row: 2, Col: 1})
	c, err := u.Decode(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := decoder.Validate(g, s, c); err != nil {
		t.Fatal(err)
	}
	// The chain should be short: the defect is one step from the left
	// boundary and union-find grows minimally.
	if c.Weight() > 2 {
		t.Errorf("chain weight %d for a boundary-adjacent defect", c.Weight())
	}
}

func TestAdjacentPairShortChain(t *testing.T) {
	l := lattice.MustNew(7)
	g := l.MatchingGraph(lattice.ZErrors)
	u := New()
	s := syn(g, lattice.Site{Row: 6, Col: 5}, lattice.Site{Row: 6, Col: 7})
	c, err := u.Decode(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := decoder.Validate(g, s, c); err != nil {
		t.Fatal(err)
	}
	if c.Weight() > 3 {
		t.Errorf("chain weight %d for adjacent defects", c.Weight())
	}
}

// The decoder must correct every weight-2 error pattern without
// producing a logical operator (weight-2 < d/2 for d=7).
func TestAllWeightTwoPatterns(t *testing.T) {
	l := lattice.MustNew(7)
	g := l.MatchingGraph(lattice.ZErrors)
	cut := l.LogicalCutSupport(lattice.ZErrors)
	u := New()
	data := l.DataSites()
	for i := 0; i < len(data); i += 3 { // stride keeps the test quick
		for j := i + 1; j < len(data); j += 3 {
			f := pauli.NewFrame(l.NumQubits())
			f.Set(l.QubitIndex(data[i]), pauli.Z)
			f.Set(l.QubitIndex(data[j]), pauli.Z)
			s := g.Syndrome(f)
			c, err := u.Decode(g, s)
			if err != nil {
				t.Fatal(err)
			}
			res := f.Clone()
			res.ApplyFrame(c.Frame(l, lattice.ZErrors))
			for k, hot := range g.Syndrome(res) {
				if hot {
					t.Fatalf("pattern (%v,%v): residual check %d hot", data[i], data[j], k)
				}
			}
			if res.ParityZ(cut) != 0 {
				t.Fatalf("pattern (%v,%v) decoded to a logical error", data[i], data[j])
			}
		}
	}
}

func TestXErrorPlane(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.XErrors)
	u := New()
	s := syn(g, lattice.Site{Row: 1, Col: 4}, lattice.Site{Row: 7, Col: 2})
	c, err := u.Decode(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := decoder.Validate(g, s, c); err != nil {
		t.Fatal(err)
	}
}

// Erasure decoding: every syndrome caused by errors inside a known
// erased set must be corrected using only erased qubits, and below the
// percolation threshold logical failures are rare.
func TestDecodeErasure(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	u := New()
	ch, err := noise.NewErasure(0.15, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Pe() != 0.15 {
		t.Error("Pe accessor wrong")
	}
	rng := noise.NewRand(41)
	var targets []int
	for _, s := range l.DataSites() {
		targets = append(targets, l.QubitIndex(s))
	}
	failures := 0
	cut := l.LogicalCutSupport(lattice.ZErrors)
	for trial := 0; trial < 400; trial++ {
		f := pauli.NewFrame(l.NumQubits())
		mask := ch.SampleErasure(rng, f, targets)
		erased := make([]bool, l.NumQubits())
		for i, e := range mask {
			if e {
				erased[targets[i]] = true
			}
		}
		syn := g.Syndrome(f)
		c, err := u.DecodeErasure(g, erased, syn)
		if err != nil {
			t.Fatal(err)
		}
		if err := decoder.Validate(g, syn, c); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, q := range c.Support() {
			if !erased[q] {
				t.Fatalf("trial %d: correction used un-erased qubit %d", trial, q)
			}
		}
		res := f.Clone()
		res.ApplyFrame(c.Frame(l, lattice.ZErrors))
		if res.ParityZ(cut) == 1 {
			failures++
		}
	}
	// pe = 0.15 is far below the ~50% erasure threshold: failures must
	// be rare.
	if failures > 20 {
		t.Errorf("%d/400 logical failures at pe=0.15", failures)
	}
}

func TestDecodeErasureValidation(t *testing.T) {
	l := lattice.MustNew(3)
	g := l.MatchingGraph(lattice.ZErrors)
	u := New()
	if _, err := u.DecodeErasure(g, make([]bool, 3), make([]bool, g.NumChecks())); err == nil {
		t.Error("bad mask size accepted")
	}
}

func TestErasureChannelValidation(t *testing.T) {
	if _, err := noise.NewErasure(-0.1, pauli.Z); err == nil {
		t.Error("negative pe accepted")
	}
	if _, err := noise.NewErasure(0.1, pauli.I); err == nil {
		t.Error("identity erasure op accepted")
	}
	ch, _ := noise.NewErasure(0.2, pauli.X)
	if ch.String() != "erasure(pe=0.2,X)" {
		t.Error(ch.String())
	}
}
