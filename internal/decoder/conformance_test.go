package decoder_test

import (
	"testing"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/decoder/greedy"
	"repro/internal/decoder/mld"
	"repro/internal/decoder/mwpm"
	"repro/internal/decoder/unionfind"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/pauli"
)

// conformanceSyndromes enumerates every weight-0, weight-1 and weight-2
// error pattern of the lattice plus seeded random syndromes, giving the
// conformance suite and the correction golden deterministic, exhaustive
// low-weight coverage and some high-weight stress.
func conformanceSyndromes(t *testing.T, l *lattice.Lattice, g *lattice.Graph) [][]bool {
	t.Helper()
	op := pauli.Z
	if g.ErrorType() == lattice.XErrors {
		op = pauli.X
	}
	sites := l.DataSites()
	var syns [][]bool
	syns = append(syns, make([]bool, g.NumChecks())) // weight 0
	for a := 0; a < len(sites); a++ {
		f := pauli.NewFrame(l.NumQubits())
		f.Set(l.QubitIndex(sites[a]), op)
		syns = append(syns, g.Syndrome(f))
		for b := a + 1; b < len(sites); b++ {
			f2 := pauli.NewFrame(l.NumQubits())
			f2.Set(l.QubitIndex(sites[a]), op)
			f2.Set(l.QubitIndex(sites[b]), op)
			syns = append(syns, g.Syndrome(f2))
		}
	}
	rng := noise.NewRand(int64(31 + l.Distance()))
	for trial := 0; trial < 50; trial++ {
		syns = append(syns, randomSyndrome(rng, l, g, 0.08))
	}
	return syns
}

// Every decoder must clear every conformance syndrome, and its output
// must not depend on scratch history: decoding on one scratch reused
// across every case returns exactly the qubit sequence a fresh scratch
// returns. TestCorrectionGolden pins the sequences themselves.
func TestConformanceValidAndScratchIndependent(t *testing.T) {
	for _, d := range []int{3, 5, 9} {
		l := lattice.MustNew(d)
		for _, e := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			g := l.MatchingGraph(e)
			decoders := []decodepool.IntoDecoder{greedy.New(), mwpm.New(), unionfind.New()}
			if l.NumData() <= mld.MaxDataQubits {
				ml, err := mld.New(g, 0.01)
				if err != nil {
					t.Fatal(err)
				}
				decoders = append(decoders, ml)
			}
			syns := conformanceSyndromes(t, l, g)
			reused := decodepool.NewScratch()
			for _, dec := range decoders {
				for si, syn := range syns {
					fresh, err := dec.DecodeInto(g, syn, decodepool.NewScratch())
					if err != nil {
						t.Fatalf("%s d=%d %v syn %d: fresh scratch: %v", dec.Name(), d, e, si, err)
					}
					if err := decoder.Validate(g, syn, fresh); err != nil {
						t.Fatalf("%s d=%d %v syn %d: correction invalid: %v", dec.Name(), d, e, si, err)
					}
					got, err := dec.DecodeInto(g, syn, reused)
					if err != nil {
						t.Fatalf("%s d=%d %v syn %d: reused scratch: %v", dec.Name(), d, e, si, err)
					}
					if !sameQubits(got.Qubits, fresh.Qubits) {
						t.Fatalf("%s d=%d %v syn %d: reused scratch %v != fresh scratch %v",
							dec.Name(), d, e, si, got.Qubits, fresh.Qubits)
					}
				}
			}
		}
	}
}

// The generic dispatcher must route through DecodeInto when given a
// scratch and fall back to dec.Decode without one, with identical
// results either way.
func TestConformanceDispatch(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	rng := noise.NewRand(37)
	s := decodepool.NewScratch()
	dec := mwpm.New()
	for trial := 0; trial < 20; trial++ {
		syn := randomSyndrome(rng, l, g, 0.08)
		pooled, err := decodepool.Decode(dec, g, syn, s)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := decodepool.Decode(dec, g, syn, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameQubits(pooled.Qubits, plain.Qubits) {
			t.Fatalf("trial %d: dispatch mismatch %v vs %v", trial, pooled.Qubits, plain.Qubits)
		}
	}
}

// MWPM is exact: the support weight of its correction must equal the
// true minimum error weight. At d=3 the oracle is the exact ML decoder's
// minimum-weight coset representative (at p=0.01 the lighter coset
// always dominates); at d=5 it is brute force over all pairings.
func TestConformanceMWPMWeightOptimal(t *testing.T) {
	mw := mwpm.New()
	s := decodepool.NewScratch()

	// d=3: every conformance syndrome against the MLD representative.
	l3 := lattice.MustNew(3)
	for _, e := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
		g := l3.MatchingGraph(e)
		ml, err := mld.New(g, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		for si, syn := range conformanceSyndromes(t, l3, g) {
			want, err := ml.Decode(g, syn)
			if err != nil {
				t.Fatalf("syn %d: mld: %v", si, err)
			}
			if got := mwpmWeight(t, mw, g, syn, s); got != len(want.Qubits) {
				t.Fatalf("d=3 %v syn %d: mwpm weight %d, ml minimum %d", e, si, got, len(want.Qubits))
			}
		}
	}

	// d=5: small syndromes against brute-force optimal pairing.
	l5 := lattice.MustNew(5)
	g := l5.MatchingGraph(lattice.ZErrors)
	for si, syn := range conformanceSyndromes(t, l5, g) {
		hot := lattice.HotChecks(syn)
		if len(hot) > 8 {
			continue
		}
		if got, want := mwpmWeight(t, mw, g, syn, s), bruteForceWeight(g, hot); got != want {
			t.Fatalf("d=5 syn %d: mwpm weight %d, brute-force optimum %d (hot=%v)", si, got, want, hot)
		}
	}
}

// mwpmWeight decodes syn on the pooled path and returns the support
// weight of the correction.
func mwpmWeight(t *testing.T, mw *mwpm.Decoder, g *lattice.Graph, syn []bool, s *decodepool.Scratch) int {
	t.Helper()
	c, err := mw.DecodeInto(g, syn, s)
	if err != nil {
		t.Fatal(err)
	}
	return c.Weight()
}

// bruteForceWeight is the minimum total chain length over every way of
// pairing the hot checks with each other or with the boundary.
func bruteForceWeight(g *lattice.Graph, hot []int) int {
	if len(hot) == 0 {
		return 0
	}
	h, rest := hot[0], hot[1:]
	best := g.BoundaryDist(h) + bruteForceWeight(g, rest)
	for i, other := range rest {
		sub := make([]int, 0, len(rest)-1)
		sub = append(sub, rest[:i]...)
		sub = append(sub, rest[i+1:]...)
		if w := g.Dist(h, other) + bruteForceWeight(g, sub); w < best {
			best = w
		}
	}
	return best
}

// sameQubits compares correction contents, treating a nil and a non-nil
// empty qubit list as equal.
func sameQubits(a, b []int) bool {
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
