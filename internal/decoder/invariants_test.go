package decoder_test

import (
	"math/rand"
	"testing"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/decoder/greedy"
	"repro/internal/decoder/mwpm"
	"repro/internal/decoder/unionfind"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/pauli"
)

// randomSyndrome injects i.i.d. errors at rate p and returns the
// resulting syndrome.
func randomSyndrome(rng *rand.Rand, l *lattice.Lattice, g *lattice.Graph, p float64) []bool {
	op := pauli.Z
	if g.ErrorType() == lattice.XErrors {
		op = pauli.X
	}
	f := pauli.NewFrame(l.NumQubits())
	for _, s := range l.DataSites() {
		if rng.Float64() < p {
			f.Apply(l.QubitIndex(s), op)
		}
	}
	return g.Syndrome(f)
}

// The fundamental decoder invariant: every decoder's correction must
// reproduce the observed syndrome exactly, for every distance, error
// type and a wide range of error rates.
func TestAllDecodersClearSyndrome(t *testing.T) {
	decoders := []decoder.Decoder{greedy.New(), mwpm.New(), unionfind.New()}
	rng := noise.NewRand(17)
	for _, d := range []int{3, 5, 7, 9} {
		l := lattice.MustNew(d)
		for _, e := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			g := l.MatchingGraph(e)
			for _, p := range []float64{0.01, 0.05, 0.15, 0.3} {
				for trial := 0; trial < 25; trial++ {
					syn := randomSyndrome(rng, l, g, p)
					for _, dec := range decoders {
						c, err := dec.Decode(g, syn)
						if err != nil {
							t.Fatalf("%s d=%d %v p=%v: %v", dec.Name(), d, e, p, err)
						}
						if err := decoder.Validate(g, syn, c); err != nil {
							t.Fatalf("%s d=%d %v p=%v: %v", dec.Name(), d, e, p, err)
						}
					}
				}
			}
		}
	}
}

// MWPM's correction must never be heavier than greedy's (it is exact),
// and both corrections must clear the syndrome. (Greedy's classical
// 2-approximation guarantee is in likelihood weight, not chain length,
// so no multiplicative distance bound is asserted here.)
func TestGreedyNeverBeatsMWPM(t *testing.T) {
	gr, mw := greedy.New(), mwpm.New()
	s := decodepool.NewScratch()
	rng := noise.NewRand(23)
	for _, d := range []int{3, 5, 7} {
		l := lattice.MustNew(d)
		g := l.MatchingGraph(lattice.ZErrors)
		for trial := 0; trial < 200; trial++ {
			syn := randomSyndrome(rng, l, g, 0.08)
			cg, err := gr.DecodeInto(g, syn, s)
			if err != nil {
				t.Fatal(err)
			}
			if err := decoder.Validate(g, syn, cg); err != nil {
				t.Fatalf("greedy: %v", err)
			}
			wg := cg.Weight()
			cm, err := mw.DecodeInto(g, syn, s)
			if err != nil {
				t.Fatal(err)
			}
			if err := decoder.Validate(g, syn, cm); err != nil {
				t.Fatalf("mwpm: %v", err)
			}
			if wm := cm.Weight(); wm > wg {
				t.Fatalf("d=%d mwpm weight %d > greedy %d", d, wm, wg)
			}
		}
	}
}

// MWPM optimality cross-check: for tiny syndromes the optimal weight
// can be brute forced over all pairings.
func TestMWPMOptimalSmall(t *testing.T) {
	mw := mwpm.New()
	s := decodepool.NewScratch()
	rng := noise.NewRand(29)
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	for trial := 0; trial < 60; trial++ {
		syn := randomSyndrome(rng, l, g, 0.05)
		hot := lattice.HotChecks(syn)
		if len(hot) > 8 {
			continue
		}
		if got, want := mwpmWeight(t, mw, g, syn, s), bruteForceWeight(g, hot); got != want {
			t.Fatalf("trial %d: mwpm weight %d, optimal %d (hot=%v)", trial, got, want, hot)
		}
	}
}

// Single-error syndromes must be corrected perfectly by every decoder:
// the residual (error + correction) must be stabilizer-trivial AND not a
// logical operator.
func TestSingleErrorsCorrectedExactly(t *testing.T) {
	decoders := []decoder.Decoder{greedy.New(), mwpm.New(), unionfind.New()}
	for _, d := range []int{3, 5} {
		l := lattice.MustNew(d)
		g := l.MatchingGraph(lattice.ZErrors)
		cut := l.LogicalCutSupport(lattice.ZErrors)
		for _, s := range l.DataSites() {
			f := pauli.NewFrame(l.NumQubits())
			f.Set(l.QubitIndex(s), pauli.Z)
			syn := g.Syndrome(f)
			for _, dec := range decoders {
				c, err := dec.Decode(g, syn)
				if err != nil {
					t.Fatalf("%s: %v", dec.Name(), err)
				}
				res := f.Clone()
				res.ApplyFrame(c.Frame(l, lattice.ZErrors))
				for i, hot := range g.Syndrome(res) {
					if hot {
						t.Fatalf("%s d=%d error at %v: residual check %d hot", dec.Name(), d, s, i)
					}
				}
				if res.ParityZ(cut) != 0 {
					t.Fatalf("%s d=%d single error at %v became logical", dec.Name(), d, s)
				}
			}
		}
	}
}

func TestDecoderNames(t *testing.T) {
	if greedy.New().Name() != "greedy" || mwpm.New().Name() != "mwpm" || unionfind.New().Name() != "union-find" {
		t.Error("decoder names wrong")
	}
}
