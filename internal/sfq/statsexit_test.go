package sfq_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/decodepool"
	"repro/internal/lattice"
	"repro/internal/sfq"
)

// Every Decode exit path must populate Stats the same way on every
// decode path (the oracle, the one-lane Mesh, a full-width batch), and
// no give-up may be silent: a decode where the pairing protocol failed
// on some module always shows Unresolved > 0 (with Fallbacks ==
// Unresolved when the watchdog drained them). Escalation policies in
// internal/twolevel key off these fields, so a path that forgot to set
// one would silently skip escalations.

// exitClass buckets a Stats value by which control-flow exit produced it.
func exitClass(st sfq.Stats) string {
	switch {
	case st.Fallbacks > 0:
		return "drain"
	case st.Unresolved > 0:
		return "giveup"
	case st.Retries > 0:
		return "retry-recovered"
	default:
		return "clean"
	}
}

// decodeAllPaths runs one syndrome through the oracle, a one-lane Mesh
// and a full-width batch decode, asserts corrections and Stats agree,
// and returns the shared Stats. maxCycles > 0 overrides every path's
// MaxCycles after construction.
func decodeAllPaths(t *testing.T, g *lattice.Graph, v sfq.Variant, maxCycles int, syn []bool, s *decodepool.Scratch) sfq.Stats {
	t.Helper()
	ref := oracleDecode(t, g, v, maxCycles, [][]bool{syn})[0]
	mesh := sfq.New(g, v)
	bat := sfq.NewBatch(g, v)
	if maxCycles > 0 {
		mesh.MaxCycles, bat.MaxCycles = maxCycles, maxCycles
	}
	cm, stm, err := mesh.DecodeWithStats(syn)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := bat.DecodeBatchInto(g, [][]bool{syn}, s)
	if err != nil {
		t.Fatal(err)
	}
	stb := bat.LaneStats(0)
	if ref.st != stm || stm != stb {
		t.Fatalf("%s: stats diverge:\noracle %+v\nmesh   %+v\nbatch  %+v", v.Name(), ref.st, stm, stb)
	}
	if !slices.Equal(ref.q, cm.Qubits) || !slices.Equal(ref.q, corr[0].Qubits) {
		t.Fatalf("%s: corrections diverge: oracle %v, mesh %v, batch %v", v.Name(), ref.q, cm.Qubits, corr[0].Qubits)
	}
	return stm
}

// checkExitInvariants asserts the cross-path Stats contract.
func checkExitInvariants(t *testing.T, v sfq.Variant, st sfq.Stats, desc string) {
	t.Helper()
	if st.Retries > st.Stalls {
		t.Fatalf("%s: Retries=%d > Stalls=%d (every retry is a stall)", desc, st.Retries, st.Stalls)
	}
	if st.Fallbacks > 0 && st.Unresolved != st.Fallbacks {
		t.Fatalf("%s: drained exit with Unresolved=%d != Fallbacks=%d", desc, st.Unresolved, st.Fallbacks)
	}
	if !v.Boundary && st.Fallbacks > 0 {
		t.Fatalf("%s: boundary-less variant drained: %+v", desc, st)
	}
	if !v.Reset && st.Retries > 0 {
		t.Fatalf("%s: reset-less variant retried: %+v", desc, st)
	}
}

// TestStatsExitPathParity drives dense raw syndromes (heavy stall/drain
// traffic) through all variants and all decode paths and pins Stats
// equality plus the give-up invariants on every exit path reached.
func TestStatsExitPathParity(t *testing.T) {
	seen := map[string]map[string]bool{}
	trials := 40
	if testing.Short() {
		// 16 is the smallest budget at which the seeded corpus still
		// reaches every exit class asserted below.
		trials = 16
	}
	for _, d := range []int{3, 5, 9} {
		l := lattice.MustNew(d)
		for _, etype := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			g := l.MatchingGraph(etype)
			for _, v := range variants {
				s := decodepool.NewScratch()
				rng := rand.New(rand.NewSource(int64(71*d) + int64(etype)))
				for _, p := range []float64{0.15, 0.3} {
					for trial := 0; trial < trials; trial++ {
						syn := make([]bool, g.NumChecks())
						for j := range syn {
							syn[j] = rng.Float64() < p
						}
						st := decodeAllPaths(t, g, v, 0, syn, s)
						desc := fmt.Sprintf("d=%d %v %s p=%g trial=%d", d, etype, v.Name(), p, trial)
						checkExitInvariants(t, v, st, desc)
						if seen[v.Name()] == nil {
							seen[v.Name()] = map[string]bool{}
						}
						seen[v.Name()][exitClass(st)] = true
					}
				}
			}
		}
	}
	// The corpus must actually exercise the give-up paths, or the parity
	// checks above prove nothing. Pinned from the seeded corpus; the
	// remaining paths (drain for resets+boundaries, cycle-guard exits)
	// are forced in TestStatsMaxCyclesExit.
	for variant, wants := range map[string][]string{
		"baseline":          {"clean", "giveup"},
		"resets":            {"clean", "giveup"},
		"resets+boundaries": {"clean"},
		"final":             {"clean", "drain", "retry-recovered"},
	} {
		for _, class := range wants {
			if !seen[variant][class] {
				t.Errorf("corpus never exercised %s exit %q (saw %v)", variant, class, seen[variant])
			}
		}
	}
}

// TestStatsMaxCyclesExit forces the cycle-guard exit with a tiny
// MaxCycles and checks it is never silent: Unresolved reports the hot
// modules the protocol failed on, drained or not, on every path. The
// Mesh reads its MaxCycles field at decode time, so setting it after New
// takes effect.
func TestStatsMaxCyclesExit(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	s := decodepool.NewScratch()
	rng := rand.New(rand.NewSource(5))
	syn := make([]bool, g.NumChecks())
	for j := range syn {
		syn[j] = rng.Float64() < 0.3
	}
	for _, v := range variants {
		st := decodeAllPaths(t, g, v, 2, syn, s)
		if st.Unresolved == 0 {
			t.Errorf("%s: MaxCycles exit left Unresolved=0: %+v", v.Name(), st)
		}
		if v.Boundary && st.Fallbacks != st.Unresolved {
			t.Errorf("%s: MaxCycles drain Fallbacks=%d != Unresolved=%d", v.Name(), st.Fallbacks, st.Unresolved)
		}
		if !v.Boundary && st.Fallbacks != 0 {
			t.Errorf("%s: boundary-less drain: %+v", v.Name(), st)
		}
		checkExitInvariants(t, v, st, v.Name())
	}
}
