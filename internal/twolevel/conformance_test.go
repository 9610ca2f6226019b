package twolevel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/decodepool"
	"repro/internal/decoder/mwpm"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/pauli"
	"repro/internal/sfq"
)

// The differential escalation conformance suite pins the two-level
// decoder against its two constituents: every non-escalated decode is
// bit-identical to the pure mesh, every escalated decode bit-identical
// to the pure MWPM decoder, and the verdict itself is identical between
// the scalar mesh and BatchMesh lanes at every lane width.

// testPolicies spans the trigger space: the default distress-signal
// policy, a hot-count threshold that fires on clean dense decodes, and
// a cycle threshold.
func testPolicies() map[string]Policy {
	return map[string]Policy{
		"default": DefaultPolicy(),
		"hot4":    {OnRetry: true, OnUnresolved: true, HotThreshold: 4},
		"cycle28": {CycleThreshold: 28},
	}
}

// corpusFor builds the weight-≤2 error corpus plus seeded random raw
// syndromes (the dense ones exercise stalls, drains and retries).
func corpusFor(l *lattice.Lattice, g *lattice.Graph, etype lattice.ErrorType) [][]bool {
	op := pauli.Z
	if etype == lattice.XErrors {
		op = pauli.X
	}
	errSyn := func(qs ...int) []bool {
		f := pauli.NewFrame(l.NumQubits())
		for _, q := range qs {
			f.Apply(q, op)
		}
		return g.Syndrome(f)
	}
	var qubits []int
	for _, site := range l.DataSites() {
		qubits = append(qubits, l.QubitIndex(site))
	}
	var syns [][]bool
	syns = append(syns, errSyn())
	for _, q := range qubits {
		syns = append(syns, errSyn(q))
	}
	step := 1
	if testing.Short() {
		step = 3
	}
	for i := 0; i < len(qubits); i += step {
		for j := i + 1; j < len(qubits); j += step {
			syns = append(syns, errSyn(qubits[i], qubits[j]))
		}
	}
	rng := rand.New(rand.NewSource(int64(400*l.Distance()) + int64(etype)))
	trials := 40
	if testing.Short() {
		trials = 12
	}
	for _, p := range []float64{0.05, 0.2} {
		for trial := 0; trial < trials; trial++ {
			syn := make([]bool, g.NumChecks())
			for j := range syn {
				syn[j] = rng.Float64() < p
			}
			syns = append(syns, syn)
		}
	}
	return syns
}

func synWeight(syn []bool) int {
	w := 0
	for _, h := range syn {
		if h {
			w++
		}
	}
	return w
}

func TestTwoLevelConformance(t *testing.T) {
	dists := []int{3, 5}
	if !testing.Short() {
		dists = append(dists, 7)
	}
	for _, d := range dists {
		l := lattice.MustNew(d)
		for _, etype := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			g := l.MatchingGraph(etype)
			syns := corpusFor(l, g, etype)
			for name, pol := range testPolicies() {
				pureMesh := sfq.New(g, sfq.Final)
				sAcc, sTL := decodepool.NewScratch(), decodepool.NewScratch()
				acc := mwpm.New()
				tl := New(sfq.New(g, sfq.Final), mwpm.New(), pol)

				wantCorr := make([]string, len(syns))
				wantEsc := make([]bool, len(syns))
				for i, syn := range syns {
					desc := fmt.Sprintf("d=%d %v pol=%s syn=%d", d, etype, name, i)
					cm, stm, err := pureMesh.DecodeWithStats(syn)
					if err != nil {
						t.Fatalf("%s: mesh: %v", desc, err)
					}
					if got, want := HotCount(stm), synWeight(syn); got != want {
						t.Fatalf("%s: HotCount=%d, syndrome weight %d (stats %+v)", desc, got, want, stm)
					}
					meshStr := fmt.Sprint(cm.Qubits)
					ca, err := acc.DecodeInto(g, syn, sAcc)
					if err != nil {
						t.Fatalf("%s: mwpm: %v", desc, err)
					}
					accStr := fmt.Sprint(ca.Qubits)

					ct, err := tl.DecodeInto(g, syn, sTL)
					if err != nil {
						t.Fatalf("%s: twolevel: %v", desc, err)
					}
					esc := pol.Escalate(stm)
					if tl.Escalated(0) != esc {
						t.Fatalf("%s: verdict %v, pure-mesh stats say %v (%+v)", desc, tl.Escalated(0), esc, stm)
					}
					got := fmt.Sprint(ct.Qubits)
					want := meshStr
					if esc {
						want = accStr
					}
					if got != want {
						t.Fatalf("%s: escalated=%v correction %s, want %s", desc, esc, got, want)
					}
					wantCorr[i], wantEsc[i] = want, esc
				}

				// Verdicts and corrections must be identical through the
				// batched face at every lane width.
				widths := []int{1, 2, sfq.MaxBatchLanes(d)}
				if testing.Short() {
					widths = []int{sfq.MaxBatchLanes(d)}
				}
				for _, w := range widths {
					tlb := NewBatch(sfq.NewBatchWithLanes(g, sfq.Final, w), mwpm.New(), pol)
					sB := decodepool.NewScratch()
					cs, err := tlb.DecodeBatchInto(g, syns, sB)
					if err != nil {
						t.Fatalf("d=%d %v pol=%s lanes=%d: %v", d, etype, name, w, err)
					}
					for i := range syns {
						desc := fmt.Sprintf("d=%d %v pol=%s lanes=%d syn=%d", d, etype, name, w, i)
						if tlb.Escalated(i) != wantEsc[i] {
							t.Fatalf("%s: batch verdict %v, scalar %v (lane stats %+v)",
								desc, tlb.Escalated(i), wantEsc[i], tlb.MeshStats(i))
						}
						if got := fmt.Sprint(cs[i].Qubits); got != wantCorr[i] {
							t.Fatalf("%s: batch correction %s, scalar %s", desc, got, wantCorr[i])
						}
					}
				}
			}
		}
	}
}

// TestTwoLevelCounters pins the decode/escalation accounting, including
// the obs mirror.
func TestTwoLevelCounters(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	// HotThreshold 1 escalates everything with a nonempty syndrome.
	tl := New(sfq.New(g, sfq.Final), mwpm.New(), Policy{HotThreshold: 1})
	reg := obs.NewRegistry()
	tl.Instrument(reg)
	s := decodepool.NewScratch()
	empty := make([]bool, g.NumChecks())
	one := make([]bool, g.NumChecks())
	one[3] = true
	for i := 0; i < 3; i++ {
		if _, err := tl.DecodeInto(g, empty, s); err != nil {
			t.Fatal(err)
		}
		if _, err := tl.DecodeInto(g, one, s); err != nil {
			t.Fatal(err)
		}
	}
	if tl.Decodes() != 6 || tl.Escalations() != 3 {
		t.Fatalf("decodes=%d escalations=%d, want 6/3", tl.Decodes(), tl.Escalations())
	}
	if got := reg.Counter("twolevel_decodes_total").Load(); got != 6 {
		t.Fatalf("obs decodes=%d, want 6", got)
	}
	if got := reg.Counter("twolevel_escalations_total").Load(); got != 3 {
		t.Fatalf("obs escalations=%d, want 3", got)
	}
}
