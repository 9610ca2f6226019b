package twolevel

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/decoder/mwpm"
	"repro/internal/lattice"
	"repro/internal/sfq"
)

// cutParity computes the homology class of a correction: the parity of
// its overlap with the logical cut for this error type. Two corrections
// of the same syndrome differ by a logical operator iff their parities
// differ.
func cutParity(l *lattice.Lattice, etype lattice.ErrorType, c decoder.Correction) int {
	onCut := map[int]bool{}
	for _, q := range l.LogicalCutSupport(etype) {
		onCut[q] = true
	}
	par := 0
	for _, q := range c.Support() {
		if onCut[q] {
			par ^= 1
		}
	}
	return par
}

// FuzzTwoLevel feeds fuzzer-chosen syndromes through the two-level
// decoder and checks the invariants that matter downstream: the final
// correction always clears the syndrome, non-escalated decodes are
// bit-identical to the pure mesh, escalated ones bit-identical to pure
// MWPM (hence in MWPM's homology class), and the batched face agrees
// with the scalar one.
func FuzzTwoLevel(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0x01, 0x80, 0x03})
	f.Add(uint8(1), uint8(1), []byte{0xff, 0x10, 0x00, 0x42})
	f.Add(uint8(2), uint8(2), []byte{0xaa, 0x55, 0xaa, 0x55, 0x0f})
	dists := []int{3, 5, 7}
	type target struct {
		l *lattice.Lattice
		g *lattice.Graph
	}
	targets := map[int]target{}
	for _, d := range dists {
		l := lattice.MustNew(d)
		targets[d] = target{l, l.MatchingGraph(lattice.ZErrors)}
	}
	policies := []Policy{
		DefaultPolicy(),
		{OnRetry: true, OnUnresolved: true, HotThreshold: 4},
		{CycleThreshold: 24},
	}
	f.Fuzz(func(t *testing.T, dSel, pSel uint8, synBytes []byte) {
		d := dists[int(dSel)%len(dists)]
		tg := targets[d]
		pol := policies[int(pSel)%len(policies)]
		nc := tg.g.NumChecks()
		syn := make([]bool, nc)
		if len(synBytes) > 0 {
			for i := 0; i < nc; i++ {
				syn[i] = synBytes[(i/8)%len(synBytes)]>>(i%8)&1 == 1
			}
		}

		mesh := sfq.New(tg.g, sfq.Final)
		cm, stm, err := mesh.DecodeWithStats(syn)
		if err != nil {
			t.Fatal(err)
		}
		meshStr := fmt.Sprint(cm.Qubits)
		sAcc := decodepool.NewScratch()
		ca, err := mwpm.New().DecodeInto(tg.g, syn, sAcc)
		if err != nil {
			t.Fatal(err)
		}
		accStr := fmt.Sprint(ca.Qubits)
		accPar := cutParity(tg.l, tg.g.ErrorType(), ca)

		tl := New(sfq.New(tg.g, sfq.Final), mwpm.New(), pol)
		s := decodepool.NewScratch()
		ct, err := tl.DecodeInto(tg.g, syn, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := decoder.Validate(tg.g, syn, ct); err != nil {
			t.Fatalf("two-level correction invalid: %v", err)
		}
		esc := pol.Escalate(stm)
		if tl.Escalated(0) != esc {
			t.Fatalf("verdict %v, want %v (stats %+v)", tl.Escalated(0), esc, stm)
		}
		got := fmt.Sprint(ct.Qubits)
		if esc {
			if got != accStr {
				t.Fatalf("escalated correction %s != mwpm %s", got, accStr)
			}
			if par := cutParity(tg.l, tg.g.ErrorType(), ct); par != accPar {
				t.Fatalf("escalated homology class %d != mwpm %d", par, accPar)
			}
		} else if got != meshStr {
			t.Fatalf("non-escalated correction %s != mesh %s", got, meshStr)
		}

		// Batched face: same verdicts, same corrections.
		tlb := NewBatch(sfq.NewBatchWithLanes(tg.g, sfq.Final, 1+int(dSel)%sfq.MaxBatchLanes(d)), mwpm.New(), pol)
		sB := decodepool.NewScratch()
		cs, err := tlb.DecodeBatchInto(tg.g, [][]bool{syn, syn, syn}, sB)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cs {
			if tlb.Escalated(i) != esc {
				t.Fatalf("batch lane %d verdict %v, scalar %v", i, tlb.Escalated(i), esc)
			}
			if bs := fmt.Sprint(cs[i].Qubits); bs != got {
				t.Fatalf("batch lane %d correction %s, scalar %s", i, bs, got)
			}
		}
	})
}

// TestEscalationRateMonotone is the testing/quick property: under
// coupled noise (one uniform draw per check, thresholded at each p, so
// syndromes only gain hot checks as p grows) the measured escalation
// rate is monotone non-decreasing in p. The hot-count trigger is
// per-instance monotone under this coupling; the stall/retry triggers
// are allowed a small slack.
func TestEscalationRateMonotone(t *testing.T) {
	l := lattice.MustNew(7)
	g := l.MatchingGraph(lattice.ZErrors)
	pol := Policy{OnRetry: true, OnUnresolved: true, HotThreshold: 4}
	mesh := sfq.New(g, sfq.Final)
	ps := []float64{0.02, 0.06, 0.12, 0.2}
	trials := 150
	if confShort() {
		trials = 60
	}
	u := make([]float64, g.NumChecks())
	syn := make([]bool, g.NumChecks())
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		counts := make([]int, len(ps))
		for trial := 0; trial < trials; trial++ {
			for j := range u {
				u[j] = rng.Float64()
			}
			for pi, p := range ps {
				for j := range syn {
					syn[j] = u[j] < p
				}
				_, st, err := mesh.DecodeWithStats(syn)
				if err != nil {
					t.Fatal(err)
				}
				if pol.Escalate(st) {
					counts[pi]++
				}
			}
		}
		for pi := 1; pi < len(ps); pi++ {
			if counts[pi]+3 < counts[pi-1] {
				t.Logf("seed %d: escalations %v not monotone at p=%v", seed, counts, ps[pi])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}
