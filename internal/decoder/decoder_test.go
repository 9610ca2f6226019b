package decoder_test

import (
	"testing"

	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/pauli"
)

func TestCorrectionSupportCancelling(t *testing.T) {
	c := decoder.Correction{Qubits: []int{3, 1, 3, 2, 1, 3}}
	sup := c.Support()
	want := []int{2, 3}
	if len(sup) != len(want) {
		t.Fatalf("Support=%v want %v", sup, want)
	}
	for i := range want {
		if sup[i] != want[i] {
			t.Fatalf("Support=%v want %v", sup, want)
		}
	}
	if c.Weight() != 2 {
		t.Errorf("Weight=%d want 2", c.Weight())
	}
}

func TestCorrectionFrame(t *testing.T) {
	l := lattice.MustNew(3)
	q := l.QubitIndex(lattice.Site{Row: 0, Col: 0})
	c := decoder.Correction{Qubits: []int{q, q, q}}
	f := c.Frame(l, lattice.ZErrors)
	if f.Get(q) != pauli.Z {
		t.Errorf("Z frame op = %v", f.Get(q))
	}
	f = c.Frame(l, lattice.XErrors)
	if f.Get(q) != pauli.X {
		t.Errorf("X frame op = %v", f.Get(q))
	}
	if f.Weight() != 1 {
		t.Errorf("triple application did not cancel to weight 1: %d", f.Weight())
	}
}

func TestValidateDetectsBadCorrection(t *testing.T) {
	l := lattice.MustNew(3)
	g := l.MatchingGraph(lattice.ZErrors)
	syn := make([]bool, g.NumChecks())
	// Empty syndrome, empty correction: valid.
	if err := decoder.Validate(g, syn, decoder.Correction{}); err != nil {
		t.Errorf("empty case invalid: %v", err)
	}
	// A stray single-qubit correction creates hot checks: invalid.
	q := l.QubitIndex(lattice.Site{Row: 1, Col: 1})
	if err := decoder.Validate(g, syn, decoder.Correction{Qubits: []int{q}}); err == nil {
		t.Error("Validate accepted syndrome-changing correction")
	}
}
