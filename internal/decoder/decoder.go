// Package decoder defines the interface shared by every surface-code
// decoder in this repository — the software greedy reference, the exact
// minimum-weight perfect-matching baseline, the union-find baseline, and
// the SFQ hardware mesh that is the paper's contribution — together with
// helpers for validating and applying corrections.
//
// A decoder consumes the syndrome measured on one matching graph (one
// error type) and produces a correction: a set of data qubits whose
// errors, composed with the true error, clear every check. The
// fundamental decoder invariant, enforced by Validate and exercised by
// property tests across all implementations, is that the returned
// correction produces exactly the observed syndrome.
package decoder

import (
	"fmt"
	"sort"

	"repro/internal/lattice"
	"repro/internal/pauli"
)

// Decoder maps an error syndrome to a correction.
type Decoder interface {
	// Name identifies the decoder in reports and benchmarks.
	Name() string
	// Decode returns the data-qubit indices to correct, given the
	// syndrome vector over g's checks (true = hot). Implementations
	// must return a correction whose syndrome equals syn.
	Decode(g *lattice.Graph, syn []bool) (Correction, error)
}

// Correction is a set of data qubits to flip. Qubit indices may repeat;
// repeats cancel in pairs (Pauli operators are self-inverse).
type Correction struct {
	Qubits []int
}

// Frame renders the correction as a Pauli frame over the whole device,
// using the Pauli operator matching the error type (Z for ZErrors).
func (c Correction) Frame(l *lattice.Lattice, e lattice.ErrorType) *pauli.Frame {
	op := pauli.Z
	if e == lattice.XErrors {
		op = pauli.X
	}
	f := pauli.NewFrame(l.NumQubits())
	for _, q := range c.Qubits {
		f.Apply(q, op)
	}
	return f
}

// Support returns the deduplicated, sorted qubit set after cancelling
// repeated entries in pairs.
func (c Correction) Support() []int {
	count := make(map[int]int)
	for _, q := range c.Qubits {
		count[q]++
	}
	var sup []int
	for q, n := range count {
		if n%2 == 1 {
			sup = append(sup, q)
		}
	}
	sort.Ints(sup)
	return sup
}

// Weight returns the number of qubits in the correction's support.
func (c Correction) Weight() int { return len(c.Support()) }

// Validate checks the fundamental decoder invariant: the correction's
// syndrome equals the input syndrome. It returns a descriptive error on
// the first mismatching check.
func Validate(g *lattice.Graph, syn []bool, c Correction) error {
	f := c.Frame(g.Lattice(), g.ErrorType())
	got := g.Syndrome(f)
	for i := range syn {
		if got[i] != syn[i] {
			return fmt.Errorf("decoder: check %d at %v: correction syndrome %v, want %v",
				i, g.CheckSite(i), got[i], syn[i])
		}
	}
	return nil
}
