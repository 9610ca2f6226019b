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

// Matching is the pairing structure matching-based decoders produce
// before converting to a correction: pairs of checks joined by chains,
// and checks joined to their nearest boundary.
type Matching struct {
	Pairs    [][2]int // paired check indices
	Boundary []int    // checks matched to a boundary
}

// Correction converts a matching into a correction by laying down the
// minimum-length chain for every pair and boundary match.
func (m Matching) Correction(g *lattice.Graph) Correction {
	var c Correction
	for _, p := range m.Pairs {
		c.Qubits = g.AppendPathQubits(c.Qubits, p[0], p[1])
	}
	for _, i := range m.Boundary {
		c.Qubits = g.AppendBoundaryPathQubits(c.Qubits, i)
	}
	return c
}

// Weight returns the total chain length of the matching on graph g.
func (m Matching) Weight(g *lattice.Graph) int {
	w := 0
	for _, p := range m.Pairs {
		w += g.Dist(p[0], p[1])
	}
	for _, i := range m.Boundary {
		w += g.BoundaryDist(i)
	}
	return w
}

// Covers reports whether the matching touches every hot check exactly
// once and no cold check.
func (m Matching) Covers(syn []bool) error {
	seen := make(map[int]int)
	for _, p := range m.Pairs {
		seen[p[0]]++
		seen[p[1]]++
	}
	for _, i := range m.Boundary {
		seen[i]++
	}
	for i, hot := range syn {
		switch n := seen[i]; {
		case hot && n != 1:
			return fmt.Errorf("decoder: hot check %d matched %d times", i, n)
		case !hot && n != 0:
			return fmt.Errorf("decoder: cold check %d matched %d times", i, n)
		}
	}
	return nil
}
