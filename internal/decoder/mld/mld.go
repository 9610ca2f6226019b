// Package mld implements exact maximum-likelihood decoding — the
// accuracy ceiling the paper's related work (§IV) attributes to
// tensor-network decoders. For each syndrome the decoder sums the
// probability of every error pattern in each logical coset and corrects
// with the likeliest coset, which is provably optimal for the i.i.d.
// channel. The sum is exact by enumeration, so the decoder is limited
// to small codes (distance 3: 2¹³ patterns per plane); it exists as the
// reference point the approximate decoders are measured against.
package mld

import (
	"fmt"
	"math"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/pauli"
)

// MaxDataQubits bounds the exact enumeration.
const MaxDataQubits = 20

// Decoder is the exact ML decoder for one matching graph at one error
// rate. Build it once per (graph, p); Decode is then a table lookup.
type Decoder struct {
	g *lattice.Graph
	p float64

	// class[syndrome][logical] holds the coset probability and a
	// minimum-weight representative pattern.
	prob [][2]float64
	rep  [][2]uint32
	reps [][2]int8 // representative weights; -1 marks an empty coset

	qubits []int // data-qubit indices, bit order of the pattern masks
}

// New enumerates the coset table. It fails for codes with more than
// MaxDataQubits data qubits or p outside (0, 1).
func New(g *lattice.Graph, p float64) (*Decoder, error) {
	n := g.Lattice().NumData()
	if n > MaxDataQubits {
		return nil, fmt.Errorf("mld: %d data qubits exceeds the exact-enumeration bound %d", n, MaxDataQubits)
	}
	if p <= 0 || p >= 1 {
		return nil, fmt.Errorf("mld: p=%v outside (0,1)", p)
	}
	d := &Decoder{g: g, p: p}
	l := g.Lattice()
	for _, s := range l.DataSites() {
		d.qubits = append(d.qubits, l.QubitIndex(s))
	}
	op := pauli.Z
	if g.ErrorType() == lattice.XErrors {
		op = pauli.X
	}

	// Per-qubit syndrome masks and cut parities, so each pattern's
	// syndrome is an XOR fold.
	synMask := make([]uint64, n)
	cutBit := make([]uint32, n)
	cut := map[int]bool{}
	for _, q := range l.LogicalCutSupport(g.ErrorType()) {
		cut[q] = true
	}
	for i, q := range d.qubits {
		f := pauli.NewFrame(l.NumQubits())
		f.Set(q, op)
		for c, hot := range g.Syndrome(f) {
			if hot {
				synMask[i] |= 1 << uint(c)
			}
		}
		if cut[q] {
			cutBit[i] = 1
		}
	}
	if g.NumChecks() > 63 {
		return nil, fmt.Errorf("mld: %d checks exceeds the syndrome-mask width", g.NumChecks())
	}

	size := 1 << uint(g.NumChecks())
	d.prob = make([][2]float64, size)
	d.rep = make([][2]uint32, size)
	d.reps = make([][2]int8, size)
	for i := range d.reps {
		d.reps[i] = [2]int8{-1, -1}
	}
	logP := math.Log(p)
	logQ := math.Log(1 - p)
	for pattern := 0; pattern < 1<<uint(n); pattern++ {
		var syn uint64
		var logical uint32
		w := 0
		for i := 0; i < n; i++ {
			if pattern&(1<<uint(i)) != 0 {
				syn ^= synMask[i]
				logical ^= cutBit[i]
				w++
			}
		}
		d.prob[syn][logical] += math.Exp(float64(w)*logP + float64(n-w)*logQ)
		if d.reps[syn][logical] < 0 || int8(w) < d.reps[syn][logical] {
			d.reps[syn][logical] = int8(w)
			d.rep[syn][logical] = uint32(pattern)
		}
	}
	return d, nil
}

// Name implements decoder.Decoder.
func (*Decoder) Name() string { return "ml-exact" }

// P returns the error rate the table was built for.
func (d *Decoder) P() float64 { return d.p }

// CosetProbs returns the two logical-coset probabilities of a syndrome
// (normalized over the syndrome's total probability).
func (d *Decoder) CosetProbs(syn []bool) (p0, p1 float64, err error) {
	idx, err := d.index(syn)
	if err != nil {
		return 0, 0, err
	}
	total := d.prob[idx][0] + d.prob[idx][1]
	if total == 0 {
		return 0, 0, fmt.Errorf("mld: syndrome unreachable by any error pattern")
	}
	return d.prob[idx][0] / total, d.prob[idx][1] / total, nil
}

// Decode implements decoder.Decoder: it returns a minimum-weight
// representative of the likeliest logical coset (DecodeInto on a fresh
// scratch).
func (d *Decoder) Decode(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
	return d.DecodeInto(g, syn, decodepool.NewScratch())
}

// DecodeInto implements decodepool.IntoDecoder: one table lookup, with
// the correction emitted into the caller's scratch buffer. The returned
// Correction aliases s.
func (d *Decoder) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	pattern, err := d.pattern(g, syn)
	if err != nil {
		return decoder.Correction{}, err
	}
	q := s.TakeQubits()
	for i, qb := range d.qubits {
		if pattern&(1<<uint(i)) != 0 {
			q = append(q, qb)
		}
	}
	return s.PutQubits(q), nil
}

// pattern resolves the syndrome to the stored minimum-weight
// representative of the likeliest logical coset.
func (d *Decoder) pattern(g *lattice.Graph, syn []bool) (uint32, error) {
	// Structural compatibility: any graph of the same distance and
	// error type indexes checks identically.
	if g.ErrorType() != d.g.ErrorType() || g.Lattice().Distance() != d.g.Lattice().Distance() {
		return 0, fmt.Errorf("mld: decoder bound to a %v distance-%d graph",
			d.g.ErrorType(), d.g.Lattice().Distance())
	}
	idx, err := d.index(syn)
	if err != nil {
		return 0, err
	}
	logical := 0
	if d.prob[idx][1] > d.prob[idx][0] {
		logical = 1
	}
	if d.reps[idx][logical] < 0 {
		// The preferred coset is empty (cannot happen for valid
		// syndromes of this code, but stay defensive).
		logical ^= 1
	}
	if d.reps[idx][logical] < 0 {
		return 0, fmt.Errorf("mld: no pattern produces this syndrome")
	}
	return d.rep[idx][logical], nil
}

// index packs a syndrome vector into the table key.
func (d *Decoder) index(syn []bool) (uint64, error) {
	if len(syn) != d.g.NumChecks() {
		return 0, fmt.Errorf("mld: syndrome has %d checks, graph has %d", len(syn), d.g.NumChecks())
	}
	var idx uint64
	for i, hot := range syn {
		if hot {
			idx |= 1 << uint(i)
		}
	}
	return idx, nil
}

var (
	_ decoder.Decoder        = (*Decoder)(nil)
	_ decodepool.IntoDecoder = (*Decoder)(nil)
)
