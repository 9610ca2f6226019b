package sfq

import (
	"fmt"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
)

// Stats reports what one Decode call did, in mesh clock cycles.
type Stats struct {
	Cycles           int // total mesh clocks consumed
	Pairings         int // completed pairings (incl. boundary pairings)
	BoundaryPairings int // pairings whose second endpoint was a boundary
	Resets           int // global resets triggered by completed pairings
	Retries          int // stall-recovery resets (rotated grant priority)
	Stalls           int // quiescent stalls, incl. ones recovered by retry or drain
	Fallbacks        int // hot modules drained to a boundary by the watchdog
	Unresolved       int // hot modules the pairing protocol gave up on (drained
	// by the watchdog when the variant has boundaries — see Fallbacks —
	// or left hot otherwise)
}

// GaveUp reports whether the pairing protocol failed on any hot module:
// either the watchdog drained chains to a boundary (Fallbacks) or hot
// modules were left unpaired (Unresolved counts both cases). Escalation
// policies use this as their "mesh is not confident" signal.
func (s Stats) GaveUp() bool { return s.Unresolved > 0 }

// TimeNs converts the cycle count to nanoseconds at the synthesized
// full-circuit latency.
func (s Stats) TimeNs() float64 { return float64(s.Cycles) * CycleTimePs / 1000 }

// Mesh is the SFQ decoder: a (2d+1)×(2d+1) grid of decoder modules (the
// (2d−1)² per-qubit modules ringed by boundary modules) bound to one
// matching graph, decoding one syndrome at a time. It is the batch
// kernel at one lane: a private single-lane BatchMesh does the
// stepping, so scalar and batched decodes share one production kernel.
// A Mesh is reusable across Decode calls but not safe for concurrent
// use.
type Mesh struct {
	b *BatchMesh // the one-lane kernel

	// MaxCycles bounds one decode; the mesh gives up (draining to a
	// boundary when the variant has one) beyond it. Defaults to
	// 200 × mesh side; read at every decode.
	MaxCycles int

	stats Stats
	one   [1][]bool
	span  [1][2]int32

	// Pool bookkeeping (see Pool): which pool handed this mesh out, and
	// whether it is currently parked on a free list.
	owner  *Pool
	pooled bool
}

// obsFlushEvery is how many decodes a mesh accumulates before merging
// its private cycle histogram into the shared registry — the amortized
// flush keeps shared-cache-line traffic off the per-decode path while
// /metrics scrapes stay at most a few dozen decodes stale.
const obsFlushEvery = 64

// New builds a decoder mesh for the matching graph with the given design
// variant.
func New(g *lattice.Graph, v Variant) *Mesh {
	b := NewBatchWithLanes(g, v, 1)
	return &Mesh{b: b, MaxCycles: b.MaxCycles}
}

// Name implements decoder.Decoder.
func (m *Mesh) Name() string { return "sfq-" + m.b.variant.Name() }

// Variant returns the mesh's design variant.
func (m *Mesh) Variant() Variant { return m.b.variant }

// Stats returns the statistics of the most recent Decode call.
func (m *Mesh) Stats() Stats { return m.stats }

// Reset returns the mesh to its idle state. Decode calls reset
// internally; pools call Reset before parking a mesh so a stale decode's
// state is never carried across owners.
func (m *Mesh) Reset() {
	m.b.Reset()
	m.stats = Stats{}
}

// Decode implements decoder.Decoder. The graph must be structurally
// identical to the one the mesh was built for.
func (m *Mesh) Decode(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
	if !m.b.compatible(g) {
		return decoder.Correction{}, fmt.Errorf("sfq: mesh bound to a different matching graph")
	}
	c, _, err := m.DecodeWithStats(syn)
	return c, err
}

// DecodeInto implements decodepool.IntoDecoder: it decodes with zero
// heap allocations, appending the correction into the scratch's pooled
// qubit buffer. Cycle statistics remain available via Stats.
func (m *Mesh) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	if !m.b.compatible(g) {
		return decoder.Correction{}, fmt.Errorf("sfq: mesh bound to a different matching graph")
	}
	q, err := m.decodeAppend(syn, s.TakeQubits())
	return s.PutQubits(q), err
}

// DecodeWithStats runs the mesh on the syndrome and also returns cycle
// statistics. The returned correction may leave checks uncleared when
// the design variant cannot resolve them (Stats.Unresolved counts them);
// the final variant resolves everything it is given.
func (m *Mesh) DecodeWithStats(syn []bool) (decoder.Correction, Stats, error) {
	q, err := m.decodeAppend(syn, nil)
	if err != nil {
		return decoder.Correction{}, Stats{}, err
	}
	return decoder.Correction{Qubits: q}, m.stats, nil
}

// decodeAppend is the shared decode core: it appends the corrected
// qubit indices to q (which may be nil or a recycled buffer) and leaves
// statistics in m.stats. The lane's cycle sample lands in the kernel's
// telemetry recorder, the only one the mesh has, so every decode is
// counted exactly once.
func (m *Mesh) decodeAppend(syn []bool, q []int) ([]int, error) {
	if n := m.b.g.NumChecks(); len(syn) != n {
		return q, fmt.Errorf("sfq: syndrome has %d checks, graph has %d", len(syn), n)
	}
	m.b.MaxCycles = m.MaxCycles
	m.one[0] = syn
	q = m.b.run(m.one[:], m.span[:], q)
	m.one[0] = nil
	m.stats = m.b.statsBuf[0]
	return q, nil
}

// FlushObs merges any pending telemetry into the shared registry
// histograms. The pool calls it when a mesh is parked; call it directly
// before scraping when a mesh is long-lived outside a pool.
func (m *Mesh) FlushObs() { m.b.FlushObs() }

var (
	_ decoder.Decoder        = (*Mesh)(nil)
	_ decodepool.IntoDecoder = (*Mesh)(nil)
)
