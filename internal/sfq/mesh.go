package sfq

import "repro/internal/lattice"

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

// Mesh is the SFQ decoder at one lane: a (2d+1)×(2d+1) grid of
// decoder modules (the (2d−1)² per-qubit modules ringed by boundary
// modules) bound to one matching graph, decoding one syndrome at a
// time. It is the batch kernel itself, not a wrapper: New builds a
// one-lane BatchMesh, so every decode at every lane count runs one
// production kernel.
type Mesh = BatchMesh

// obsFlushEvery is how many decodes a mesh accumulates before merging
// its private cycle histogram into the shared registry — the amortized
// flush keeps shared-cache-line traffic off the per-decode path while
// /metrics scrapes stay at most a few dozen decodes stale.
const obsFlushEvery = 64

// New builds a one-lane decoder mesh for the matching graph with the
// given design variant.
func New(g *lattice.Graph, v Variant) *Mesh { return NewBatchWithLanes(g, v, 1) }
