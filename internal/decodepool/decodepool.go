// Package decodepool implements the zero-allocation decode hot path:
// memoized matching-graph geometry shared read-only across workers, and
// per-worker scratch arenas that decoders reuse across calls.
//
// The paper's central constraint is that decoding must finish inside one
// syndrome round (§III), so per-decode latency — not just logical
// accuracy — is a product of this repository. Profiling the Monte-Carlo
// sweeps shows most decode wall-clock goes to two avoidable costs:
// re-deriving matching-graph geometry (distances, decoding edges) on
// every call, and allocating fresh slices for hot lists, matcher state
// and correction buffers. This package removes both:
//
//   - Geometry tables (all-pairs Dist, BoundaryDist and the union-find
//     decoding-edge list) are computed once per (distance, error type)
//     and served from a process-wide cache. The tables are immutable
//     after construction, so any number of worker goroutines share them
//     without synchronization beyond the cache lookup. Error chains are
//     not tabled: they follow in closed form from two check coordinates,
//     and decoders append the picked pairs' chains straight into the
//     correction buffer (lattice.Graph.AppendPathQubits).
//
//   - Scratch owns every mutable buffer a decoder needs. One Scratch
//     belongs to one worker (a Monte-Carlo shard, one simulator); it is
//     explicitly owned — never pooled through sync.Pool — so buffers
//     stay warm in cache and the steady state performs zero heap
//     allocations per decode.
//
// Decoders opt in by implementing IntoDecoder; Decode dispatches to the
// pooled path when available and falls back to decoder.Decoder's Decode
// otherwise. Each software decoder (greedy, mwpm, union-find, ml-exact)
// has one algorithm, its DecodeInto, and its Decode is DecodeInto on a
// fresh scratch, so the two entry points agree by construction. Greedy
// and MWPM differ only in how match.Boundary solves the hot checks, so
// both are MatchInto.
//
// Scratch ownership rules: the Correction returned by DecodeInto aliases
// the Scratch's correction buffer and is valid only until the next
// DecodeInto call with the same Scratch. Callers that need the qubit
// list beyond that must copy it.
package decodepool

import (
	"sync"
	"time"

	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/match"
	"repro/internal/obs"
)

// IntoDecoder is the zero-allocation extension of decoder.Decoder: a
// decoder that can run its hot path entirely inside caller-owned
// scratch. Implementations must return exactly the Correction the plain
// Decode would (same qubits, same order), with Qubits aliasing the
// scratch's buffer.
type IntoDecoder interface {
	decoder.Decoder
	DecodeInto(g *lattice.Graph, syn []bool, s *Scratch) (decoder.Correction, error)
}

// Decode routes through the pooled zero-allocation path when dec
// implements IntoDecoder and s is non-nil, and falls back to dec.Decode
// otherwise. The returned Correction follows the
// ownership rules of whichever path ran.
//
// When the scratch is instrumented (Scratch.Instrument), Decode samples
// wall-clock latency into the scratch's histogram. Sampling — rather
// than timing every call — matters at this layer: the greedy d = 5
// pooled decode runs in ~170 ns, so two clock reads per call would cost
// ~35% by themselves. A 1-in-every sample keeps the overhead inside the
// repository's ≤ 5% telemetry budget while still resolving the latency
// distribution the backlog model consumes.
func Decode(dec decoder.Decoder, g *lattice.Graph, syn []bool, s *Scratch) (decoder.Correction, error) {
	if id, ok := dec.(IntoDecoder); ok && s != nil {
		if s.obsHist != nil {
			tick := s.obsTick
			s.obsTick++
			if tick&s.obsMask == 0 {
				// One timed decode stands in for its whole sample block:
				// the counter advances by the block size so the decode
				// count stays exact to within one block.
				s.obsCount.Add(int64(s.obsMask) + 1)
				start := time.Now()
				c, err := id.DecodeInto(g, syn, s)
				s.obsHist.Observe(uint64(time.Since(start)))
				return c, err
			}
		}
		return id.DecodeInto(g, syn, s)
	}
	return dec.Decode(g, syn)
}

// MatchInto is the whole DecodeInto of the greedy and MWPM decoders:
// it weighs the hot checks of syn on g's cached distance tables (each
// pair at its matching-graph distance, each check at its distance to
// the nearest boundary) in the scratch's match.Boundary, solves with
// solve — (*match.Boundary).Greedy or .Exact — and lays every pair's
// chain, then every boundary chain. The Correction aliases s.
func MatchInto(g *lattice.Graph, syn []bool, s *Scratch, solve func(*match.Boundary) ([][2]int32, []int32)) decoder.Correction {
	hot := s.HotChecks(syn)
	if len(hot) == 0 {
		return decoder.Correction{}
	}
	geo := For(g)
	bm := s.State("match", func() any { return new(match.Boundary) }).(*match.Boundary)
	bm.Reset(len(hot))
	for u, cu := range hot {
		bm.SetBoundary(u, geo.BoundaryDist(cu))
		for v := u + 1; v < len(hot); v++ {
			bm.SetPair(u, v, geo.Dist(cu, hot[v]))
		}
	}
	pairs, bnd := solve(bm)
	q := s.TakeQubits()
	for _, p := range pairs {
		q = g.AppendPathQubits(q, hot[p[0]], hot[p[1]])
	}
	for _, u := range bnd {
		q = g.AppendBoundaryPathQubits(q, hot[u])
	}
	return s.PutQubits(q)
}

// BatchDecoder is the batched extension of the pooled path: a decoder
// that advances several independent syndromes per call (the SWAR mesh
// kernel decodes BatchWidth of them in the same machine words).
// DecodeBatchInto must return one Correction per syndrome, in order,
// each bit-identical to what a one-at-a-time DecodeInto would produce;
// the Corrections and the returned slice alias the scratch's batch
// buffers and are valid until the next decode through the same scratch.
type BatchDecoder interface {
	decoder.Decoder
	// BatchWidth reports how many syndromes one call advances
	// concurrently (callers size their batches to a multiple of it).
	BatchWidth() int
	DecodeBatchInto(g *lattice.Graph, syns [][]bool, s *Scratch) ([]decoder.Correction, error)
}

// Geometry holds the immutable decode tables of one matching graph:
// all-pairs check distances, boundary distances and the union-find
// decoding edge list with boundary pendant vertices materialized: what
// the decode loops read per candidate pair, and no error chains. All
// methods are safe for concurrent use.
type Geometry struct {
	D int               // code distance
	E lattice.ErrorType // error type this graph decodes
	M int               // number of checks

	// Union-find view: NV vertices (checks 0..M-1 then boundary
	// pendants), Edges in lattice.Graph.DecodingEdges order, and
	// Endpoints numbering one fresh pendant vertex per boundary
	// endpoint, in edge order.
	NV        int
	Edges     []lattice.Edge
	Endpoints [][2]int32

	dist  []int32 // dist[i*M+j]
	bdist []int32 // bdist[i]
}

// Dist returns the matching-graph distance between checks i and j.
func (geo *Geometry) Dist(i, j int) int { return int(geo.dist[i*geo.M+j]) }

// BoundaryDist returns check i's distance to its nearest code boundary.
func (geo *Geometry) BoundaryDist(i int) int { return int(geo.bdist[i]) }

// geoKey identifies one geometry table. Graphs of equal distance and
// error type are structurally identical (checks index identically), so
// the cache is keyed by parameters, not by graph pointer — every worker
// rebuilding its own lattice still shares one table.
type geoKey struct {
	d int
	e lattice.ErrorType
}

var (
	geoMu    sync.RWMutex
	geoCache = map[geoKey]*Geometry{}
)

// For returns the memoized geometry of g, building it on first use.
// Concurrent warm-up is safe: racing builders construct private tables
// and the first one stored wins, so callers always observe one shared,
// fully built Geometry. The fast path takes a read lock and performs no
// allocation.
func For(g *lattice.Graph) *Geometry {
	k := geoKey{d: g.Lattice().Distance(), e: g.ErrorType()}
	geoMu.RLock()
	geo := geoCache[k]
	geoMu.RUnlock()
	if geo != nil {
		return geo
	}
	built := build(g)
	geoMu.Lock()
	if exist, ok := geoCache[k]; ok {
		built = exist
	} else {
		geoCache[k] = built
	}
	geoMu.Unlock()
	return built
}

// build derives every table from the graph's own geometry methods, so
// the cached values are definitionally identical to what those methods
// compute per call.
func build(g *lattice.Graph) *Geometry {
	m := g.NumChecks()
	geo := &Geometry{
		D: g.Lattice().Distance(),
		E: g.ErrorType(),
		M: m,

		dist:  make([]int32, m*m),
		bdist: make([]int32, m),
	}
	for i := 0; i < m; i++ {
		geo.bdist[i] = int32(g.BoundaryDist(i))
		for j := 0; j < m; j++ {
			geo.dist[i*m+j] = int32(g.Dist(i, j))
		}
	}
	// Union-find view: one fresh vertex per boundary endpoint, in edge
	// order.
	geo.Edges = g.DecodingEdges()
	geo.Endpoints = make([][2]int32, len(geo.Edges))
	nv := m
	for k, e := range geo.Edges {
		a, b := e.C1, e.C2
		if a == lattice.Boundary {
			a = nv
			nv++
		}
		if b == lattice.Boundary {
			b = nv
			nv++
		}
		geo.Endpoints[k] = [2]int32{int32(a), int32(b)}
	}
	geo.NV = nv
	return geo
}

// Scratch is one worker's reusable decode state. It is not safe for
// concurrent use: give each goroutine (each Monte-Carlo shard, each
// simulator) its own. The zero value is NOT ready; use NewScratch.
//
// Buffers grow to the high-water mark of the instances decoded through
// them and are then reused, so steady-state decoding allocates nothing.
type Scratch struct {
	hot    []int // hot-check list of the current call
	qubits []int // correction output buffer

	// Batch-decode buffers (see BatchDecoder): one shared qubit arena
	// all corrections of a batch append into, the per-syndrome
	// [start,end) spans over it, and the Correction views handed back.
	batchQ     []int
	batchSpans [][2]int32
	batchCorr  []decoder.Correction

	states map[string]any // per-decoder private state, keyed by decoder

	// Telemetry (see Instrument): nil obsHist means uninstrumented.
	obsHist  *obs.Histogram
	obsCount *obs.Counter
	obsMask  uint32 // sample every obsMask+1 decodes (power of two - 1)
	obsTick  uint32
}

// NewScratch returns an empty scratch arena.
func NewScratch() *Scratch {
	return &Scratch{states: make(map[string]any)}
}

// Instrument attaches latency telemetry to the scratch: Decode calls
// through it sample wall-clock time into hist (1 in every calls) and
// advance count by the sample-block size, keeping the decode count
// exact to within one block. every is rounded up to a power of two;
// every ≤ 0 selects the default of 16, and every = 1 times every call
// (tests use that to pin down exact counts). Passing a nil hist
// removes the instrumentation. The scratch's single-owner contract is
// unchanged — hist and count may be shared across scratches, the
// sampling state is private.
func (s *Scratch) Instrument(hist *obs.Histogram, count *obs.Counter, every int) {
	if hist == nil {
		s.obsHist, s.obsCount, s.obsMask, s.obsTick = nil, nil, 0, 0
		return
	}
	if every <= 0 {
		every = 16
	}
	mask := uint32(1)
	for int(mask) < every {
		mask <<= 1
	}
	s.obsHist = hist
	s.obsCount = count
	if s.obsCount == nil {
		s.obsCount = new(obs.Counter)
	}
	s.obsMask = mask - 1
	s.obsTick = 0
}

// HotChecks fills the scratch's hot-list buffer with the indices of the
// true entries of syn and returns it. The slice is valid until the next
// HotChecks call on this scratch.
func (s *Scratch) HotChecks(syn []bool) []int {
	hot := s.hot[:0]
	for i, h := range syn {
		if h {
			hot = append(hot, i)
		}
	}
	s.hot = hot
	return hot
}

// TakeQubits hands out the correction buffer, emptied. The caller
// appends correction qubits and passes the result to PutQubits.
func (s *Scratch) TakeQubits() []int { return s.qubits[:0] }

// PutQubits records the (possibly re-grown) correction buffer and wraps
// it in a Correction. The Correction aliases the scratch and is valid
// until the next decode through it.
func (s *Scratch) PutQubits(q []int) decoder.Correction {
	s.qubits = q
	return decoder.Correction{Qubits: q}
}

// TakeBatchQubits hands out the batch correction arena, emptied. Batch
// decoders append every lane's correction qubits to it and pass the
// result to PutBatchQubits.
func (s *Scratch) TakeBatchQubits() []int { return s.batchQ[:0] }

// PutBatchQubits records the (possibly re-grown) batch arena so the
// next batch reuses its capacity.
func (s *Scratch) PutBatchQubits(q []int) { s.batchQ = q }

// BatchSpans returns an n-element span buffer ([start,end) offsets into
// the batch arena, one per syndrome), reusing capacity. Valid until the
// next BatchSpans call on this scratch.
func (s *Scratch) BatchSpans(n int) [][2]int32 {
	if cap(s.batchSpans) < n {
		s.batchSpans = make([][2]int32, n)
	}
	s.batchSpans = s.batchSpans[:n]
	return s.batchSpans
}

// BatchCorrections returns an n-element Correction buffer, reusing
// capacity. Valid until the next BatchCorrections call on this scratch.
func (s *Scratch) BatchCorrections(n int) []decoder.Correction {
	if cap(s.batchCorr) < n {
		s.batchCorr = make([]decoder.Correction, n)
	}
	s.batchCorr = s.batchCorr[:n]
	return s.batchCorr
}

// State returns the per-decoder private state stored under key,
// building it with mk on first use. Decoder packages use it to keep
// typed, reusable internals (matcher arrays, union-find structures,
// sort buffers) inside a caller-owned Scratch without this package
// depending on them.
func (s *Scratch) State(key string, mk func() any) any {
	st, ok := s.states[key]
	if !ok {
		st = mk()
		s.states[key] = st
	}
	return st
}
