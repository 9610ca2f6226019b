package sfq

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/obs"
)

// BatchMesh is the SFQ mesh kernel: up to MaxBatchLanes(d) independent
// decoder meshes packed side by side into the same []uint64 planes, one
// word per row (see batchGeom), advanced by one shared fused wavefront
// step per clock (step.go), so every sweep progresses ⌊64/(2d+1)⌋
// in-flight decodes; a mesh wider than one word (side > 64, d ≥ 32)
// spans ⌈side/64⌉ words per row as a single lane. Mesh is this type,
// and New builds it at one lane.
//
// Lanes never interact — the lane masks stop every shift at the lane
// seam and all cross-plane operations are pure bitwise combinations —
// so each lane evolves exactly as a lone mesh would. Termination is per
// lane: each lane keeps its own hot counter, reset countdown, retry
// count and rotated grant priority, is checked against the stall and
// watchdog conditions between steps, and when it finishes its
// correction and Stats are extracted, the lane is scrubbed, and the
// next pending syndrome is loaded into it while the other lanes keep
// stepping. Dynamic refill keeps all lanes busy for the whole batch,
// which is what makes throughput approach B× rather than
// B/avg-vs-max. The conformance suite pins corrections and per-lane
// Stats bit-identical to the reference model (internal/sfq/oracle).
//
// The per-lane quiescence test leans on one invariant: every wavefront
// `any` flag is the exact OR of its current planes (signals are always
// accumulated with true ORs — including the initial grow emission — and
// lane scrubs clear plane bits and flag bits together), so
// `any & laneBits[l]` precisely answers "does lane l have a signal in
// flight".
//
// A BatchMesh is reusable across decodes but not safe for concurrent
// use.
type BatchMesh struct {
	g       *lattice.Graph
	variant Variant
	geo     *meshGeom
	bg      *batchGeom
	lanes   int

	// MaxCycles bounds each lane's decode; a lane gives up (draining to
	// a boundary when the variant has one) beyond it. Defaults to
	// 200 × mesh side; read at every decode.
	MaxCycles  int
	maxRetries int

	// Shared planes, all lanes side by side in each word. The 17 module
	// state planes lie back to back in state, in field order, so a reset
	// or scrub is one sweep; latches is the tail of state from fired on,
	// what laneGlobalReset clears.
	hot, errOut, fired, sentPair, granted []uint64
	growFrom, reqDirs, grants             [4][]uint64
	state, latches                        []uint64
	growW, reqW, grantW, pairW, pairBW    bwavefront

	// Per-lane control state.
	laneSyn       []int // syndrome index decoding in lane l, -1 when idle
	laneHot       []int // hot modules left in lane l
	laneCountdown []int // lane-local globalReset input-blocking countdown
	laneRetries   []int // stall-recovery resets spent by lane l
	lanePrio      []int // lane-local rotated grant priority offset
	laneStats     []Stats
	anyPrio       int // lanes with a nonzero priority offset (slow-path gate)

	// Dirty-band masks of the fused step (one bit per occupancy band, as
	// in planeSet.rows): fireDirty marks rows where fire eligibility may
	// have changed this step (a grow latch landed or a hot module
	// terminated), hsDirty where a handshake may have completed (a grant
	// was consumed). fireComplete visits only marked rows; see step.go
	// for the event analysis.
	fireDirty, hsDirty uint64

	// In-flight batch bookkeeping (valid only inside run).
	syns   [][]bool
	spans  [][2]int32
	q      []int
	next   int
	active int

	statsBuf []Stats // per-syndrome Stats of the last decode
	lastN    int

	one        [1][]bool // single-syndrome adapter buffer
	ownScratch *decodepool.Scratch
	tracer     Tracer // per-clock frame hook of lane 0

	obsCycles *obs.Local

	// Pool bookkeeping (see Pool): which pool handed this mesh out, and
	// whether it is currently parked on a free list.
	owner  *Pool
	pooled bool
}

// bwavefront is the double-buffered plane set of one signal class:
// sets[i] is the current buffer and sets[i^1] the next one. The
// per-clock swap flips i, a scalar write; swapping two pointers held in
// the (heap-allocated) mesh would pay a GC write barrier on every clock
// while a collection is marking.
type bwavefront struct {
	sets [2]planeSet
	i    int
}

// cur returns the buffer the phases read this clock.
func (w *bwavefront) cur() *planeSet { return &w.sets[w.i&1] }

// nxt returns the buffer the phases write this clock.
func (w *bwavefront) nxt() *planeSet { return &w.sets[w.i&1^1] }

func (w *bwavefront) swap() { w.i ^= 1 }

// planeSet is one buffer of a wavefront: a plane per travel direction,
// and two occupancy flags that every write into the set updates (mark):
//
//   - any is the exact OR of the set's words; it makes per-lane
//     quiescence checks O(1).
//   - rows has bit j set for every occupancy band j (a row, when
//     packed; see batchGeom) holding a nonzero word. It may also mark
//     bands that have since emptied, never miss one, so each phase
//     sweeps only the marked rows and their vertical neighbours, and
//     clear and maskLane touch only the marked rows.
type planeSet struct {
	dir  [4][]uint64
	any  uint64
	rows uint64
}

// init carves the wavefront's two plane sets out of backing, which must
// hold 8n words.
func (w *bwavefront) init(backing []uint64, n int) {
	for i := range w.sets {
		for d := range w.sets[i].dir {
			o := (4*i + d) * n
			w.sets[i].dir[d] = backing[o : o+n : o+n]
		}
	}
}

// mark records a write of the bits x into the bands rows of the set.
func (ps *planeSet) mark(rows, x uint64) {
	ps.any |= x
	ps.rows |= rows
}

// clear zeroes the marked rows of a plane set. An unmarked set is
// empty (any nonzero word lies in a marked row), so the common idle
// case stays inline.
func (ps *planeSet) clear(bg *batchGeom) {
	if ps.rows != 0 {
		ps.zero(bg.band, ps.rows)
		ps.any, ps.rows = 0, 0
	}
}

// zero zeroes the words of the given bands in every direction plane,
// leaving the flags to the caller.
func (ps *planeSet) zero(bd bandGeom, rows uint64) {
	pN, pE, pS, pW := ps.dir[North], ps.dir[East], ps.dir[South], ps.dir[West]
	for v := rows; v != 0; v &= v - 1 {
		lo, hi := bd.words(bits.TrailingZeros64(v))
		for k := lo; k < hi; k++ {
			pN[k], pE[k], pS[k], pW[k] = 0, 0, 0, 0
		}
	}
}

// NewBatch builds a SWAR batch mesh for the matching graph at the
// maximum lane count for its distance, MaxBatchLanes(d).
func NewBatch(g *lattice.Graph, v Variant) *BatchMesh {
	return NewBatchWithLanes(g, v, MaxBatchLanes(g.Lattice().Distance()))
}

// NewBatchWithLanes builds a batch mesh with an explicit lane count;
// counts outside [1, MaxBatchLanes(d)] are clamped to the maximum.
// Narrow batches exist for tests, for New (one lane), and for callers
// bounding batch latency.
func NewBatchWithLanes(g *lattice.Graph, v Variant, lanes int) *BatchMesh {
	geo := geomFor(g)
	if max := MaxBatchLanes(geo.d); lanes < 1 || lanes > max {
		lanes = max
	}
	b := &BatchMesh{
		g:          g,
		variant:    v,
		geo:        geo,
		bg:         batchGeomFor(g, lanes),
		lanes:      lanes,
		MaxCycles:  200 * geo.m,
		maxRetries: 3,
	}
	b.obsCycles = obs.NewLocal(obsFlushEvery,
		obs.Default().Histogram(fmt.Sprintf("sfq_decode_cycles_d%d", geo.d)))
	n := b.bg.n
	// One backing array for all planes: 5 state + 3×4 latch + 5×2×4
	// wavefront = 57 planes.
	backing := make([]uint64, 57*n)
	b.state, b.latches = backing[:17*n:17*n], backing[2*n:17*n:17*n]
	next := func(planes int) []uint64 {
		p := backing[: planes*n : planes*n]
		backing = backing[planes*n:]
		return p
	}
	b.hot, b.errOut, b.fired, b.sentPair, b.granted = next(1), next(1), next(1), next(1), next(1)
	for d := 0; d < 4; d++ {
		b.growFrom[d], b.reqDirs[d], b.grants[d] = next(1), next(1), next(1)
	}
	for _, w := range []*bwavefront{&b.growW, &b.reqW, &b.grantW, &b.pairW, &b.pairBW} {
		w.init(next(8), n)
	}
	b.laneSyn = make([]int, lanes)
	b.laneHot = make([]int, lanes)
	b.laneCountdown = make([]int, lanes)
	b.laneRetries = make([]int, lanes)
	b.lanePrio = make([]int, lanes)
	b.laneStats = make([]Stats, lanes)
	for l := range b.laneSyn {
		b.laneSyn[l] = -1
	}
	return b
}

// Name implements decoder.Decoder.
func (b *BatchMesh) Name() string { return "sfq-" + b.variant.Name() }

// Variant returns the mesh's design variant.
func (b *BatchMesh) Variant() Variant { return b.variant }

// Lanes returns how many syndromes one DecodeBatchInto call advances
// concurrently.
func (b *BatchMesh) Lanes() int { return b.lanes }

// BatchWidth implements decodepool.BatchDecoder.
func (b *BatchMesh) BatchWidth() int { return b.lanes }

// Stats returns the statistics of the most recent single-syndrome
// decode (of the first syndrome after a DecodeBatchInto call), or zero
// Stats after Reset. For batched decodes use LaneStats.
func (b *BatchMesh) Stats() Stats {
	if b.lastN == 0 {
		return Stats{}
	}
	return b.statsBuf[0]
}

// BatchStats returns the per-syndrome statistics of the last
// DecodeBatchInto call, indexed like its syndromes. The slice is valid
// until the next decode.
func (b *BatchMesh) BatchStats() []Stats { return b.statsBuf[:b.lastN] }

// LaneStats returns the statistics of syndrome i of the last batch.
func (b *BatchMesh) LaneStats(i int) Stats { return b.statsBuf[i] }

// Reset returns the mesh to its idle state; pools call it before
// parking so no stale decode state crosses owners.
func (b *BatchMesh) Reset() {
	b.resetAll()
	b.lastN = 0
}

// FlushObs merges pending telemetry into the shared registry
// histograms (one cycle sample was recorded per lane decode). The pool
// calls it when a mesh is parked; call it directly before scraping when
// a mesh is long-lived outside a pool.
func (b *BatchMesh) FlushObs() { b.obsCycles.Flush() }

// compatible reports whether g may be decoded on this mesh: pooled
// meshes accept any structurally identical graph.
func (b *BatchMesh) compatible(g *lattice.Graph) bool {
	if g == b.g {
		return true
	}
	return g.ErrorType() == b.g.ErrorType() &&
		g.Lattice().Distance() == b.g.Lattice().Distance() &&
		g.NumChecks() == b.g.NumChecks()
}

// Decode implements decoder.Decoder through lane 0. The graph must be
// structurally identical to the one the mesh was built for; the
// returned correction is private to the caller.
func (b *BatchMesh) Decode(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
	if b.ownScratch == nil {
		b.ownScratch = decodepool.NewScratch()
	}
	c, err := b.DecodeInto(g, syn, b.ownScratch)
	if err != nil {
		return decoder.Correction{}, err
	}
	return decoder.Correction{Qubits: append([]int(nil), c.Qubits...)}, nil
}

// DecodeWithStats decodes one syndrome on the mesh's own graph and also
// returns its cycle statistics. The correction is private to the
// caller and may leave checks uncleared when the design variant cannot
// resolve them (Stats.Unresolved counts them); the final variant
// resolves everything it is given.
func (b *BatchMesh) DecodeWithStats(syn []bool) (decoder.Correction, Stats, error) {
	c, err := b.Decode(b.g, syn)
	if err != nil {
		return decoder.Correction{}, Stats{}, err
	}
	return c, b.Stats(), nil
}

// DecodeInto implements decodepool.IntoDecoder: a single-syndrome
// decode through lane 0, zero allocations in steady state. The
// correction aliases the scratch's batch buffer and is valid until the
// next decode through it.
func (b *BatchMesh) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	b.one[0] = syn
	cs, err := b.DecodeBatchInto(g, b.one[:], s)
	b.one[0] = nil
	if err != nil {
		return decoder.Correction{}, err
	}
	return cs[0], nil
}

// DecodeBatchInto decodes the syndromes through the lane-packed kernel,
// refilling lanes from the pending queue as they finish, and returns
// one Correction per syndrome (same order). Corrections and the
// returned slice alias the scratch's batch buffers and are valid until
// the next decode through the same scratch; per-syndrome Stats are
// available via BatchStats/LaneStats. Zero heap allocations in steady
// state.
func (b *BatchMesh) DecodeBatchInto(g *lattice.Graph, syns [][]bool, s *decodepool.Scratch) ([]decoder.Correction, error) {
	if !b.compatible(g) {
		return nil, fmt.Errorf("sfq: mesh bound to a different matching graph")
	}
	nc := b.g.NumChecks()
	for i, syn := range syns {
		if len(syn) != nc {
			return nil, fmt.Errorf("sfq: syndrome %d has %d checks, graph has %d", i, len(syn), nc)
		}
	}
	spans := s.BatchSpans(len(syns))
	q := b.run(syns, spans, s.TakeBatchQubits())
	s.PutBatchQubits(q)
	return batchCorrections(s, q, spans), nil
}

// run is the decode core shared by every entry point: it decodes the
// (pre-validated) syndromes, appending each correction to q and
// recording its [start, end) range in spans and its Stats in statsBuf.
func (b *BatchMesh) run(syns [][]bool, spans [][2]int32, q []int) []int {
	n := len(syns)
	if cap(b.statsBuf) < n {
		b.statsBuf = make([]Stats, n)
	} else {
		b.statsBuf = b.statsBuf[:n]
	}
	b.lastN = n
	b.resetAll()
	b.syns, b.spans, b.q = syns, spans, q
	for l := 0; l < b.lanes && b.next < n; l++ {
		b.loadLaneNext(l)
	}
	for b.active > 0 {
		// Per-lane control flow, checked between every step in the
		// oracle's order: terminal, stall recovery, watchdog.
		for l := range b.laneSyn {
			if b.laneSyn[l] < 0 {
				continue
			}
			if b.laneHot[l] == 0 && b.pairW.cur().any&b.bg.laneBits[l] == 0 && b.laneCountdown[l] == 0 {
				b.finalizeLane(l)
				continue
			}
			if b.laneCountdown[l] == 0 && b.laneQuiescent(l) {
				st := &b.laneStats[l]
				st.Stalls++
				if b.variant.Reset && b.laneRetries[l] < b.maxRetries {
					b.laneRetries[l]++
					st.Retries++
					b.setLanePrio(l, b.laneRetries[l])
					b.laneGlobalReset(l)
				} else if b.variant.Boundary {
					st.Unresolved = b.laneHot[l]
					b.drainLane(l)
					b.finalizeLane(l)
					continue
				} else {
					st.Unresolved = b.laneHot[l]
					b.finalizeLane(l)
					continue
				}
			}
			if b.laneStats[l].Cycles >= b.MaxCycles {
				b.laneStats[l].Unresolved = b.laneHot[l]
				if b.variant.Boundary {
					b.drainLane(l)
				}
				b.finalizeLane(l)
			}
		}
		if b.active == 0 {
			break
		}
		b.step()
		if b.tracer != nil {
			b.tracer(b.laneStats[0].Cycles, b.render(0))
		}
	}
	q = b.q
	b.q, b.syns, b.spans = nil, nil, nil
	return q
}

// batchCorrections materializes the per-syndrome Correction views over
// the shared qubit buffer. Views are built only after all appends are
// done, so buffer re-growth mid-batch cannot invalidate earlier spans.
func batchCorrections(s *decodepool.Scratch, q []int, spans [][2]int32) []decoder.Correction {
	corr := s.BatchCorrections(len(spans))
	for i, sp := range spans {
		corr[i] = decoder.Correction{Qubits: q[sp[0]:sp[1]:sp[1]]}
	}
	return corr
}

// resetAll clears every plane and lane control. Every write into a
// wavefront marks its row, so clearing the marked rows of both buffers
// empties it.
func (b *BatchMesh) resetAll() {
	clearPlane(b.state)
	for _, w := range []*bwavefront{&b.growW, &b.reqW, &b.grantW, &b.pairW, &b.pairBW} {
		w.cur().clear(b.bg)
		w.nxt().clear(b.bg)
	}
	for l := range b.laneSyn {
		b.laneSyn[l] = -1
		b.laneHot[l] = 0
		b.laneCountdown[l] = 0
		b.laneRetries[l] = 0
		b.lanePrio[l] = 0
		b.laneStats[l] = Stats{}
	}
	b.anyPrio = 0
	b.fireDirty, b.hsDirty = 0, 0
	b.next = 0
	b.active = 0
}

// loadLaneNext loads the next pending syndrome into idle lane l.
// Zero-hot syndromes finalize immediately (the mesh is never clocked
// for them); the first syndrome with hot checks is loaded and its grow
// wavefronts emitted into the current planes — exactly the pre-loop
// state of a lone decode, so a lane loaded at global step T evolves
// identically to a lone decode at local step 0.
func (b *BatchMesh) loadLaneNext(l int) {
	geo, bg := b.geo, b.bg
	for b.next < len(b.syns) {
		idx := b.next
		b.next++
		syn := b.syns[idx]
		hot := 0
		for ci, h := range syn {
			if !h {
				continue
			}
			w, bit := bg.laneBit(l, geo.cellOf[ci])
			b.hot[w] |= bit
			hot++
		}
		if hot == 0 {
			off := int32(len(b.q))
			b.spans[idx] = [2]int32{off, off}
			b.statsBuf[idx] = Stats{}
			b.obsCycles.Observe(0)
			continue
		}
		b.laneSyn[l] = idx
		b.laneHot[l] = hot
		b.laneStats[l] = Stats{}
		// Emit grows in all four directions at every hot module of this
		// lane.
		b.emitGrows(b.growW.cur(), l)
		b.active++
		return
	}
}

// emitGrows ORs lane l's hot modules into all four direction planes of
// ps. The OR into the any flag is exact — per-lane quiescence tests
// depend on it.
func (b *BatchMesh) emitGrows(ps *planeSet, l int) {
	bg := b.bg
	lane := bg.laneBits[l]
	var acc, rows uint64
	for k, h := range b.hot[:bg.n] {
		hl := h & lane
		if hl == 0 {
			continue
		}
		ps.dir[North][k] |= hl
		ps.dir[East][k] |= hl
		ps.dir[South][k] |= hl
		ps.dir[West][k] |= hl
		acc |= hl
		rows |= bg.band.bit(k)
	}
	ps.mark(rows, acc)
}

// finalizeLane extracts lane l's finished correction and Stats, records
// its telemetry sample (one per lane decode), scrubs the lane's bits
// out of every plane, and refills the lane from the pending queue. The
// batch's last decode is left unscrubbed: nothing steps after it, the
// next run starts from resetAll, and Render shows its final state.
func (b *BatchMesh) finalizeLane(l int) {
	idx := b.laneSyn[l]
	start := int32(len(b.q))
	b.extractLane(l)
	b.spans[idx] = [2]int32{start, int32(len(b.q))}
	b.statsBuf[idx] = b.laneStats[l]
	b.obsCycles.Observe(uint64(b.laneStats[l].Cycles))
	b.laneSyn[l] = -1
	b.active--
	if b.active == 0 && b.next == len(b.syns) {
		return
	}
	b.scrubLane(l)
	b.loadLaneNext(l)
}

// extractLane appends lane l's correction to the batch qubit buffer in
// ascending cell order — the order the oracle scans errOut.
func (b *BatchMesh) extractLane(l int) {
	b.forLaneCells(b.errOut, l, func(i int) {
		if q0 := b.geo.dataQ[i]; q0 >= 0 {
			b.q = append(b.q, q0)
		}
	})
}

// forLaneCells calls f with the index of every cell of lane l set in
// plane p, in ascending cell order (rows, then columns).
func (b *BatchMesh) forLaneCells(p []uint64, l int, f func(i int)) {
	geo, bg := b.geo, b.bg
	shift := uint(l * geo.m)
	for r := 0; r < geo.m; r++ {
		for j := 0; j < bg.vs; j++ {
			w := p[r*bg.vs+j] >> shift & bg.laneLow
			for w != 0 {
				c := bits.TrailingZeros64(w)
				w &= w - 1
				f(r*geo.m + j*64 + c)
			}
		}
	}
}

// maskPlane clears the bits outside mask from every word of the plane;
// a zero mask is a plain clear.
func maskPlane(p []uint64, mask uint64) {
	if mask == 0 {
		clearPlane(p)
		return
	}
	for k := range p {
		p[k] &= mask
	}
}

// keepMask returns the state-plane mask that erases lane l: the
// complement of its lane bits, or zero in a one-lane layout, whose
// state planes hold no bit outside lane 0.
func (b *BatchMesh) keepMask(l int) uint64 {
	if b.lanes == 1 {
		return 0
	}
	return ^b.bg.laneBits[l]
}

// maskLane clears one lane's bits from the in-flight planes, touching
// only the marked rows and unmarking those it leaves empty. cur.any
// stays an exact OR of the remaining plane contents (lane masks are
// disjoint).
func (w *bwavefront) maskLane(bg *batchGeom, lane uint64) {
	ps := w.cur()
	if ps.any&lane == 0 {
		return
	}
	pN, pE, pS, pW := ps.dir[North], ps.dir[East], ps.dir[South], ps.dir[West]
	bd := bg.band
	var rows uint64
	for v := ps.rows; v != 0; v &= v - 1 {
		j := bits.TrailingZeros64(v)
		lo, hi := bd.words(j)
		var live uint64
		for k := lo; k < hi; k++ {
			pN[k] &^= lane
			pE[k] &^= lane
			pS[k] &^= lane
			pW[k] &^= lane
			live |= pN[k] | pE[k] | pS[k] | pW[k]
		}
		if live != 0 {
			rows |= 1 << uint(j)
		}
	}
	ps.any &^= lane
	ps.rows = rows
}

// scrubLane erases every trace of lane l so the lane is ready for the
// next syndrome. Next-cycle planes need no scrubbing: they hold only
// two-cycles-ago state that step clears before any phase reads it.
func (b *BatchMesh) scrubLane(l int) {
	bg := b.bg
	lane := bg.laneBits[l]
	maskPlane(b.state, b.keepMask(l))
	b.growW.maskLane(bg, lane)
	b.reqW.maskLane(bg, lane)
	b.grantW.maskLane(bg, lane)
	b.pairW.maskLane(bg, lane)
	b.pairBW.maskLane(bg, lane)
	b.laneHot[l] = 0
	b.laneCountdown[l] = 0
	b.laneRetries[l] = 0
	b.setLanePrio(l, 0)
}

// laneGlobalReset is the per-lane globalReset: everything but the
// lane's pair propagation and error outputs is cleared and the lane's
// inputs block for ResetDepth cycles.
func (b *BatchMesh) laneGlobalReset(l int) {
	bg := b.bg
	lane := bg.laneBits[l]
	maskPlane(b.latches, b.keepMask(l))
	b.growW.maskLane(bg, lane)
	b.reqW.maskLane(bg, lane)
	b.grantW.maskLane(bg, lane)
	// pair planes and errOut survive by design.
	b.laneCountdown[l] = ResetDepth
}

// setLanePrio updates a lane's rotated grant priority, maintaining the
// count of lanes away from the fixed hardware order (the fast-path gate
// in moveReqs).
func (b *BatchMesh) setLanePrio(l, v int) {
	if (b.lanePrio[l] == 0) != (v == 0) {
		if v == 0 {
			b.anyPrio--
		} else {
			b.anyPrio++
		}
	}
	b.lanePrio[l] = v
}

// laneQuiescent reports whether lane l has no signal of any kind in
// flight. Exact because the any flags are exact ORs (see type comment).
func (b *BatchMesh) laneQuiescent(l int) bool {
	return (b.growW.cur().any|b.reqW.cur().any|b.grantW.cur().any|b.pairW.cur().any)&
		b.bg.laneBits[l] == 0
}

// step advances every active lane one clock. The shared phases need no
// per-lane blocking: a lane mid-reset has empty grow/req/grant planes
// and latches (laneGlobalReset cleared them), so the input phases are
// natural no-ops for it, while pair signals keep propagating — exactly
// the oracle's blocked branch.
func (b *BatchMesh) step() {
	// The next-cycle planes still hold state from two cycles ago. The
	// grow planes have one writer ahead of the countdown's emitGrows,
	// moveGrows, which overwrites what it visits and clears the rest;
	// the other classes are ORed into by several phases, so they start
	// from clear planes.
	bg := b.bg
	b.reqW.nxt().clear(bg)
	b.grantW.nxt().clear(bg)
	b.pairW.nxt().clear(bg)
	b.pairBW.nxt().clear(bg)

	// Each phase runs only when its wavefront has a signal in flight
	// (the any flags are exact) and sweeps only the rows around it.
	var done uint64
	if b.growW.cur().any != 0 {
		b.moveGrows()
	} else {
		b.growW.nxt().clear(bg)
	}
	if b.reqW.cur().any != 0 {
		b.moveReqs()
	}
	if b.grantW.cur().any != 0 {
		b.moveGrants()
	}
	if b.pairW.cur().any != 0 {
		done = b.movePairs()
	}
	b.fireComplete()

	for l, cd := range b.laneCountdown {
		if cd == 0 {
			continue
		}
		b.laneCountdown[l] = cd - 1
		if cd == 1 {
			// The lane's blocking is over; its surviving hot modules
			// grow again next cycle.
			b.emitGrows(b.growW.nxt(), l)
		}
	}

	b.growW.swap()
	b.reqW.swap()
	b.grantW.swap()
	b.pairW.swap()
	b.pairBW.swap()
	for l, idx := range b.laneSyn {
		if idx >= 0 {
			b.laneStats[l].Cycles++
		}
	}
	if done != 0 && b.variant.Reset {
		for l := range b.laneSyn {
			if done&(uint64(1)<<uint(l)) != 0 {
				b.laneGlobalReset(l)
				b.laneStats[l].Resets++
			}
		}
	}
}

// drainLane is the watchdog: it force-pairs lane l's remaining hot
// modules with their nearest boundary in ascending cell order, toggling
// the error outputs along each straight-line chain and charging the
// lane's Stats the cycles the drive would take (request, grant and pair
// traversals plus a reset per pairing).
func (b *BatchMesh) drainLane(l int) {
	geo, bg := b.geo, b.bg
	st := &b.laneStats[l]
	b.forLaneCells(b.hot, l, func(i int) {
		d, hops := geo.drainDir(i)
		for j := geo.neighbor(i, d); j >= 0 && geo.kind[j] == cellInterior; j = geo.neighbor(j, d) {
			w, bit := bg.laneBit(l, j)
			b.errOut[w] ^= bit
		}
		w, bit := bg.laneBit(l, i)
		b.hot[w] &^= bit
		b.laneHot[l]--
		st.Fallbacks++
		st.Pairings++
		st.BoundaryPairings++
		st.Cycles += 3*hops + ResetDepth
	})
}

// render draws lane l's planes as one glyph per module (see Render).
func (b *BatchMesh) render(l int) string {
	geo, bg := b.geo, b.bg
	set := func(p []uint64, i int) bool {
		w, bit := bg.laneBit(l, i)
		return p[w]&bit != 0
	}
	anyDir := func(wf *bwavefront, i int) bool {
		ps := wf.cur()
		return set(ps.dir[North], i) || set(ps.dir[East], i) || set(ps.dir[South], i) || set(ps.dir[West], i)
	}
	var sb strings.Builder
	for i, kd := range geo.kind {
		switch {
		case kd == cellInert:
			sb.WriteString(" ")
		case set(b.hot, i):
			sb.WriteString("H")
		case anyDir(&b.pairW, i):
			sb.WriteString("P")
		case anyDir(&b.grantW, i):
			sb.WriteString("G")
		case anyDir(&b.reqW, i):
			sb.WriteString("r")
		case anyDir(&b.growW, i):
			sb.WriteString("*")
		case kd == cellInterior && set(b.errOut, i):
			sb.WriteString("#")
		case kd == cellBoundary:
			sb.WriteString("=")
		default:
			sb.WriteString("·")
		}
		if i%geo.m == geo.m-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

var (
	_ decoder.Decoder         = (*BatchMesh)(nil)
	_ decodepool.IntoDecoder  = (*BatchMesh)(nil)
	_ decodepool.BatchDecoder = (*BatchMesh)(nil)
)
