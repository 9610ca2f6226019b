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
// decoder meshes packed d-major into the same []uint64 planes (see
// batchGeom), advanced by one shared fused wavefront step per clock
// (step.go). Planes are W words per row (W ∈ {1, 2, 4}; NewBatch
// uses BatchWords, picked from the CPU word size), so every sweep progresses
// W·⌊64/(2d+1)⌋ in-flight decodes; a mesh wider than one word (side
// > 64, d ≥ 32) spans ⌈side/64⌉ words per row as a single lane. Mesh is
// this kernel at one lane.
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
// `any` flag is the exact OR of its current planes in that flag's word
// column (signals are always accumulated with true ORs — including the
// initial grow emission — and lane scrubs clear plane bits and flag
// bits together), so `any[laneCol[l]] & laneBits[l]` precisely answers
// "does lane l have a signal in flight".
//
// A BatchMesh is reusable across DecodeBatchInto calls but not safe for
// concurrent use.
type BatchMesh struct {
	g       *lattice.Graph
	variant Variant
	geo     *meshGeom
	bg      *batchGeom
	lanes   int

	// MaxCycles bounds each lane's decode, as Mesh.MaxCycles does.
	MaxCycles  int
	maxRetries int

	// Shared planes, W words per row, all lanes interleaved.
	hot, errOut, fired, sentPair, granted []uint64
	growFrom, reqDirs, grants             [4][]uint64
	growW, reqW, grantW, pairW, pairBW    bwavefront

	// Per-lane control state.
	laneSyn       []int // syndrome index decoding in lane l, -1 when idle
	laneHot       []int // hot modules left in lane l
	laneCountdown []int // lane-local globalReset input-blocking countdown
	laneRetries   []int // stall-recovery resets spent by lane l
	lanePrio      []int // lane-local rotated grant priority offset
	laneStats     []Stats
	anyPrio       int // lanes with a nonzero priority offset (slow-path gate)

	// Dirty-word bitmaps of the fused step (one bit per plane word):
	// fireDirty marks words where fire eligibility may have changed this
	// step (a grow latch landed or a hot module terminated), hsDirty
	// where a handshake may have completed (a grant was consumed).
	// fireComplete visits only marked words; see step.go for the event
	// analysis.
	fireDirty, hsDirty []uint64

	// In-flight batch bookkeeping (valid only inside run).
	syns   [][]bool
	spans  [][2]int32
	q      []int
	next   int
	active int

	statsBuf []Stats // per-syndrome Stats of the last batch
	lastN    int
	stat     Stats // Stats of the last single-syndrome adapter decode

	one        [][]bool // single-syndrome adapter buffer
	ownScratch *decodepool.Scratch
	tracer     Tracer // per-clock frame hook of lane 0 (set through Mesh)

	obsCycles *obs.Local

	// Pool bookkeeping, mirroring Mesh.
	owner  *Pool
	pooled bool
}

// bwavefront is the double-buffered plane set of one signal class. The
// any flags are per-column OR-accumulators over every word written into
// the respective plane set (any[c] covers the words of column block c);
// they make per-lane quiescence checks O(1) and let the step and clear
// skip column blocks that are already zero. cur and nxt point into
// sets, so the per-clock swap is two pointer moves; a bwavefront must
// not be copied.
type bwavefront struct {
	cur, nxt *planeSet
	sets     [2]planeSet
}

// planeSet is one buffer of a wavefront: a plane per travel direction,
// laid out back to back in all so one clear covers the set.
type planeSet struct {
	dir [4][]uint64
	all []uint64
	any [4]uint64
}

// init carves the wavefront's two plane sets out of backing, which must
// hold 8n words.
func (w *bwavefront) init(backing []uint64, n int) {
	for i := range w.sets {
		ps := &w.sets[i]
		ps.all = backing[i*4*n : (i+1)*4*n : (i+1)*4*n]
		for d := range ps.dir {
			ps.dir[d] = ps.all[d*n : (d+1)*n : (d+1)*n]
		}
	}
	w.cur, w.nxt = &w.sets[0], &w.sets[1]
}

func (w *bwavefront) swap() { w.cur, w.nxt = w.nxt, w.cur }

// cols returns the set of lane columns (bit c for column c) with a
// signal of this class in flight.
func (w *bwavefront) cols() uint {
	a := &w.cur.any
	if a[1]|a[2]|a[3] == 0 {
		// Column 0 alone: every step of the one-lane mesh.
		if a[0] != 0 {
			return 1
		}
		return 0
	}
	var m uint
	for c, x := range a {
		if x != 0 {
			m |= 1 << uint(c)
		}
	}
	return m
}

// clear zeroes the column blocks of a plane set that anything was
// written into: the whole set in one sweep when every column was, else
// block by block.
func (ps *planeSet) clear(bg *batchGeom) {
	a := &ps.any
	if a[0]|a[1]|a[2]|a[3] == 0 {
		return
	}
	if bg.ncol == 1 || a[0] != 0 && a[1] != 0 && a[2] != 0 && a[3] != 0 {
		clearPlane(ps.all)
	} else {
		for c, a := range ps.any[:bg.ncol] {
			if a == 0 {
				continue
			}
			lo, hi := bg.block(c)
			for _, p := range ps.dir {
				clearPlane(p[lo:hi])
			}
		}
	}
	ps.any = [4]uint64{}
}

// orAny folds a phase's per-column accumulator into the next-cycle
// flags.
func (w *bwavefront) orAny(acc *[4]uint64) {
	w.nxt.any[0] |= acc[0]
	w.nxt.any[1] |= acc[1]
	w.nxt.any[2] |= acc[2]
	w.nxt.any[3] |= acc[3]
}

// NewBatch builds a SWAR batch mesh for the matching graph at the
// maximum lane width for its distance (W·⌊64/(2d+1)⌋ lanes at the
// process-wide BatchWords plane width).
func NewBatch(g *lattice.Graph, v Variant) *BatchMesh {
	return NewBatchWithLanes(g, v, MaxBatchLanes(g.Lattice().Distance()))
}

// NewBatchWithWidth builds a batch mesh with an explicit plane width in
// words (1, 2 or 4, fully occupied); other widths fall back to the
// process default. Explicit widths exist for the width-conformance
// tests and the bench harness.
func NewBatchWithWidth(g *lattice.Graph, v Variant, words int) *BatchMesh {
	if words != 1 && words != 2 && words != 4 {
		words = BatchWords
	}
	return NewBatchWithLanes(g, v, MaxBatchLanesAt(g.Lattice().Distance(), words))
}

// NewBatchWithLanes builds a batch mesh with an explicit lane count;
// widths outside [1, MaxBatchLanes(d)] are clamped to the maximum. The
// plane word count is the narrowest power-of-two layout that holds the
// lanes (⌈side/64⌉ for a mesh wider than a word). Narrow widths exist
// for tests, for Mesh (one lane), and for callers bounding batch
// latency.
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
	b.fireDirty = make([]uint64, (n+63)/64)
	b.hsDirty = make([]uint64, (n+63)/64)
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
func (b *BatchMesh) Name() string { return "sfq-batch-" + b.variant.Name() }

// Variant returns the mesh's design variant.
func (b *BatchMesh) Variant() Variant { return b.variant }

// Lanes returns how many syndromes one DecodeBatchInto call advances
// concurrently.
func (b *BatchMesh) Lanes() int { return b.lanes }

// Words returns the mesh's plane width in 64-bit words per row
// (⌈side/64⌉ when one lane spans the row).
func (b *BatchMesh) Words() int { return b.bg.words }

// BatchWidth implements decodepool.BatchDecoder.
func (b *BatchMesh) BatchWidth() int { return b.lanes }

// Stats returns the statistics of the most recent single-syndrome
// Decode/DecodeInto call. For batched decodes use LaneStats.
func (b *BatchMesh) Stats() Stats { return b.stat }

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
	b.stat = Stats{}
	b.lastN = 0
}

// FlushObs merges pending telemetry into the shared registry
// histograms (one cycle sample was recorded per lane decode).
func (b *BatchMesh) FlushObs() { b.obsCycles.Flush() }

// compatible mirrors Mesh.compatible: pooled batch meshes accept any
// structurally identical graph.
func (b *BatchMesh) compatible(g *lattice.Graph) bool {
	if g == b.g {
		return true
	}
	return g.ErrorType() == b.g.ErrorType() &&
		g.Lattice().Distance() == b.g.Lattice().Distance() &&
		g.NumChecks() == b.g.NumChecks()
}

// Decode implements decoder.Decoder on the batch mesh (one lane used).
// The returned correction is private to the caller.
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

// DecodeInto implements decodepool.IntoDecoder: a single-syndrome
// decode through lane 0, zero allocations in steady state. The
// correction aliases the scratch's batch buffer and is valid until the
// next decode through it.
func (b *BatchMesh) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	if b.one == nil {
		b.one = make([][]bool, 1)
	}
	b.one[0] = syn
	cs, err := b.DecodeBatchInto(g, b.one, s)
	b.one[0] = nil
	if err != nil {
		return decoder.Correction{}, err
	}
	b.stat = b.statsBuf[0]
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
		return nil, fmt.Errorf("sfq: batch mesh bound to a different matching graph")
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
			if b.laneHot[l] == 0 && b.pairW.cur.any[b.bg.laneCol[l]]&b.bg.laneBits[l] == 0 && b.laneCountdown[l] == 0 {
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

// resetAll clears every plane and lane control.
func (b *BatchMesh) resetAll() {
	clearPlane(b.hot)
	clearPlane(b.errOut)
	clearPlane(b.fired)
	clearPlane(b.sentPair)
	clearPlane(b.granted)
	for d := 0; d < 4; d++ {
		clearPlane(b.growFrom[d])
		clearPlane(b.reqDirs[d])
		clearPlane(b.grants[d])
	}
	for _, w := range []*bwavefront{&b.growW, &b.reqW, &b.grantW, &b.pairW, &b.pairBW} {
		w.cur.clear(b.bg)
		// Wipe unconditionally: an aborted decode may leave stale bits.
		clearPlane(w.nxt.all)
		w.nxt.any = [4]uint64{}
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
	clearPlane(b.fireDirty)
	clearPlane(b.hsDirty)
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
		b.emitGrows(b.growW.cur, l)
		b.active++
		return
	}
}

// emitGrows ORs lane l's hot modules into all four direction planes of
// ps. The OR into the column's any flag is exact (not a flag) — per-lane
// quiescence tests depend on it.
func (b *BatchMesh) emitGrows(ps *planeSet, l int) {
	bg := b.bg
	lane := bg.laneBits[l]
	col := bg.laneCol[l]
	lo, hi := bg.block(col)
	var acc uint64
	for k := lo; k < hi; k++ {
		hl := b.hot[k] & lane
		if hl == 0 {
			continue
		}
		ps.dir[North][k] |= hl
		ps.dir[East][k] |= hl
		ps.dir[South][k] |= hl
		ps.dir[West][k] |= hl
		acc |= hl
	}
	ps.any[col] |= acc
}

// finalizeLane extracts lane l's finished correction and Stats, records
// its telemetry sample (one per lane decode), scrubs the lane's bits
// out of every plane, and refills the lane from the pending queue. The
// batch's last decode is left unscrubbed: nothing steps after it, the
// next run starts from resetAll, and Mesh.Render shows its final state.
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
	base := bg.laneCol[l] * bg.blk
	shift := bg.laneOff[l]
	for r := 0; r < geo.m; r++ {
		for j := 0; j < bg.span; j++ {
			w := p[base+r*bg.vs+j] >> shift & bg.laneLow
			for w != 0 {
				c := bits.TrailingZeros64(w)
				w &= w - 1
				f(r*geo.m + j*64 + c)
			}
		}
	}
}

// maskPlaneCol clears the bits outside mask from every word of the
// plane's lane column block [lo, hi).
func maskPlaneCol(p []uint64, mask uint64, lo, hi int) {
	p = p[lo:hi]
	for k := range p {
		p[k] &= mask
	}
}

// maskLaneCol clears one lane's bits from the in-flight planes of
// column col (block [lo, hi)), keeping cur.any[col] an exact OR of the
// column's remaining plane contents (lane masks of distinct lanes in
// one column are disjoint).
func (w *bwavefront) maskLaneCol(lane uint64, col, lo, hi int) {
	if w.cur.any[col]&lane == 0 {
		return
	}
	for _, p := range w.cur.dir {
		maskPlaneCol(p, ^lane, lo, hi)
	}
	w.cur.any[col] &^= lane
}

// scrubLane erases every trace of lane l so the lane is ready for the
// next syndrome. Next-cycle planes need no scrubbing: they hold only
// two-cycles-ago state that step clears before any phase reads it.
func (b *BatchMesh) scrubLane(l int) {
	bg := b.bg
	lane := bg.laneBits[l]
	col := bg.laneCol[l]
	lo, hi := bg.block(col)
	mask := ^lane
	maskPlaneCol(b.hot, mask, lo, hi)
	maskPlaneCol(b.errOut, mask, lo, hi)
	maskPlaneCol(b.fired, mask, lo, hi)
	maskPlaneCol(b.sentPair, mask, lo, hi)
	maskPlaneCol(b.granted, mask, lo, hi)
	for d := 0; d < 4; d++ {
		maskPlaneCol(b.growFrom[d], mask, lo, hi)
		maskPlaneCol(b.reqDirs[d], mask, lo, hi)
		maskPlaneCol(b.grants[d], mask, lo, hi)
	}
	b.growW.maskLaneCol(lane, col, lo, hi)
	b.reqW.maskLaneCol(lane, col, lo, hi)
	b.grantW.maskLaneCol(lane, col, lo, hi)
	b.pairW.maskLaneCol(lane, col, lo, hi)
	b.pairBW.maskLaneCol(lane, col, lo, hi)
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
	col := bg.laneCol[l]
	lo, hi := bg.block(col)
	mask := ^lane
	for d := 0; d < 4; d++ {
		maskPlaneCol(b.growFrom[d], mask, lo, hi)
		maskPlaneCol(b.reqDirs[d], mask, lo, hi)
		maskPlaneCol(b.grants[d], mask, lo, hi)
	}
	maskPlaneCol(b.fired, mask, lo, hi)
	maskPlaneCol(b.sentPair, mask, lo, hi)
	maskPlaneCol(b.granted, mask, lo, hi)
	b.growW.maskLaneCol(lane, col, lo, hi)
	b.reqW.maskLaneCol(lane, col, lo, hi)
	b.grantW.maskLaneCol(lane, col, lo, hi)
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
	col := b.bg.laneCol[l]
	return (b.growW.cur.any[col]|b.reqW.cur.any[col]|b.grantW.cur.any[col]|b.pairW.cur.any[col])&
		b.bg.laneBits[l] == 0
}

// step advances every active lane one clock. The shared phases need no
// per-lane blocking: a lane mid-reset has empty grow/req/grant planes
// and latches (laneGlobalReset cleared them), so the input phases are
// natural no-ops for it, while pair signals keep propagating — exactly
// the oracle's blocked branch.
func (b *BatchMesh) step() {
	// The next-cycle planes still hold state from two cycles ago.
	bg := b.bg
	b.growW.nxt.clear(bg)
	b.reqW.nxt.clear(bg)
	b.grantW.nxt.clear(bg)
	b.pairW.nxt.clear(bg)
	b.pairBW.nxt.clear(bg)

	// Each phase visits only the column blocks its wavefront has a
	// signal in — exact, since a block fed an all-zero wavefront writes
	// nothing (the any flags are exact).
	var done uint64
	if cols := b.growW.cols(); cols != 0 {
		b.moveGrows(cols)
	}
	if cols := b.reqW.cols(); cols != 0 {
		b.moveReqs(cols)
	}
	if cols := b.grantW.cols(); cols != 0 {
		b.moveGrants(cols)
	}
	if cols := b.pairW.cols(); cols != 0 {
		done = b.movePairs(cols)
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
			b.emitGrows(b.growW.nxt, l)
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

// render draws lane l's planes as one glyph per module (see
// Mesh.Render).
func (b *BatchMesh) render(l int) string {
	geo, bg := b.geo, b.bg
	set := func(p []uint64, i int) bool {
		w, bit := bg.laneBit(l, i)
		return p[w]&bit != 0
	}
	anyDir := func(wf *bwavefront, i int) bool {
		return set(wf.cur.dir[North], i) || set(wf.cur.dir[East], i) || set(wf.cur.dir[South], i) || set(wf.cur.dir[West], i)
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
