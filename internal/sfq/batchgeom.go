package sfq

import (
	"math/bits"
	"sync"

	"repro/internal/knob"
	"repro/internal/lattice"
)

// batchGeom is the lane layout of the batch kernel: B independent mesh
// instances side by side in the same []uint64 planes. A plane row is W
// machine words.
//
// Two layouts share every phase of the kernel:
//
//   - Packed (side m ≤ 64): W ∈ {1, 2, 4} lane columns, each carrying
//     perWord = ⌊64/m⌋ lanes in one word per row. A column is stored as
//     one contiguous block of m words (column-major: word c·m + r holds
//     row r of column c), so cell (r, c) of lane l sits at word
//     (l/perWord)·m + r, bit (l%perWord)·m + c. A single shift-and-mask
//     pass over a block advances all perWord lanes of the column at once
//     while the lane masks keep wavefronts from bleeding across
//     instances, and a step visits only the blocks with a signal in
//     flight, so a column whose lanes are idle costs nothing.
//   - Spanning (m > 64): one lane spans W = ⌈m/64⌉ words per row, cell
//     (r, c) at word r·W + c/64, bit c%64. The whole plane is the one
//     block of column 0, and horizontal shifts carry the edge bit across
//     the word boundary.
//
// Within a block, vertically adjacent cells are vs words apart (1
// packed, W spanning). Like meshGeom, a batchGeom depends only on
// (distance, error type, lanes) and is computed once and shared
// read-only.
type batchGeom struct {
	geo     *meshGeom
	lanes   int
	words   int // W: words per plane row
	ncol    int // lane columns: W packed, 1 spanning
	blk     int // words per column block: m packed, n spanning
	vs      int // word distance between vertically adjacent cells
	span    int // words one lane occupies per row: 1 packed, W spanning
	perWord int // lanes per fully occupied column (1 when spanning)
	n       int // plane length: rows · words

	colOf    []uint8  // lane column of plane word k
	laneBits []uint64 // per-lane in-word mask: laneLow << laneOff[l]
	laneOff  []uint   // bit of lane l's column 0 within its word
	laneCol  []int    // lane column of lane l: l / perWord
	colEnd   []int    // one past the last lane of column c
	laneLow  uint64   // (1<<m)−1 packed, all ones spanning

	// Lane-safe horizontal shift masks, shared by every column. An East
	// shift (<<1) must not carry a bit into the next slot's column 0, so
	// eastMask clears the lowest bit of every slot; West (>>1)
	// symmetrically clears the highest. The masks are built for a fully
	// occupied column; in a partially filled last column they admit
	// stray bits into unoccupied slots, which is harmless — every
	// consumer masks with interior/boundary/hot planes, all zero there,
	// so strays never reach persistent state or the any accumulators.
	eastMask uint64
	westMask uint64
	// Carry masks of the spanning layout: an East shift moves bit 63 of
	// the western neighbour word into bit 0 (eastCarry = 1), a West shift
	// bit 0 of the eastern neighbour into bit 63 (westCarry = 1<<63).
	// Both are zero for packed layouts, where no lane crosses a word.
	// At a row edge the neighbour word belongs to the adjacent row, and
	// the carried bit is a column ≥ m — never a cell, so always zero in
	// a signal plane (East) or masked off by every consumer (West).
	eastCarry uint64
	westCarry uint64

	// Lane-replicated cell masks (length n). classMask replicates the
	// cell index residue (r·m+c)%4 into every lane, so the rotated grant
	// priority matches the oracle per lane. Unoccupied slots of a
	// partial last column are zero in all of them.
	interior  []uint64
	boundary  []uint64
	classMask [4][]uint64
}

// BatchWords is the plane width of the batch kernel in 64-bit words:
// how many word columns NewBatch packs side by side. It is the
// REPRO_SFQ_WIDTH knob ("1", "2", "4"; "auto" or unset picks the widest
// layout the host word size profitably supports) resolved once at
// process start.
var BatchWords = batchWordsFromEnv()

func batchWordsFromEnv() int {
	switch v := knob.String("REPRO_SFQ_WIDTH"); v {
	case "1":
		return 1
	case "2":
		return 2
	case "4":
		return 4
	}
	return autoBatchWords()
}

// autoBatchWords picks the plane width from the CPU: a 64-bit host gets
// the four-word layout — one call advances four lane columns, so the
// per-step lane control is shared by more decodes, and columns with
// nothing in flight are skipped — while a 32-bit host gets the two-word
// layout to bound the per-step footprint.
func autoBatchWords() int {
	if bits.UintSize >= 64 {
		return 4
	}
	return 2
}

// MaxBatchLanesAt returns how many independent distance-d meshes fit in
// a plane of the given word width: words·⌊64/(2d+1)⌋, floored at 1
// (a mesh wider than a word spans several words per row, one lane).
func MaxBatchLanesAt(d, words int) int {
	side := 2*d + 1
	if side > 64 {
		return 1
	}
	return words * (64 / side)
}

// MaxBatchLanes returns the lane capacity of NewBatch meshes: the
// per-word capacity ⌊64/(2d+1)⌋ times the process-wide BatchWords plane
// width.
func MaxBatchLanes(d int) int { return MaxBatchLanesAt(d, BatchWords) }

// batchWordsFor returns the narrowest power-of-two column count that
// holds the requested lanes, capped at 4; a mesh wider than a word
// spans ⌈side/64⌉ words.
func batchWordsFor(d, lanes int) int {
	side := 2*d + 1
	if side > 64 {
		return (side + 63) / 64
	}
	perWord := 64 / side
	switch {
	case lanes <= perWord:
		return 1
	case lanes <= 2*perWord:
		return 2
	default:
		return 4
	}
}

type batchGeomKey struct {
	d     int
	e     lattice.ErrorType
	lanes int
}

var (
	batchGeomMu    sync.RWMutex
	batchGeomCache = map[batchGeomKey]*batchGeom{}
)

// batchGeomFor returns the memoized lane geometry of g at the given
// width, building it on first use. Racing builders construct private
// tables; the first one stored wins. The word count is derived from the
// lane count (narrowest power-of-two layout that fits), so the key
// stays (d, e, lanes).
func batchGeomFor(g *lattice.Graph, lanes int) *batchGeom {
	k := batchGeomKey{d: g.Lattice().Distance(), e: g.ErrorType(), lanes: lanes}
	batchGeomMu.RLock()
	bg := batchGeomCache[k]
	batchGeomMu.RUnlock()
	if bg != nil {
		return bg
	}
	built := buildBatchGeom(g, lanes)
	batchGeomMu.Lock()
	if exist, ok := batchGeomCache[k]; ok {
		built = exist
	} else {
		batchGeomCache[k] = built
	}
	batchGeomMu.Unlock()
	return built
}

func buildBatchGeom(g *lattice.Graph, lanes int) *batchGeom {
	geo := geomFor(g)
	m := geo.m
	words := batchWordsFor(geo.d, lanes)
	bg := &batchGeom{
		geo:     geo,
		lanes:   lanes,
		words:   words,
		ncol:    words,
		blk:     m,
		vs:      1,
		span:    1,
		perWord: 64 / max(m, 1),
		n:       m * words,
	}
	bg.laneBits = make([]uint64, lanes)
	bg.laneOff = make([]uint, lanes)
	bg.laneCol = make([]int, lanes)
	bg.colEnd = make([]int, bg.ncol)
	if m > 64 {
		// Spanning: one lane, one row-major block, no lane seams.
		bg.ncol, bg.blk, bg.vs, bg.span, bg.perWord = 1, bg.n, words, words, 1
		bg.colEnd = []int{1}
		bg.laneLow = ^uint64(0)
		bg.laneBits[0] = ^uint64(0)
		bg.eastMask, bg.westMask = ^uint64(0), ^uint64(0)
		bg.eastCarry, bg.westCarry = 1, 1<<63
	} else {
		bg.laneLow = (uint64(1) << uint(m)) - 1
		var all, lowBits, highBits uint64
		for s := 0; s < bg.perWord; s++ {
			shift := uint(s * m)
			all |= bg.laneLow << shift
			lowBits |= uint64(1) << shift
			highBits |= uint64(1) << (shift + uint(m) - 1)
		}
		bg.eastMask = all &^ lowBits
		bg.westMask = all &^ highBits
		for l := 0; l < lanes; l++ {
			bg.laneOff[l] = uint(l % bg.perWord * m)
			bg.laneBits[l] = bg.laneLow << bg.laneOff[l]
			bg.laneCol[l] = l / bg.perWord
		}
		for c := range bg.colEnd {
			bg.colEnd[c] = min((c+1)*bg.perWord, lanes)
		}
	}

	bg.colOf = make([]uint8, bg.n)
	for k := range bg.colOf {
		bg.colOf[k] = uint8(k / bg.blk)
	}
	bg.interior = make([]uint64, bg.n)
	bg.boundary = make([]uint64, bg.n)
	for k := range bg.classMask {
		bg.classMask[k] = make([]uint64, bg.n)
	}
	for i, kd := range geo.kind {
		for l := 0; l < lanes; l++ {
			w, bit := bg.laneBit(l, i)
			switch kd {
			case cellInterior:
				bg.interior[w] |= bit
			case cellBoundary:
				bg.boundary[w] |= bit
			}
			bg.classMask[i%4][w] |= bit
		}
	}
	return bg
}

// laneBit returns the plane word index and bit of cell i in lane l.
func (bg *batchGeom) laneBit(l, i int) (word int, bit uint64) {
	m := bg.geo.m
	pos := bg.laneOff[l] + uint(i%m)
	return bg.laneCol[l]*bg.blk + i/m*bg.vs + int(pos>>6), uint64(1) << (pos & 63)
}

// block returns the word range [lo, hi) of lane column c.
func (bg *batchGeom) block(c int) (lo, hi int) { return c * bg.blk, (c + 1) * bg.blk }
