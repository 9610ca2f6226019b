package sfq

import (
	"sync"

	"repro/internal/lattice"
)

// batchGeom is the lane layout of the batch kernel: B independent mesh
// instances side by side in the same []uint64 planes.
//
// Two layouts share every phase of the kernel:
//
//   - Packed (side m ≤ 64): one word per row, carrying ⌊64/m⌋ lanes.
//     Word r holds row r of every lane, cell (r, c) of lane l at bit
//     l·m + c. A single shift-and-mask pass over the plane advances all
//     lanes at once while the lane masks keep wavefronts from bleeding
//     across instances.
//   - Spanning (m > 64): one lane spans W = ⌈m/64⌉ words per row, cell
//     (r, c) at word r·W + c/64, bit c%64, and horizontal shifts carry
//     the edge bit across the word boundary.
//
// Vertically adjacent cells are vs words apart (1 packed, W spanning).
// For occupancy tracking the plane is cut into at most 64 bands of
// 1<<band.shift consecutive words: one band per row when packed, and
// bands of at least vs words when spanning, so a signal moving one cell
// in any direction lands in its own band or an adjacent one. Like
// meshGeom, a batchGeom depends only on (distance, error type, lanes)
// and is computed once and shared read-only.
type batchGeom struct {
	geo *meshGeom
	vs  int // words per row, so vertically adjacent cells are vs apart
	n   int // plane length: rows · vs, padded to whole bands

	band bandGeom // occupancy bands

	laneBits []uint64 // per-lane in-word mask: laneLow << (l·m)
	laneLow  uint64   // (1<<m)−1 packed, all ones spanning

	// Lane-safe horizontal shift masks. An East shift (<<1) must not
	// carry a bit into the next slot's column 0, so eastMask clears the
	// lowest bit of every slot; West (>>1) symmetrically clears the
	// highest. The masks are built for a fully occupied word; with fewer
	// lanes they admit stray bits into unoccupied slots, which is
	// harmless — every consumer masks with interior/boundary/hot planes,
	// all zero there, so strays never reach persistent state or the
	// occupancy flags.
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
	// priority matches the oracle per lane. Unoccupied lane slots are
	// zero in all of them.
	interior  []uint64
	boundary  []uint64
	classMask [4][]uint64
}

// MaxBatchLanes returns how many independent distance-d meshes fit in
// one plane word: ⌊64/(2d+1)⌋, floored at 1 (a mesh wider than a word
// spans several words per row, one lane).
func MaxBatchLanes(d int) int {
	side := 2*d + 1
	if side > 64 {
		return 1
	}
	return 64 / side
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
// lane count, building it on first use. Racing builders construct
// private tables; the first one stored wins.
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
	span := (m + 63) / 64
	bg := &batchGeom{geo: geo, vs: span}
	// Widen the occupancy bands until at most 64 cover the plane and
	// each spans at least one row's worth of words, then pad the plane
	// to whole bands (the padding words are never cells, so stay zero).
	var bd bandGeom
	for (m*span-1)>>bd.shift >= 64 || 1<<bd.shift < bg.vs {
		bd.shift++
	}
	nb := (m*span-1)>>bd.shift + 1
	bd.all = ^uint64(0) >> uint(64-nb)
	bg.band, bg.n = bd, nb<<bd.shift
	bg.laneBits = make([]uint64, lanes)
	if m > 64 {
		// Spanning: one lane, no lane seams.
		bg.laneLow = ^uint64(0)
		bg.laneBits[0] = ^uint64(0)
		bg.eastMask, bg.westMask = ^uint64(0), ^uint64(0)
		bg.eastCarry, bg.westCarry = 1, 1<<63
	} else {
		bg.laneLow = (uint64(1) << uint(m)) - 1
		var all, lowBits, highBits uint64
		for s := 0; s < 64/m; s++ {
			shift := uint(s * m)
			all |= bg.laneLow << shift
			lowBits |= uint64(1) << shift
			highBits |= uint64(1) << (shift + uint(m) - 1)
		}
		bg.eastMask = all &^ lowBits
		bg.westMask = all &^ highBits
		for l := 0; l < lanes; l++ {
			bg.laneBits[l] = bg.laneLow << uint(l*m)
		}
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
	pos := uint(l*m + i%m) // the spanning layout's one lane is l = 0
	return i/m*bg.vs + int(pos>>6), uint64(1) << (pos & 63)
}

// bandGeom cuts a plane into its occupancy bands. It is a small value
// so the hot loops hold it in registers.
type bandGeom struct {
	shift uint   // log2 of the words per band: 0 packed
	all   uint64 // one bit per band of the plane
}

// words returns the word range [lo, hi) of band j.
func (bd bandGeom) words(j int) (lo, hi int) {
	lo = j << (bd.shift & 63)
	return lo, lo + 1<<(bd.shift&63)
}

// bit returns the band bit of plane word k.
func (bd bandGeom) bit(k int) uint64 { return 1 << (uint(k) >> (bd.shift & 63) & 63) }

// visit returns the bands a phase must sweep to consume every signal
// of a wavefront occupying rows: those bands and their neighbours,
// where the signals land after one move.
func (bd bandGeom) visit(rows uint64) uint64 {
	return (rows | rows<<1 | rows>>1) & bd.all
}
