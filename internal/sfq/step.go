package sfq

import "math/bits"

// The fused step. Every phase of the kernel is word-local once the
// shifted arrival values are in hand — vertical shifts read the
// neighbouring row's word, horizontal shifts stay inside the word
// except for the spanning layout's carry bit — so each phase is a
// single sweep that materializes all four directions' arrivals in
// registers, skips words with no signal early, and touches every plane
// word at most once. A sweep visits only the rows its wavefront
// occupies and their vertical neighbours (the rows flags, see
// planeSet), so the empty rows of a sparse wavefront cost nothing. The
// conformance suite pins every layout bit-identical to the reference
// model in internal/sfq/oracle.
//
// Beyond the sweeps, a clock does only the work an event needs: the
// fire scan visits only rows where a cell became able to fire
// (fireComplete), the grow planes are overwritten by moveGrows rather
// than cleared and re-ORed, and the double buffers flip an index
// (bwavefront), so no clock writes a pointer.
//
// Ordering notes (the oracle processes signal sources in ascending
// cell index, so signals converging on one destination in one cycle
// arrive ordered from-north, from-west, from-east, from-south):
//   - movePairs and moveGrants process travel directions in pairOrder
//     [South, East, West, North] *per word*, which reproduces that
//     arrival order exactly because every update those phases make is
//     word-local (hot, errOut, sentPair, grants all live at the
//     destination word).
//   - The rotated stall-retry grant priority offsets by (retry + cell
//     index) % 4, which is cell-dependent; moveReqs splits eligible
//     cells into the four index-residue classes (classMask) and runs
//     the rotated priority encoding per class.
//   - fireComplete fuses firing intermediates and completing
//     handshakes: the handshake scan reads only state the fire scan
//     writes at the same word, so running both at word k before moving
//     on is equivalent to two full sweeps.

// grantPrio is the hardware grant priority (entry directions).
var grantPrio = [4]Dir{North, West, East, South}

// hshift returns plane e advanced one column East and plane w one
// column West, read at word k: bits move within the word under the
// lane-seam masks em and wm. In the spanning layout the edge bit of the
// neighbouring word carries in under the carry masks ce and cw; both
// are zero for packed layouts, which skip the neighbour reads.
func hshift(e, w []uint64, k int, em, wm, ce, cw uint64) (uint64, uint64) {
	sE, sW := e[k]<<1&em, w[k]>>1&wm
	if ce != 0 {
		if k > 0 {
			sE |= e[k-1] >> 63 & ce
		}
		if k+1 < len(w) {
			sW |= w[k+1] << 63 & cw
		}
	}
	return sE, sW
}

// moveGrows advances grow wavefronts one module and latches arrivals.
// Opposing wavefronts annihilate where they meet: a grow signal does
// not continue into territory an opposite-direction grow has already
// swept, so the meeting module is the unique intermediate on the line.
// All arrivals at a word latch before propagation is decided there, so
// head-on meetings stop both fronts symmetrically.
//
// moveGrows is the only phase that writes the next grow planes, so it
// assigns every word it visits and clears the stale rows it does not
// visit instead of ORing into planes step cleared: the next buffer
// still holds the grows of two cycles ago. It marks fireDirty only on
// rows where a latch leaves some cell able to fire (see fireComplete).
func (b *BatchMesh) moveGrows() {
	bg, v := b.bg, b.variant
	n := bg.n
	vs := bg.vs
	bd := bg.band
	em, wmk, ce, cw := bg.eastMask, bg.westMask, bg.eastCarry, bg.westCarry
	interior := bg.interior[:n]
	boundary := bg.boundary[:n]
	cur, nxt := b.growW.cur(), b.growW.nxt()
	curN := cur.dir[North][:n]
	curE := cur.dir[East][:n]
	curS := cur.dir[South][:n]
	curW := cur.dir[West][:n]
	nxtN := nxt.dir[North][:n]
	nxtE := nxt.dir[East][:n]
	nxtS := nxt.dir[South][:n]
	nxtW := nxt.dir[West][:n]
	gfN := b.growFrom[North][:n]
	gfE := b.growFrom[East][:n]
	gfS := b.growFrom[South][:n]
	gfW := b.growFrom[West][:n]
	fired := b.fired[:n]
	hotP := b.hot[:n]
	bdry := v.Boundary
	reqGrant := v.ReqGrant
	reqNxt, pairNxt, pairBNxt := b.reqW.nxt(), b.pairW.nxt(), b.pairBW.nxt()
	visit := bd.visit(cur.rows)
	nxt.zero(bd, nxt.rows&^visit)
	var acc, occ uint64
	for vis := visit; vis != 0; vis &= vis - 1 {
		j := bits.TrailingZeros64(vis)
		row := uint64(1) << uint(j)
		lo, hi := bd.words(j)
		for k := lo; k < hi; k++ {
			var shN, shS uint64
			if k+vs < n {
				shN = curN[k+vs]
			}
			if k >= vs {
				shS = curS[k-vs]
			}
			shE, shW := hshift(curE, curW, k, em, wmk, ce, cw)
			if shN|shS|shE|shW == 0 {
				nxtN[k], nxtE[k], nxtS[k], nxtW[k] = 0, 0, 0, 0
				continue
			}
			in := interior[k]
			// Latch interior arrivals by entry side (pass 1), then
			// propagate into territory no opposite front has swept (pass
			// 2). gf[d] receives only sh[opp(d)] at this same word, so the
			// latched values are complete before propagation reads them.
			gN := gfN[k] | shS&in
			gS := gfS[k] | shN&in
			gE := gfE[k] | shW&in
			gW := gfW[k] | shE&in
			pN := shN & in &^ gN
			pE := shE & in &^ gE
			pS := shS & in &^ gS
			pW := shW & in &^ gW
			nxtN[k], nxtE[k], nxtS[k], nxtW[k] = pN, pE, pS, pW
			if p := pN | pE | pS | pW; p != 0 {
				acc |= p
				occ |= row
			}
			if (shN|shS|shE|shW)&in != 0 {
				gfN[k], gfS[k], gfE[k], gfW[k] = gN, gS, gE, gW
				// A latch landed: mark the row if it left an unfired,
				// non-hot cell holding one of fireWord's pairs.
				if (gW&gE|gN&(gS|gW|gE))&in&^fired[k]&^hotP[k] != 0 {
					b.fireDirty |= row
				}
			}
			if !bdry {
				continue
			}
			bd := boundary[k]
			if bd == 0 {
				continue
			}
			// Boundary modules fire on first arrival. Each boundary cell
			// has exactly one interior neighbor, so the per-direction fire
			// sets are bit-disjoint and merge without a tie-break.
			f := fired[k]
			fbN := shN & bd &^ f
			fbE := shE & bd &^ f
			fbS := shS & bd &^ f
			fbW := shW & bd &^ f
			fb := fbN | fbE | fbS | fbW
			if fb == 0 {
				continue
			}
			fired[k] = f | fb
			// Requests head back out the entry side: e = opposite(travel).
			b.reqDirs[South][k] |= fbN
			b.reqDirs[West][k] |= fbE
			b.reqDirs[North][k] |= fbS
			b.reqDirs[East][k] |= fbW
			if reqGrant {
				reqNxt.dir[South][k] |= fbN
				reqNxt.dir[West][k] |= fbE
				reqNxt.dir[North][k] |= fbS
				reqNxt.dir[East][k] |= fbW
				reqNxt.mark(row, fb)
			} else {
				b.sentPair[k] |= fb
				pairNxt.dir[South][k] |= fbN
				pairNxt.dir[West][k] |= fbE
				pairNxt.dir[North][k] |= fbS
				pairNxt.dir[East][k] |= fbW
				pairNxt.mark(row, fb)
				pairBNxt.dir[South][k] |= fbN
				pairBNxt.dir[West][k] |= fbE
				pairBNxt.dir[North][k] |= fbS
				pairBNxt.dir[East][k] |= fbW
				pairBNxt.mark(row, fb)
			}
		}
	}
	nxt.any, nxt.rows = acc, occ
}

// moveReqs advances pair requests; requests stop at hot modules, which
// grant at most one, by the hardware priority. The rotated-priority slow
// path (some lane mid-retry) runs per lane over the word.
func (b *BatchMesh) moveReqs() {
	bg := b.bg
	n := bg.n
	vs := bg.vs
	bd := bg.band
	em, wmk, ce, cw := bg.eastMask, bg.westMask, bg.eastCarry, bg.westCarry
	interior := bg.interior[:n]
	cur, nxt, gnxt := b.reqW.cur(), b.reqW.nxt(), b.grantW.nxt()
	curN := cur.dir[North][:n]
	curE := cur.dir[East][:n]
	curS := cur.dir[South][:n]
	curW := cur.dir[West][:n]
	nxtN := nxt.dir[North][:n]
	nxtE := nxt.dir[East][:n]
	nxtS := nxt.dir[South][:n]
	nxtW := nxt.dir[West][:n]
	gnN := gnxt.dir[North][:n]
	gnE := gnxt.dir[East][:n]
	gnS := gnxt.dir[South][:n]
	gnW := gnxt.dir[West][:n]
	hotP := b.hot[:n]
	grantedP := b.granted[:n]
	var acc, occ uint64
	for vis := bd.visit(cur.rows); vis != 0; vis &= vis - 1 {
		j := bits.TrailingZeros64(vis)
		row := uint64(1) << uint(j)
		lo, hi := bd.words(j)
		for k := lo; k < hi; k++ {
			var aN, aS uint64
			if k+vs < n {
				aN = curN[k+vs]
			}
			if k >= vs {
				aS = curS[k-vs]
			}
			aE, aW := hshift(curE, curW, k, em, wmk, ce, cw)
			if aN|aS|aE|aW == 0 {
				continue
			}
			in := interior[k]
			hot := hotP[k]
			// Requests pass through non-hot interior modules and latch at
			// hot ones (travel direction d, entry Opposite(d)).
			mvN := aN & in
			mvE := aE & in
			mvS := aS & in
			mvW := aW & in
			latN := mvN & hot
			latE := mvE & hot
			latS := mvS & hot
			latW := mvW & hot
			psN := mvN &^ hot
			psE := mvE &^ hot
			psS := mvS &^ hot
			psW := mvW &^ hot
			if ps := psN | psE | psS | psW; ps != 0 {
				nxtN[k] |= psN
				nxtE[k] |= psE
				nxtS[k] |= psS
				nxtW[k] |= psW
				acc |= ps
				occ |= row
			}
			elig := (latN | latE | latS | latW) &^ grantedP[k]
			if elig == 0 {
				continue
			}
			if b.anyPrio == 0 {
				// Fixed hardware grant priority (grantPrio = N, W, E, S by
				// entry side); arrival by entry e is lat[opposite(e)].
				cN := latS & elig
				taken := cN
				cW := latE & elig &^ taken
				taken |= cW
				cE := latW & elig &^ taken
				taken |= cE
				cS := latN & elig &^ taken
				taken |= cS
				gnN[k] |= cN
				gnW[k] |= cW
				gnE[k] |= cE
				gnS[k] |= cS
				gnxt.mark(row, taken)
			} else {
				lat := [4]uint64{latN, latE, latS, latW}
				for l := range bg.laneBits {
					el := elig & bg.laneBits[l]
					if el == 0 {
						continue
					}
					base := b.lanePrio[l]
					if base == 0 {
						var taken uint64
						for _, e := range grantPrio {
							g := lat[e.Opposite()] & el &^ taken
							if g != 0 {
								gnxt.dir[e][k] |= g
								gnxt.mark(row, g)
								taken |= g
							}
						}
						continue
					}
					for cls := 0; cls < 4; cls++ {
						ecls := el & bg.classMask[cls][k]
						if ecls == 0 {
							continue
						}
						off := (base + cls) % 4
						var taken uint64
						for j := 0; j < 4; j++ {
							e := grantPrio[(j+off)%4]
							g := lat[e.Opposite()] & ecls &^ taken
							if g != 0 {
								gnxt.dir[e][k] |= g
								gnxt.mark(row, g)
								taken |= g
							}
						}
					}
				}
			}
			grantedP[k] |= elig
		}
	}
	nxt.mark(occ, acc)
}

// moveGrants advances pair grants; a grant is consumed by the first
// module that requested along its line (the intermediate, or a boundary
// module). Directions run in pairOrder per word.
func (b *BatchMesh) moveGrants() {
	bg := b.bg
	n := bg.n
	vs := bg.vs
	bd := bg.band
	em, wmk, ce, cw := bg.eastMask, bg.westMask, bg.eastCarry, bg.westCarry
	interior := bg.interior[:n]
	boundary := bg.boundary[:n]
	cur := b.grantW.cur()
	curN := cur.dir[North][:n]
	curE := cur.dir[East][:n]
	curS := cur.dir[South][:n]
	curW := cur.dir[West][:n]
	for vis := bd.visit(cur.rows); vis != 0; vis &= vis - 1 {
		j := bits.TrailingZeros64(vis)
		row := uint64(1) << uint(j)
		lo, hi := bd.words(j)
		for k := lo; k < hi; k++ {
			var mvN, mvS uint64
			if k+vs < n {
				mvN = curN[k+vs]
			}
			if k >= vs {
				mvS = curS[k-vs]
			}
			mvE, mvW := hshift(curE, curW, k, em, wmk, ce, cw)
			if mvS|mvE|mvW|mvN == 0 {
				continue
			}
			in := interior[k]
			bd := boundary[k]
			f := b.fired[k]
			// pairOrder: South, East, West, North; e = opposite(travel).
			if mvS != 0 {
				b.grantConsume(k, row, mvS, in, bd, f, North, South)
			}
			if mvE != 0 {
				b.grantConsume(k, row, mvE, in, bd, f, West, East)
			}
			if mvW != 0 {
				b.grantConsume(k, row, mvW, in, bd, f, East, West)
			}
			if mvN != 0 {
				b.grantConsume(k, row, mvN, in, bd, f, South, North)
			}
		}
	}
}

// grantConsume is one travel direction of moveGrants at word k, in the
// band row: interior consumption, pass-through, and the boundary
// sentPair latch.
func (b *BatchMesh) grantConsume(k int, row, mv, in, bd, f uint64, e, d Dir) {
	mvI := mv & in
	rde := b.reqDirs[e][k]
	cons := mvI & f & rde &^ b.grants[e][k]
	if cons != 0 {
		b.grants[e][k] |= cons
		// A grant was consumed: the module's handshake may now be
		// complete, so fireComplete must re-check this word.
		b.hsDirty |= row
	}
	if pass := mvI &^ cons; pass != 0 {
		gn := b.grantW.nxt()
		gn.dir[d][k] |= pass
		gn.mark(row, pass)
	}
	bc := mv & bd & f & rde &^ b.sentPair[k]
	if bc != 0 {
		b.sentPair[k] |= bc
		pn, pbn := b.pairW.nxt(), b.pairBW.nxt()
		pn.dir[e][k] |= bc
		pn.mark(row, bc)
		pbn.dir[e][k] |= bc
		pbn.mark(row, bc)
	}
}

// movePairs advances pair signals, toggling the error output of every
// module they reach (chains from successive pairings that cross the
// same data qubit cancel, Pauli operators being self-inverse); a pair
// signal terminates at a hot module, clearing it and charging the
// owning lane's hot counter and Stats. Directions run in pairOrder per
// word. The returned mask has bit l set when lane l completed a pairing
// this cycle.
func (b *BatchMesh) movePairs() (done uint64) {
	bg := b.bg
	n := bg.n
	vs := bg.vs
	bd := bg.band
	em, wmk, ce, cw := bg.eastMask, bg.westMask, bg.eastCarry, bg.westCarry
	interior := bg.interior[:n]
	cur, curB := b.pairW.cur(), b.pairBW.cur()
	curN := cur.dir[North][:n]
	curE := cur.dir[East][:n]
	curS := cur.dir[South][:n]
	curW := cur.dir[West][:n]
	curBN := curB.dir[North][:n]
	curBE := curB.dir[East][:n]
	curBS := curB.dir[South][:n]
	curBW := curB.dir[West][:n]
	// Boundary provenance rides only on pair signals (pairBW ⊆ pairW),
	// so the pair rows cover it.
	for vis := bd.visit(cur.rows); vis != 0; vis &= vis - 1 {
		j := bits.TrailingZeros64(vis)
		row := uint64(1) << uint(j)
		lo, hi := bd.words(j)
		for k := lo; k < hi; k++ {
			var aN, aS, bN, bS uint64
			if k+vs < n {
				aN = curN[k+vs]
				bN = curBN[k+vs]
			}
			if k >= vs {
				aS = curS[k-vs]
				bS = curBS[k-vs]
			}
			aE, aW := hshift(curE, curW, k, em, wmk, ce, cw)
			if aN|aS|aE|aW == 0 {
				continue
			}
			bE, bW := hshift(curBE, curBW, k, em, wmk, ce, cw)
			in := interior[k]
			// pairOrder: South, East, West, North.
			done |= b.pairStep(k, row, aS&in, bS, South)
			done |= b.pairStep(k, row, aE&in, bE, East)
			done |= b.pairStep(k, row, aW&in, bW, West)
			done |= b.pairStep(k, row, aN&in, bN, North)
		}
	}
	return done
}

// pairStep is one travel direction of movePairs at word k, in the band
// row: error marking, hot termination with per-lane accounting, and
// pass-through with boundary provenance.
func (b *BatchMesh) pairStep(k int, row, mv, pb uint64, d Dir) (done uint64) {
	if mv == 0 {
		return 0
	}
	bg := b.bg
	b.errOut[k] ^= mv
	hits := mv & b.hot[k]
	if hits != 0 {
		b.hot[k] &^= hits
		// A hot module terminated: cells here left the hot mask, so
		// their latched grows may now fire — re-evaluate the row.
		b.fireDirty |= row
		for l, lane := range bg.laneBits {
			hl := hits & lane
			if hl == 0 {
				continue
			}
			nh := bits.OnesCount64(hl)
			b.laneHot[l] -= nh
			b.laneStats[l].Pairings += nh
			b.laneStats[l].BoundaryPairings += bits.OnesCount64(hl & pb)
			done |= uint64(1) << uint(l)
		}
	}
	if pass := mv &^ hits; pass != 0 {
		pn := b.pairW.nxt()
		pn.dir[d][k] |= pass
		pn.mark(row, pass)
		if bp := pb & pass; bp != 0 {
			pbn := b.pairBW.nxt()
			pbn.dir[d][k] |= bp
			pbn.mark(row, bp)
		}
	}
	return done
}

// fireComplete turns modules holding grows from two distinct directions
// into intermediates (fireWord) and lets intermediates holding grants
// from every request direction emit their pair signals (handshakeWord),
// restricted to the dirty rows the earlier phases marked this step.
// Both scans are event-driven, and they keep one invariant between
// steps: no interior cell is unfired, not hot and holding one of
// fireWord's firing pairs (gW&gE | gN&(gS|gW|gE)).
//
//   - A cell becomes able to fire only when a grow latch lands on it or
//     its hot module terminates; fired bits, hot loads and lane
//     scrubs/resets only shrink the set (a scrub or reset also clears
//     the lane's growFrom latches). moveGrows marks fireDirty only where
//     the landing latch leaves such a cell, which the invariant makes
//     a new one; pairStep marks every row where a hot module
//     terminates. hot only shrinks and interior fired bits only change
//     in fireWord between the mark and the scan, so every marked
//     candidate is still one when fireWord reaches it.
//   - A handshake completes only when the module's last outstanding
//     grant is consumed (grantConsume marks hsDirty): a fresh fire
//     always creates pending request dirs of its own, so it can never
//     be ready in the step it fires, and sentPair/reqDirs updates only
//     remove readiness.
//
// Stale marks are harmless (the word re-evaluates to a no-op), which
// also lets a spanning-layout band mark all its words at once; the
// masks are consumed and cleared every step, so each event is paid
// once.
// Processing all fire words before all handshake words preserves the
// oracle's two-sweep order; every update is word-local, so the
// sparse visit order within a sweep cannot change the outcome.
func (b *BatchMesh) fireComplete() {
	reqGrant := b.variant.ReqGrant
	bd := b.bg.band
	fire, hs := b.fireDirty, b.hsDirty
	b.fireDirty, b.hsDirty = 0, 0
	for ; fire != 0; fire &= fire - 1 {
		lo, hi := bd.words(bits.TrailingZeros64(fire))
		for k := lo; k < hi; k++ {
			b.fireWord(k, reqGrant)
		}
	}
	if !reqGrant {
		return
	}
	for ; hs != 0; hs &= hs - 1 {
		lo, hi := bd.words(bits.TrailingZeros64(hs))
		for k := lo; k < hi; k++ {
			b.handshakeWord(k)
		}
	}
}

// fireWord fires intermediates at one plane word, with the hardwired
// corner priority: West+East, then North+South, then North+West, then
// North+East — head-on meetings always fire, and of the two corners of
// an L-shaped meeting only the one whose grows arrived from the north
// fires.
func (b *BatchMesh) fireWord(k int, reqGrant bool) {
	bg := b.bg
	elig := bg.interior[k] &^ b.fired[k] &^ b.hot[k]
	if elig == 0 {
		return
	}
	gN, gE, gS, gW := b.growFrom[North][k], b.growFrom[East][k], b.growFrom[South][k], b.growFrom[West][k]
	cWE := elig & gW & gE
	rem := elig &^ cWE
	cNS := rem & gN & gS
	rem &^= cNS
	cNW := rem & gN & gW
	rem &^= cNW
	cNE := rem & gN & gE
	firedNew := cWE | cNS | cNW | cNE
	if firedNew == 0 {
		return
	}
	b.fired[k] |= firedNew
	setN := cNS | cNW | cNE
	setS := cNS
	setE := cWE | cNE
	setW := cWE | cNW
	b.reqDirs[North][k] |= setN
	b.reqDirs[South][k] |= setS
	b.reqDirs[East][k] |= setE
	b.reqDirs[West][k] |= setW
	out := b.pairW.nxt()
	if reqGrant {
		out = b.reqW.nxt()
	} else {
		b.sentPair[k] |= firedNew
		b.errOut[k] ^= firedNew
	}
	out.dir[North][k] |= setN
	out.dir[South][k] |= setS
	out.dir[East][k] |= setE
	out.dir[West][k] |= setW
	out.mark(bg.band.bit(k), firedNew)
}

// handshakeWord completes the handshakes ready at one plane word.
func (b *BatchMesh) handshakeWord(k int) {
	bg := b.bg
	rdN, rdE, rdS, rdW := b.reqDirs[North][k], b.reqDirs[East][k], b.reqDirs[South][k], b.reqDirs[West][k]
	pend := (rdN &^ b.grants[North][k]) |
		(rdE &^ b.grants[East][k]) |
		(rdS &^ b.grants[South][k]) |
		(rdW &^ b.grants[West][k])
	ready := (b.fired[k] &^ b.sentPair[k]) & bg.interior[k] &^ pend
	if ready == 0 {
		return
	}
	b.sentPair[k] |= ready
	b.errOut[k] ^= ready
	pN := ready & rdN
	pE := ready & rdE
	pS := ready & rdS
	pW := ready & rdW
	pn := b.pairW.nxt()
	pn.dir[North][k] |= pN
	pn.dir[East][k] |= pE
	pn.dir[South][k] |= pS
	pn.dir[West][k] |= pW
	pn.mark(bg.band.bit(k), pN|pE|pS|pW)
}
