package sfq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/decodepool"
	"repro/internal/lattice"
)

// checkOccupancy fails unless every plane set of every wavefront keeps
// the flags the stepping relies on: its nonzero words lie only in bands
// its rows mask marks, and any is exactly the OR of its words.
func checkOccupancy(t *testing.T, b *BatchMesh, desc string) {
	t.Helper()
	bg := b.bg
	for name, w := range map[string]*bwavefront{
		"grow": &b.growW, "req": &b.reqW, "grant": &b.grantW, "pair": &b.pairW, "pairB": &b.pairBW,
	} {
		for i := range w.sets {
			ps := &w.sets[i]
			var or uint64
			for d, p := range ps.dir {
				for k, x := range p {
					or |= x
					if x != 0 && ps.rows&bg.band.bit(k) == 0 {
						t.Fatalf("%s: %s set %d dir %v word %d = %#x lies in a band its rows mask %#x does not mark",
							desc, name, i, Dir(d), k, x, ps.rows)
					}
				}
			}
			if or != ps.any {
				t.Fatalf("%s: %s set %d any = %#x, want the OR of its words %#x", desc, name, i, ps.any, or)
			}
		}
	}
}

// checkFire fails unless the fire invariant fireComplete keeps holds:
// no interior cell is unfired, not hot and holding one of fireWord's
// firing latch pairs, so every cell that became able to fire lay in a
// row the step marked.
func checkFire(t *testing.T, b *BatchMesh, desc string) {
	t.Helper()
	bg := b.bg
	for k, in := range bg.interior {
		gN, gE, gS, gW := b.growFrom[North][k], b.growFrom[East][k], b.growFrom[South][k], b.growFrom[West][k]
		if c := (gW&gE | gN&(gS|gW|gE)) & in &^ b.fired[k] &^ b.hot[k]; c != 0 {
			t.Fatalf("%s: word %d cells %#x hold a firing pair but did not fire", desc, k, c)
		}
	}
}

// checkEveryStep steps random syndromes through every variant at
// d ∈ {3, 5, 9, 13} and every lane count, and through the spanning
// layout at d = 33, calling check on the mesh after every step.
func checkEveryStep(t *testing.T, check func(t *testing.T, b *BatchMesh, desc string)) {
	t.Helper()
	cases := []struct {
		d     int
		rates []float64
		n     int
	}{
		{3, []float64{0.02, 0.08, 0.2}, 6},
		{5, []float64{0.02, 0.08, 0.2}, 6},
		{9, []float64{0.02, 0.08, 0.2}, 4},
		{13, []float64{0.02, 0.08, 0.2}, 3},
		{33, []float64{0.005, 0.02}, 1},
	}
	for _, c := range cases {
		g := lattice.MustNew(c.d).MatchingGraph(lattice.ZErrors)
		rng := rand.New(rand.NewSource(int64(77 * c.d)))
		var syns [][]bool
		for _, p := range c.rates {
			for range c.n {
				syn := make([]bool, g.NumChecks())
				for j := range syn {
					syn[j] = rng.Float64() < p
				}
				syns = append(syns, syn)
			}
		}
		for _, v := range []Variant{Baseline, WithReset, WithBoundary, Final} {
			for lanes := 1; lanes <= MaxBatchLanes(c.d); lanes++ {
				b := NewBatchWithLanes(g, v, lanes)
				desc := fmt.Sprintf("d=%d %s lanes=%d", c.d, v.Name(), lanes)
				steps := 0
				b.tracer = func(int, string) {
					steps++
					check(t, b, fmt.Sprintf("%s step %d", desc, steps))
				}
				if _, err := b.DecodeBatchInto(g, syns, decodepool.NewScratch()); err != nil {
					t.Fatal(err)
				}
				if steps == 0 {
					t.Fatalf("%s: the batch never stepped", desc)
				}
			}
		}
	}
}

// TestRowOccupancyInvariant checks the occupancy flags of every
// wavefront plane set after every step.
func TestRowOccupancyInvariant(t *testing.T) { checkEveryStep(t, checkOccupancy) }

// TestFireInvariant checks after every step that no cell able to fire
// was left unfired: fireComplete scans only the rows moveGrows and
// pairStep mark, so a missing mark shows here.
func TestFireInvariant(t *testing.T) { checkEveryStep(t, checkFire) }

// TestFireAfterHotTermination covers pairStep's fire mark, which no
// decode reaches: every hot module of a lane emits its grows in the
// same clock and opposing fronts stop at the cell where they meet, so
// no grow ever latches at another hot module. The state is built by
// hand instead: a hot module holding a West+East latch pair is hit by
// a pair signal, and must fire in the same step.
func TestFireAfterHotTermination(t *testing.T) {
	g := lattice.MustNew(5).MatchingGraph(lattice.ZErrors)
	b := NewBatchWithLanes(g, Baseline, 1)
	b.resetAll()
	geo, bg := b.geo, b.bg
	i := -1
	for c, kd := range geo.kind {
		if kd == cellInterior && c%geo.m > 0 {
			i = c
			break
		}
	}
	w, bit := bg.laneBit(0, i)
	wp, bitp := bg.laneBit(0, i-1)
	b.hot[w] |= bit
	b.laneHot[0], b.laneSyn[0] = 1, 0
	b.growFrom[West][w] |= bit
	b.growFrom[East][w] |= bit
	pc := b.pairW.cur()
	pc.dir[East][wp] |= bitp
	pc.mark(bg.band.bit(wp), bitp)
	b.step()
	if b.hot[w]&bit != 0 {
		t.Fatalf("the pair signal did not terminate at hot cell %d", i)
	}
	checkFire(t, b, fmt.Sprintf("cell %d", i))
}
