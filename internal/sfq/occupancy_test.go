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

// TestRowOccupancyInvariant steps random syndromes through every
// variant at d ∈ {3, 5, 9, 13} and every lane count, and through the
// spanning layout at d = 33, checking the occupancy flags of every
// wavefront plane set after every step.
func TestRowOccupancyInvariant(t *testing.T) {
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
					checkOccupancy(t, b, fmt.Sprintf("%s step %d", desc, steps))
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
