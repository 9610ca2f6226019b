package sfq

import (
	"math/rand"
	"testing"

	"repro/internal/decodepool"
	"repro/internal/lattice"
)

// TestMeshDecodeIntoZeroAllocs gates the one-lane path: a warmed-up
// Mesh decodes through DecodeInto with zero heap allocations at d=9.
func TestMeshDecodeIntoZeroAllocs(t *testing.T) {
	l := lattice.MustNew(9)
	g := l.MatchingGraph(lattice.ZErrors)
	rng := rand.New(rand.NewSource(7))
	syndromes := make([][]bool, 32)
	for i := range syndromes {
		syndromes[i] = make([]bool, g.NumChecks())
		for j := range syndromes[i] {
			syndromes[i][j] = rng.Float64() < 0.08
		}
	}
	mesh := New(g, Final)
	s := decodepool.NewScratch()
	for _, syn := range syndromes {
		if _, err := mesh.DecodeInto(g, syn, s); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(len(syndromes)*4, func() {
		if _, err := mesh.DecodeInto(g, syndromes[i%len(syndromes)], s); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs/decode, want 0", allocs)
	}
}

// TestBatchMeshZeroAllocs extends the zero-allocation guarantee to the
// batched hot path: a warmed-up BatchMesh decodes full batches (and
// single syndromes through the adapter) with zero heap allocations.
func TestBatchMeshZeroAllocs(t *testing.T) {
	l := lattice.MustNew(9)
	g := l.MatchingGraph(lattice.ZErrors)
	rng := rand.New(rand.NewSource(7))
	batch := NewBatch(g, Final)
	n := 4 * batch.Lanes()
	syns := make([][]bool, n)
	for i := range syns {
		syns[i] = make([]bool, g.NumChecks())
		for j := range syns[i] {
			syns[i][j] = rng.Float64() < 0.08
		}
	}
	s := decodepool.NewScratch()
	for i := 0; i < 4; i++ {
		if _, err := batch.DecodeBatchInto(g, syns, s); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(16, func() {
		if _, err := batch.DecodeBatchInto(g, syns, s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("batched: %.1f allocs/batch, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(64, func() {
		if _, err := batch.DecodeInto(g, syns[0], s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("single adapter: %.1f allocs/decode, want 0", allocs)
	}
}

// TestBatchMeshWidthZeroAllocs extends the zero-allocation guarantee to
// every lane width and layout shape: one lane, a partly filled and a
// full word at d = 9, and the spanning layout at d = 33 (one lane over
// two words per row). Warmed-up meshes decode full batches without
// touching the heap.
func TestBatchMeshWidthZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct {
		d, lanes int
		p        float64
	}{{9, 1, 0.08}, {9, 2, 0.08}, {9, MaxBatchLanes(9), 0.08}, {33, 1, 0.01}} {
		g := lattice.MustNew(c.d).MatchingGraph(lattice.ZErrors)
		batch := NewBatchWithLanes(g, Final, c.lanes)
		n := 2 * batch.Lanes()
		syns := make([][]bool, n)
		for i := range syns {
			syns[i] = make([]bool, g.NumChecks())
			for j := range syns[i] {
				syns[i][j] = rng.Float64() < c.p
			}
		}
		s := decodepool.NewScratch()
		for i := 0; i < 4; i++ {
			if _, err := batch.DecodeBatchInto(g, syns, s); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(16, func() {
			if _, err := batch.DecodeBatchInto(g, syns, s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("d=%d lanes=%d: %.1f allocs/batch, want 0", c.d, c.lanes, allocs)
		}
	}
}
