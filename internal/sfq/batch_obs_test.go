package sfq

import (
	"testing"

	"repro/internal/decodepool"
	"repro/internal/lattice"
	"repro/internal/obs"
)

// Every lane decode through the batch kernel — including lanes whose
// syndrome is empty — lands exactly one observation in the shared per-d
// cycle histogram, and returning the mesh to its pool flushes the local
// recorder, so the pool boundary is the exactly-once point. A rejected
// double Put must not replay samples.
func TestBatchMeshCycleTelemetry(t *testing.T) {
	p := NewPool(Final)
	g := p.Graph(3, lattice.XErrors)
	hist := obs.Default().Histogram("sfq_decode_cycles_d3")
	before := hist.Count()

	b := p.GetBatch(3, lattice.XErrors)
	s := decodepool.NewScratch()
	m := g.NumChecks()
	decodes := 0
	for w := 0; w < 3; w++ {
		syns := make([][]bool, 2*b.Lanes()+1)
		for i := range syns {
			syn := make([]bool, m)
			if i%3 != 2 { // leave every third lane empty
				syn[0] = true
				syn[1+i%(m-1)] = true
			}
			syns[i] = syn
		}
		if _, err := b.DecodeBatchInto(g, syns, s); err != nil {
			t.Fatal(err)
		}
		decodes += len(syns)
	}
	p.Put(b)
	if got := hist.Count() - before; got != uint64(decodes) {
		t.Fatalf("histogram grew by %d after Put, want %d (one per lane decode)", got, decodes)
	}

	// The mesh is parked now; a double Put is rejected and must not
	// flush anything new.
	p.Put(b)
	if got := hist.Count() - before; got != uint64(decodes) {
		t.Fatalf("double Put replayed samples: histogram grew to %d, want %d", got, decodes)
	}
}

// The single-decode entries share the kernel's recorder at every lane
// count: each DecodeInto and DecodeWithStats records one sample,
// flushed by FlushObs, and leaves its cycles readable through Stats.
func TestBatchMeshAdapterTelemetry(t *testing.T) {
	g := lattice.MustNew(3).MatchingGraph(lattice.XErrors)
	hist := obs.Default().Histogram("sfq_decode_cycles_d3")
	syn := make([]bool, g.NumChecks())
	syn[0], syn[1] = true, true
	s := decodepool.NewScratch()
	for _, lanes := range []int{1, MaxBatchLanes(3)} {
		for _, entry := range []struct {
			name   string
			decode func(b *BatchMesh) error
		}{
			{"DecodeInto", func(b *BatchMesh) error { _, err := b.DecodeInto(g, syn, s); return err }},
			{"DecodeWithStats", func(b *BatchMesh) error { _, _, err := b.DecodeWithStats(syn); return err }},
		} {
			before := hist.Count()
			b := NewBatchWithLanes(g, Final, lanes)
			const decodes = 10
			for i := 0; i < decodes; i++ {
				if err := entry.decode(b); err != nil {
					t.Fatal(err)
				}
			}
			b.FlushObs()
			if got := hist.Count() - before; got != decodes {
				t.Fatalf("lanes=%d %s: histogram grew by %d, want %d", lanes, entry.name, got, decodes)
			}
			if b.Stats().Cycles == 0 {
				t.Fatalf("lanes=%d %s: decode reported zero cycles", lanes, entry.name)
			}
			if max := hist.Snapshot().Max; max == 0 {
				t.Fatalf("lanes=%d %s: histogram recorded zero max cycles", lanes, entry.name)
			}
		}
	}
}
