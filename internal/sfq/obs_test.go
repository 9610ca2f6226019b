package sfq

import (
	"testing"

	"repro/internal/lattice"
	"repro/internal/obs"
)

// Pool accounting must be exactly-once: hits + misses = gets, every
// accepted Put balances one Get, double Puts and foreign meshes are
// rejected and counted, and the outstanding count returns to zero when
// every mesh comes home.
func TestPoolExactlyOnceAccounting(t *testing.T) {
	p := NewPool(Final)

	var meshes []*Mesh
	for i := 0; i < 4; i++ {
		meshes = append(meshes, p.Get(3, lattice.XErrors))
	}
	s := p.Stats()
	if s.Gets != 4 || s.Misses != 4 || s.Hits != 0 || s.Outstanding != 4 {
		t.Fatalf("after 4 cold gets: %+v", s)
	}
	for _, m := range meshes {
		p.Put(m)
	}
	s = p.Stats()
	if s.Puts != 4 || s.Outstanding != 0 {
		t.Fatalf("after returning all: %+v", s)
	}

	// Reuse must hit the free list.
	m := p.Get(3, lattice.XErrors)
	if s = p.Stats(); s.Hits != 1 || s.Gets != 5 || s.Outstanding != 1 {
		t.Fatalf("after warm get: %+v", s)
	}

	// Double Put: the second is rejected, the mesh is not aliased.
	p.Put(m)
	p.Put(m)
	s = p.Stats()
	if s.DoublePuts != 1 || s.Puts != 5 || s.Outstanding != 0 {
		t.Fatalf("after double put: %+v", s)
	}
	a := p.Get(3, lattice.XErrors)
	b := p.Get(3, lattice.XErrors)
	if a == b {
		t.Fatal("double Put aliased one mesh into two Gets")
	}
	p.Put(a)
	p.Put(b)

	// Foreign meshes: wrong variant, and another pool's mesh.
	p.Put(New(p.Graph(3, lattice.XErrors), Baseline))
	other := NewPool(Final)
	p.Put(other.Get(3, lattice.XErrors))
	s = p.Stats()
	if s.Foreign != 2 {
		t.Fatalf("foreign rejects not counted: %+v", s)
	}
	if s.Outstanding != 0 {
		t.Fatalf("foreign rejects perturbed outstanding: %+v", s)
	}
	if other.Stats().Outstanding != 1 {
		t.Fatalf("other pool's outstanding = %d, want 1", other.Stats().Outstanding)
	}

	// A compatible stray built outside any pool is adopted without
	// going negative on outstanding.
	p.Put(New(p.Graph(3, lattice.XErrors), Final))
	if s = p.Stats(); s.Outstanding != 0 {
		t.Fatalf("adopting a stray went negative: %+v", s)
	}
}

// Every successful decode lands one observation in the shared per-d
// cycle histogram once the mesh's local recorder is flushed.
func TestMeshCycleTelemetry(t *testing.T) {
	g := lattice.MustNew(3).MatchingGraph(lattice.XErrors)
	hist := obs.Default().Histogram("sfq_decode_cycles_d3")
	before := hist.Count()

	m := New(g, Final)
	syn := make([]bool, g.NumChecks())
	syn[0], syn[1] = true, true
	const decodes = 10
	for i := 0; i < decodes; i++ {
		if _, _, err := m.DecodeWithStats(syn); err != nil {
			t.Fatal(err)
		}
	}
	m.FlushObs()
	if got := hist.Count() - before; got != decodes {
		t.Fatalf("histogram grew by %d, want %d", got, decodes)
	}
	if m.Stats().Cycles == 0 {
		t.Fatal("decode reported zero cycles")
	}
	if max := hist.Snapshot().Max; max == 0 {
		t.Fatal("histogram recorded zero max cycles")
	}
}
