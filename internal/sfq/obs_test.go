package sfq

import (
	"testing"

	"repro/internal/lattice"
)

// Pool accounting must be exactly-once at every lane count: hits +
// misses = gets, every accepted Put balances one Get, double Puts and
// foreign meshes are rejected and counted, strays are adopted, and the
// outstanding count returns to zero when every mesh comes home. Get
// and GetBatch share the accounting but never each other's meshes.
func TestPoolExactlyOnceAccounting(t *testing.T) {
	const d = 3
	if MaxBatchLanes(d) == 1 {
		t.Fatalf("d=%d packs one lane; the lane-separation cases need more", d)
	}
	for _, c := range []struct {
		name  string
		lanes int
		get   func(*Pool) *BatchMesh
		other func(*Pool) *BatchMesh // the other lane count's Get
	}{
		{"Get", 1,
			func(p *Pool) *BatchMesh { return p.Get(d, lattice.XErrors) },
			func(p *Pool) *BatchMesh { return p.GetBatch(d, lattice.XErrors) }},
		{"GetBatch", MaxBatchLanes(d),
			func(p *Pool) *BatchMesh { return p.GetBatch(d, lattice.XErrors) },
			func(p *Pool) *BatchMesh { return p.Get(d, lattice.XErrors) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := NewPool(Final)
			stray := func(v Variant) *BatchMesh {
				return NewBatchWithLanes(p.Graph(d, lattice.XErrors), v, c.lanes)
			}

			var meshes []*BatchMesh
			for i := 0; i < 4; i++ {
				m := c.get(p)
				if m.Lanes() != c.lanes {
					t.Fatalf("%s handed out a %d-lane mesh, want %d", c.name, m.Lanes(), c.lanes)
				}
				meshes = append(meshes, m)
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

			// The other lane count never draws these meshes: its Get
			// misses and builds its own layout.
			o := c.other(p)
			for _, m := range meshes {
				if o == m {
					t.Fatalf("a %d-lane mesh was handed out at %d lanes", c.lanes, o.Lanes())
				}
			}
			if s = p.Stats(); s.Misses != 5 || s.Hits != 0 || o.Lanes() == c.lanes {
				t.Fatalf("other lane count drew from this free list: %d lanes, %+v", o.Lanes(), s)
			}
			p.Put(o)

			// Reuse must hit the free list.
			m := c.get(p)
			if s = p.Stats(); s.Hits != 1 || s.Gets != 6 || s.Outstanding != 1 {
				t.Fatalf("after warm get: %+v", s)
			}

			// Double Put: the second is rejected, the mesh is not aliased.
			p.Put(m)
			p.Put(m)
			s = p.Stats()
			if s.DoublePuts != 1 || s.Puts != 6 || s.Outstanding != 0 {
				t.Fatalf("after double put: %+v", s)
			}
			a, b := c.get(p), c.get(p)
			if a == b {
				t.Fatal("double Put aliased one mesh into two Gets")
			}
			p.Put(a)
			p.Put(b)

			// Foreign meshes: wrong variant, and another pool's mesh.
			p.Put(stray(Baseline))
			other := NewPool(Final)
			p.Put(c.get(other))
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

			// A compatible stray built outside any pool is adopted
			// without going negative on outstanding, and handed out next.
			st := stray(Final)
			p.Put(st)
			if s = p.Stats(); s.Outstanding != 0 || s.Puts != 9 {
				t.Fatalf("adopting a stray: %+v", s)
			}
			if got := c.get(p); got != st {
				t.Fatal("the adopted stray was not handed out next")
			} else {
				p.Put(got)
			}
			if s = p.Stats(); s.Outstanding != 0 {
				t.Fatalf("outstanding = %d after every mesh came home", s.Outstanding)
			}
		})
	}
}
