package sfq

import (
	"sync"

	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/obs"
)

// Pool recycles decoder meshes across Monte-Carlo shards, mirroring
// decodepool.Scratch: a sweep that runs thousands of shards per (d, p)
// point draws meshes from the pool instead of rebuilding lattice,
// matching graph, and mesh per shard. A Pool is safe for concurrent
// use; the meshes it hands out are not (one mesh per shard).
//
// Delivery is exactly-once and observable: every mesh tracks which pool
// handed it out and whether it is currently parked, so a double Put
// (which would alias one mesh into two shards), a Put of another pool's
// mesh, or a mesh that never comes back all show up in Stats and in the
// process-wide sfq_pool_* metrics instead of silently corrupting the
// free list.
type Pool struct {
	variant Variant

	mu     sync.Mutex
	graphs map[graphKey]*lattice.Graph
	free   map[meshKey][]*BatchMesh
	stats  PoolStats
}

// PoolStats is a pool's cumulative accounting. Hits + Misses == Gets,
// and when every mesh has been returned exactly once,
// Outstanding == 0 and Puts == Gets - adopted strays.
type PoolStats struct {
	Gets        int64 // meshes handed out
	Hits        int64 // Gets served from the free list
	Misses      int64 // Gets that built a new mesh
	Puts        int64 // meshes accepted back
	Foreign     int64 // rejected Puts: wrong variant or another pool's mesh
	DoublePuts  int64 // rejected Puts: mesh already parked in this pool
	Outstanding int64 // handed out and not yet returned
}

type graphKey struct {
	d int
	e lattice.ErrorType
}

// meshKey keys the free lists by (d, e, lane count): meshes of
// different lane counts have different plane layouts and must never
// mix.
type meshKey struct {
	graphKey
	lanes int
}

// Process-wide pool telemetry, aggregated across all pools.
var (
	poolGets        = obs.Default().Counter("sfq_pool_gets_total")
	poolHits        = obs.Default().Counter("sfq_pool_hits_total")
	poolMisses      = obs.Default().Counter("sfq_pool_misses_total")
	poolPuts        = obs.Default().Counter("sfq_pool_puts_total")
	poolForeign     = obs.Default().Counter("sfq_pool_foreign_total")
	poolDoublePuts  = obs.Default().Counter("sfq_pool_double_puts_total")
	poolOutstanding = obs.Default().Gauge("sfq_pool_outstanding")
)

// NewPool returns a pool of meshes with the given design variant.
func NewPool(v Variant) *Pool {
	return &Pool{
		variant: v,
		graphs:  map[graphKey]*lattice.Graph{},
		free:    map[meshKey][]*BatchMesh{},
	}
}

// Stats returns a snapshot of the pool's accounting.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Graph returns the pool's shared matching graph for (d, e), building
// it on first use. All meshes the pool hands out for (d, e) are bound
// to this graph.
func (p *Pool) Graph(d int, e lattice.ErrorType) *lattice.Graph {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.graphLocked(graphKey{d, e})
}

func (p *Pool) graphLocked(k graphKey) *lattice.Graph {
	g := p.graphs[k]
	if g == nil {
		g = lattice.MustNew(k.d).MatchingGraph(k.e)
		p.graphs[k] = g
	}
	return g
}

// Get returns an idle one-lane mesh for (d, e), reusing a previously
// Put mesh when one is available.
func (p *Pool) Get(d int, e lattice.ErrorType) *Mesh { return p.get(d, e, 1) }

// GetBatch returns an idle batch mesh for (d, e) at the maximum lane
// count for d, MaxBatchLanes(d), reusing a previously Put mesh when
// one is available.
func (p *Pool) GetBatch(d int, e lattice.ErrorType) *BatchMesh {
	return p.get(d, e, MaxBatchLanes(d))
}

func (p *Pool) get(d int, e lattice.ErrorType, lanes int) *BatchMesh {
	k := meshKey{graphKey{d, e}, lanes}
	p.mu.Lock()
	p.stats.Gets++
	p.stats.Outstanding++
	poolGets.Inc()
	poolOutstanding.Add(1)
	if list := p.free[k]; len(list) > 0 {
		b := list[len(list)-1]
		list[len(list)-1] = nil
		p.free[k] = list[:len(list)-1]
		b.pooled = false
		p.stats.Hits++
		p.mu.Unlock()
		poolHits.Inc()
		return b
	}
	p.stats.Misses++
	g := p.graphLocked(k.graphKey)
	p.mu.Unlock()
	poolMisses.Inc()
	b := NewBatchWithLanes(g, p.variant, lanes)
	b.owner = p
	return b
}

// Put resets the mesh, clears its tracer, flushes its pending
// telemetry (one cycle sample per lane decode), and parks it on the
// free list of its lane count. Rejected — counted, never mixed in —
// are meshes whose variant differs from the pool's, meshes owned by
// another pool, and meshes already parked here (a double Put would
// alias one mesh into two future Gets). A compatible mesh built outside
// any pool is adopted without touching the outstanding count.
func (p *Pool) Put(b *BatchMesh) {
	if b == nil || b.variant != p.variant {
		p.mu.Lock()
		p.stats.Foreign++
		p.mu.Unlock()
		poolForeign.Inc()
		return
	}
	b.Reset()
	b.SetTracer(nil)
	b.FlushObs()
	k := meshKey{graphKey{b.geo.d, b.geo.e}, b.lanes}
	p.mu.Lock()
	switch {
	case b.pooled && b.owner == p:
		p.stats.DoublePuts++
		p.mu.Unlock()
		poolDoublePuts.Inc()
		return
	case b.owner != nil && b.owner != p:
		p.stats.Foreign++
		p.mu.Unlock()
		poolForeign.Inc()
		return
	}
	wasOurs := b.owner == p
	b.owner = p
	b.pooled = true
	p.free[k] = append(p.free[k], b)
	p.stats.Puts++
	if wasOurs {
		p.stats.Outstanding--
	}
	p.mu.Unlock()
	poolPuts.Inc()
	if wasOurs {
		poolOutstanding.Add(-1)
	}
}

// Release adapts Put to the func(decoder.Decoder) release hooks of the
// sweep layers: meshes return to the pool, anything else is ignored.
func (p *Pool) Release(dec decoder.Decoder) {
	if b, ok := dec.(*BatchMesh); ok {
		p.Put(b)
	}
}
