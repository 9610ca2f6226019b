// Package spacetime extends the paper's purely spatial (2D) decoding to
// the phenomenological noise model: syndrome measurements themselves
// flip with probability q, so decoding matches *detection events* —
// changes between consecutive syndrome rounds — in a 3D space-time
// graph whose time-like edges are measurement errors and whose
// space-like edges are data errors.
//
// The NISQ+ paper evaluates with perfect extraction (its decoder is
// per-round); this package is the repository's "future work" extension
// showing how the same matching machinery (match.Boundary, greedy or
// exact blossom) lifts to repeated noisy measurement: only the metric
// changes, by the events' time separation. Blocks of R noisy rounds are
// terminated by one perfect round, as is standard for lifetime studies.
package spacetime

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/lattice"
	"repro/internal/match"
	"repro/internal/mc"
	"repro/internal/noise"
	"repro/internal/pauli"
)

// Node is one detection event: check index Check fired at round Round.
type Node struct {
	Check int
	Round int
}

// Method selects the matching algorithm.
type Method uint8

const (
	// Greedy sorts candidate pairs by distance and matches greedily —
	// the NISQ+ algorithm lifted to 3D.
	Greedy Method = iota
	// Exact solves the space-time matching optimally with the blossom
	// algorithm.
	Exact
)

// String names the method.
func (m Method) String() string {
	if m == Exact {
		return "exact"
	}
	return "greedy"
}

// Decoder matches detection events in space-time. It reuses its
// boundary matcher across calls, so a Decoder must not be used from two
// goroutines at once; each engine shard owns one.
type Decoder struct {
	g      *lattice.Graph
	method Method
	bm     match.Boundary
}

// NewDecoder builds a space-time decoder over one matching graph.
func NewDecoder(g *lattice.Graph, m Method) *Decoder {
	return &Decoder{g: g, method: m}
}

// dist is the space-time metric: spatial matching-graph distance plus
// time separation.
func (d *Decoder) dist(a, b Node) int {
	dt := a.Round - b.Round
	if dt < 0 {
		dt = -dt
	}
	return d.g.Dist(a.Check, b.Check) + dt
}

// Match pairs the detection events under the space-time metric; events
// may also match a spatial boundary at their spatial boundary distance.
// The matching is match.Boundary's Greedy or Exact, by method. Pairs
// index into events; both slices are the matcher's own and stay valid
// until the next Match.
func (d *Decoder) Match(events []Node) (pairs [][2]int32, boundary []int32) {
	n := len(events)
	if n == 0 {
		return nil, nil
	}
	d.bm.Reset(n)
	for u, a := range events {
		d.bm.SetBoundary(u, d.g.BoundaryDist(a.Check))
		for v := u + 1; v < n; v++ {
			d.bm.SetPair(u, v, d.dist(a, events[v]))
		}
	}
	if d.method == Exact {
		return d.bm.Exact()
	}
	return d.bm.Greedy()
}

// AppendCorrection appends to dst the data qubits that a matching over
// events flips (the spatial projection of each path).
func (d *Decoder) AppendCorrection(dst []int, events []Node, pairs [][2]int32, boundary []int32) []int {
	for _, p := range pairs {
		dst = d.g.AppendPathQubits(dst, events[p[0]].Check, events[p[1]].Check)
	}
	for _, i := range boundary {
		dst = d.g.AppendBoundaryPathQubits(dst, events[i].Check)
	}
	return dst
}

// Config describes a phenomenological lifetime experiment.
type Config struct {
	Distance int
	P        float64 // data error rate per round
	Q        float64 // measurement flip rate per round
	Rounds   int     // noisy rounds per block (a perfect round closes each block)
	Method   Method
}

// Result summarizes a run.
type Result struct {
	Blocks        int
	Rounds        int // noisy rounds simulated (Blocks × Rounds)
	LogicalErrors int
	PL            float64 // logical errors per block
}

// blockShard runs noisy-measurement blocks against the space-time
// decoder (Z errors / X checks, matching the paper's headline dephasing
// evaluation) for the Monte-Carlo engine: one trial is one block from a
// clean frame. Its buffers are reused across trials, so a warmed shard
// decodes a block without allocating.
type blockShard struct {
	rounds  int
	g       *lattice.Graph
	dec     *Decoder
	ch      noise.Dephasing
	mf      noise.MeasureFlip
	data    []int
	res     *pauli.Frame
	cut     []int
	logical []int

	prev, cur []bool // syndromes of the last and the current round
	events    []Node
	corr      []int
}

// newBlockShard validates the configuration and builds a shard.
func newBlockShard(cfg Config) (*blockShard, error) {
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("spacetime: need >= 1 round per block, got %d", cfg.Rounds)
	}
	l, err := lattice.New(cfg.Distance)
	if err != nil {
		return nil, err
	}
	ch, err := noise.NewDephasing(cfg.P)
	if err != nil {
		return nil, err
	}
	mf, err := noise.NewMeasureFlip(cfg.Q)
	if err != nil {
		return nil, err
	}
	g := l.MatchingGraph(lattice.ZErrors)
	sh := &blockShard{
		rounds:  cfg.Rounds,
		g:       g,
		dec:     NewDecoder(g, cfg.Method),
		ch:      ch,
		mf:      mf,
		res:     pauli.NewFrame(l.NumQubits()),
		cut:     l.LogicalCutSupport(lattice.ZErrors),
		logical: l.LogicalSupport(lattice.ZErrors),
		prev:    make([]bool, g.NumChecks()),
		cur:     make([]bool, g.NumChecks()),
	}
	for _, site := range l.DataSites() {
		sh.data = append(sh.data, l.QubitIndex(site))
	}
	return sh, nil
}

// Trial implements mc.Shard.
func (sh *blockShard) Trial(rng *rand.Rand, _ int) (mc.Outcome, error) {
	flipped, err := sh.runBlock(rng)
	if err != nil {
		return mc.Outcome{}, err
	}
	return mc.Outcome{Failed: flipped}, nil
}

// pointID keys a config's random streams by its physical parameters,
// so a point's result is invariant under sweep reordering.
func (cfg Config) pointID() int64 {
	return mc.DeriveID(uint64(cfg.Distance), math.Float64bits(cfg.P),
		math.Float64bits(cfg.Q), uint64(cfg.Rounds), uint64(cfg.Method))
}

// Sweep runs one phenomenological lifetime experiment per config on
// the sharded Monte-Carlo engine: blocks of every point run in
// parallel, and every block's randomness is a pure function of
// (rootSeed, config parameters, block index), so results are
// bit-identical regardless of workers. Results are returned in config
// order.
func Sweep(ctx context.Context, cfgs []Config, blocks int, rootSeed int64, workers int) ([]Result, error) {
	specs := make([]mc.PointSpec, len(cfgs))
	for i, cfg := range cfgs {
		cfg := cfg
		specs[i] = mc.PointSpec{
			ID:       cfg.pointID(),
			Trials:   blocks,
			NewShard: func() (mc.Shard, error) { return newBlockShard(cfg) },
		}
	}
	tallies, err := mc.Run(ctx, mc.Config{RootSeed: rootSeed, Workers: workers}, specs)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(tallies))
	for i, t := range tallies {
		results[i] = Result{
			Blocks:        t.Trials,
			Rounds:        t.Trials * cfgs[i].Rounds,
			LogicalErrors: t.Failures,
		}
		if t.Trials > 0 {
			results[i].PL = float64(t.Failures) / float64(t.Trials)
		}
	}
	return results, nil
}

// runBlock executes R noisy rounds plus a perfect closing round from a
// clean frame, decodes the detection events, applies the correction,
// and reports whether the block flipped the logical state.
func (sh *blockShard) runBlock(rng *rand.Rand) (bool, error) {
	sh.res.Clear()
	clear(sh.prev) // the block opens syndrome-clean
	sh.events = sh.events[:0]
	for r := 0; r < sh.rounds; r++ {
		sh.ch.Sample(rng, sh.res, sh.data)
		syn := sh.mf.Flip(rng, sh.g.SyndromeInto(sh.res, sh.cur))
		sh.appendEvents(syn, r)
		sh.prev, sh.cur = syn, sh.prev
	}
	// Closing perfect round.
	sh.appendEvents(sh.g.SyndromeInto(sh.res, sh.cur), sh.rounds)
	pairs, boundary := sh.dec.Match(sh.events)
	sh.corr = sh.dec.AppendCorrection(sh.corr[:0], sh.events, pairs, boundary)
	for _, q := range sh.corr {
		sh.res.Apply(q, pauli.Z)
	}
	for i, hot := range sh.g.SyndromeInto(sh.res, sh.cur) {
		if hot {
			return false, fmt.Errorf("spacetime: residual check %d hot after block correction", i)
		}
	}
	if sh.res.ParityZ(sh.cut) == 1 {
		for _, q := range sh.logical {
			sh.res.Apply(q, pauli.Z)
		}
		return true, nil
	}
	return false, nil
}

// appendEvents records a detection event at round r for every check
// whose syndrome bit differs from the previous round's.
func (sh *blockShard) appendEvents(syn []bool, r int) {
	for i := range syn {
		if syn[i] != sh.prev[i] {
			sh.events = append(sh.events, Node{Check: i, Round: r})
		}
	}
}
