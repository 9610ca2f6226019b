// Package spacetime extends the paper's purely spatial (2D) decoding to
// the phenomenological noise model: syndrome measurements themselves
// flip with probability q, so decoding matches *detection events* —
// changes between consecutive syndrome rounds — in a 3D space-time
// graph whose time-like edges are measurement errors and whose
// space-like edges are data errors.
//
// The NISQ+ paper evaluates with perfect extraction (its decoder is
// per-round); this package is the repository's "future work" extension
// showing how the same matching machinery (greedy or exact blossom)
// lifts to repeated noisy measurement. Blocks of R noisy rounds are
// terminated by one perfect round, as is standard for lifetime studies.
package spacetime

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

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

// Decoder matches detection events in space-time. The exact method
// reuses the decoder's blossom matcher and weight buffer across calls,
// so a Decoder must not be used from two goroutines at once; each
// Simulator owns one.
type Decoder struct {
	g       *lattice.Graph
	method  Method
	matcher match.Matcher
	w       []int64 // flat 2n×2n weight matrix of the exact method
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

// Match pairs the detection events; events may also match a spatial
// boundary at their spatial boundary distance.
//
// The returned correction lists the data qubits to flip: the spatial
// projection of every matched path. Time-like segments are measurement
// errors and need no data correction.
func (d *Decoder) Match(events []Node) (pairs [][2]int, boundary []int) {
	n := len(events)
	if n == 0 {
		return nil, nil
	}
	switch d.method {
	case Exact:
		// Each event u has a boundary twin n+u. Every event reaches
		// every twin at its own boundary distance, and twins pair with
		// each other at zero cost.
		m := 2 * n
		if cap(d.w) < m*m {
			d.w = make([]int64, match.GrownSquare(m, cap(d.w)))
		}
		w := d.w[:m*m]
		for u := 0; u < n; u++ {
			b := int64(d.g.BoundaryDist(events[u].Check))
			for v := 0; v < n; v++ {
				w[u*m+v] = int64(d.dist(events[u], events[v]))
				w[u*m+n+v], w[(n+v)*m+u] = b, b
				w[(n+u)*m+n+v] = 0
			}
		}
		mate, _ := d.matcher.MinWeightPerfect(m, w)
		for u := 0; u < n; u++ {
			if mate[u] >= n {
				boundary = append(boundary, u)
			} else if mate[u] > u {
				pairs = append(pairs, [2]int{u, mate[u]})
			}
		}
		return pairs, boundary
	default:
		type edge struct {
			w, i, j int // j == -1 marks a boundary edge
		}
		var edges []edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, edge{d.dist(events[i], events[j]), i, j})
			}
			edges = append(edges, edge{d.g.BoundaryDist(events[i].Check), i, -1})
		}
		sort.Slice(edges, func(x, y int) bool {
			if edges[x].w != edges[y].w {
				return edges[x].w < edges[y].w
			}
			if (edges[x].j == -1) != (edges[y].j == -1) {
				return edges[y].j == -1
			}
			if edges[x].i != edges[y].i {
				return edges[x].i < edges[y].i
			}
			return edges[x].j < edges[y].j
		})
		matched := make([]bool, n)
		for _, e := range edges {
			if matched[e.i] {
				continue
			}
			if e.j == -1 {
				matched[e.i] = true
				boundary = append(boundary, e.i)
				continue
			}
			if matched[e.j] {
				continue
			}
			matched[e.i], matched[e.j] = true, true
			pairs = append(pairs, [2]int{e.i, e.j})
		}
		return pairs, boundary
	}
}

// Correction converts a matching over events into the data qubits to
// flip (the spatial projection of each path).
func (d *Decoder) Correction(events []Node, pairs [][2]int, boundary []int) []int {
	var qubits []int
	for _, p := range pairs {
		qubits = d.g.AppendPathQubits(qubits, events[p[0]].Check, events[p[1]].Check)
	}
	for _, i := range boundary {
		qubits = d.g.AppendBoundaryPathQubits(qubits, events[i].Check)
	}
	return qubits
}

// Config describes a phenomenological lifetime experiment.
type Config struct {
	Distance int
	P        float64 // data error rate per round
	Q        float64 // measurement flip rate per round
	Rounds   int     // noisy rounds per block (a perfect round closes each block)
	Method   Method
	Seed     int64
}

// Result summarizes a run.
type Result struct {
	Blocks        int
	Rounds        int // noisy rounds simulated (Blocks × Rounds)
	LogicalErrors int
	PL            float64 // logical errors per block
}

// Simulator runs repeated noisy-measurement blocks against the
// space-time decoder (Z errors / X checks, matching the paper's
// headline dephasing evaluation).
type Simulator struct {
	cfg  Config
	l    *lattice.Lattice
	g    *lattice.Graph
	dec  *Decoder
	rng  *rand.Rand
	ch   noise.Dephasing
	mf   noise.MeasureFlip
	data []int
	res  *pauli.Frame
	cut  []int
}

// NewSimulator validates the configuration and builds the simulator.
func NewSimulator(cfg Config) (*Simulator, error) {
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
	s := &Simulator{
		cfg: cfg,
		l:   l,
		g:   g,
		dec: NewDecoder(g, cfg.Method),
		rng: noise.NewRand(cfg.Seed),
		ch:  ch,
		mf:  mf,
		res: pauli.NewFrame(l.NumQubits()),
		cut: l.LogicalCutSupport(lattice.ZErrors),
	}
	for _, site := range l.DataSites() {
		s.data = append(s.data, l.QubitIndex(site))
	}
	return s, nil
}

// SetRand swaps the simulator's randomness source. Engine shards call
// this before every trial with the trial's private stream.
func (s *Simulator) SetRand(rng *rand.Rand) { s.rng = rng }

// Reset clears the residual error frame, so the next block starts from
// the code space independent of earlier blocks.
func (s *Simulator) Reset() { s.res.Clear() }

// Run simulates the given number of blocks.
func (s *Simulator) Run(blocks int) (Result, error) {
	var out Result
	for b := 0; b < blocks; b++ {
		flipped, err := s.runBlock()
		if err != nil {
			return out, err
		}
		out.Blocks++
		out.Rounds += s.cfg.Rounds
		if flipped {
			out.LogicalErrors++
		}
	}
	if out.Blocks > 0 {
		out.PL = float64(out.LogicalErrors) / float64(out.Blocks)
	}
	return out, nil
}

// blockShard adapts a private simulator to the Monte-Carlo engine: one
// trial is one block from a clean frame.
type blockShard struct {
	sim *Simulator
}

// Trial implements mc.Shard.
func (sh *blockShard) Trial(rng *rand.Rand, _ int) (mc.Outcome, error) {
	sh.sim.Reset()
	sh.sim.SetRand(rng)
	flipped, err := sh.sim.runBlock()
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
// bit-identical regardless of workers. Config.Seed fields are ignored;
// rootSeed drives all streams. Results are returned in config order.
func Sweep(ctx context.Context, cfgs []Config, blocks int, rootSeed int64, workers int) ([]Result, error) {
	specs := make([]mc.PointSpec, len(cfgs))
	for i, cfg := range cfgs {
		cfg := cfg
		specs[i] = mc.PointSpec{
			ID:     cfg.pointID(),
			Trials: blocks,
			NewShard: func() (mc.Shard, error) {
				sim, err := NewSimulator(cfg)
				if err != nil {
					return nil, err
				}
				return &blockShard{sim: sim}, nil
			},
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

// runBlock executes R noisy rounds plus a perfect closing round, decodes
// the detection events, applies the correction, and reports whether the
// block flipped the logical state.
func (s *Simulator) runBlock() (bool, error) {
	prev := make([]bool, s.g.NumChecks()) // block opens syndrome-clean
	var events []Node
	for r := 0; r < s.cfg.Rounds; r++ {
		s.ch.Sample(s.rng, s.res, s.data)
		syn := s.g.Syndrome(s.res)
		s.mf.Flip(s.rng, syn)
		for i := range syn {
			if syn[i] != prev[i] {
				events = append(events, Node{Check: i, Round: r})
			}
		}
		prev = syn
	}
	// Closing perfect round.
	final := s.g.Syndrome(s.res)
	for i := range final {
		if final[i] != prev[i] {
			events = append(events, Node{Check: i, Round: s.cfg.Rounds})
		}
	}
	pairs, boundary := s.dec.Match(events)
	for _, q := range s.dec.Correction(events, pairs, boundary) {
		s.res.Apply(q, pauli.Z)
	}
	for i, hot := range s.g.Syndrome(s.res) {
		if hot {
			return false, fmt.Errorf("spacetime: residual check %d hot after block correction", i)
		}
	}
	if s.res.ParityZ(s.cut) == 1 {
		for _, q := range s.l.LogicalSupport(lattice.ZErrors) {
			s.res.Apply(q, pauli.Z)
		}
		return true, nil
	}
	return false, nil
}
