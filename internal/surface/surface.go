// Package surface implements the lifetime (Monte-Carlo) simulation of
// §VII: a logical qubit held in a distance-d planar surface code while
// errors are injected every cycle, syndromes extracted, a decoder
// consulted and corrections applied. The ratio of logical errors to
// simulated cycles is the logical error rate PL, the primary performance
// metric of the paper's Fig. 10 evaluation.
package surface

import (
	"fmt"
	"math/rand"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/pauli"
	"repro/internal/sfq"
	"repro/internal/stabilizer"
	"repro/internal/twolevel"
)

// Config describes one lifetime experiment.
type Config struct {
	// Distance is the code distance (odd, >= 3).
	Distance int
	// Channel injects data-qubit errors once per cycle.
	Channel noise.Channel
	// DecoderZ corrects phase flips (decodes the X-check graph); nil
	// disables Z decoding — only valid when the channel produces no Z
	// errors.
	DecoderZ decoder.Decoder
	// DecoderX corrects bit flips; nil disables X decoding.
	DecoderX decoder.Decoder
	// Seed drives all randomness; runs are reproducible per seed.
	Seed int64
	// Rand, when non-nil, supplies the randomness source directly and
	// takes precedence over Seed. Monte-Carlo shards inject per-trial
	// counter-based streams here (see internal/mc) so concurrent
	// simulators never share generator state.
	Rand *rand.Rand
	// UseCircuits extracts syndromes by simulating the Fig. 3
	// stabilizer circuits instead of computing check parities directly.
	// Both paths agree exactly under data-only noise.
	UseCircuits bool
	// Observer, when non-nil, receives the mesh statistics of every SFQ
	// decode invocation (ignored for software decoders).
	Observer func(e lattice.ErrorType, st sfq.Stats)
	// Obs, when non-nil, instruments the simulator's decode arena: the
	// software-decoder wall-clock latency is sampled into the registry's
	// decodepool_decode_ns histogram and the decode count advances
	// decodepool_decodes_total (see decodepool.Scratch.Instrument; SFQ
	// mesh decoders record their own cycle histograms process-wide).
	Obs *obs.Registry
}

// Result summarizes a lifetime run.
type Result struct {
	Cycles        int     // syndrome-measurement cycles simulated
	LogicalErrors int     // cycles on which the logical state flipped
	Forced        int     // hot checks force-completed to a boundary by the harness
	PL            float64 // LogicalErrors / Cycles
}

// Simulator holds the mutable state of one lifetime experiment.
type Simulator struct {
	cfg Config
	l   *lattice.Lattice
	rng *rand.Rand

	residual *pauli.Frame
	data     []int // data-qubit indices

	planes []*plane

	// scratch is this simulator's private decode arena. One simulator is
	// one worker (one Monte-Carlo shard), so a single scratch makes the
	// whole decode loop allocation-free in steady state.
	scratch *decodepool.Scratch

	// batchFrames are the per-lane residual frames of RunTrialBatch
	// (each lane is an independent one-cycle trial), grown on first use.
	batchFrames []*pauli.Frame
}

// plane bundles everything needed to decode one error type.
type plane struct {
	etype lattice.ErrorType
	graph *lattice.Graph
	dec   decoder.Decoder
	bmesh *sfq.BatchMesh    // non-nil when dec is an SFQ mesh
	tl    *twolevel.Decoder // non-nil when dec is a two-level decoder
	ext   *stabilizer.Extractor
	cut   []int // data qubits whose parity flags a logical flip
	op    pauli.Op

	syn  []bool   // reusable syndrome buffer
	left []bool   // reusable post-correction syndrome buffer
	bsyn [][]bool // per-lane syndrome buffers of the batch path
}

// New validates the configuration and builds a simulator.
func New(cfg Config) (*Simulator, error) {
	l, err := lattice.New(cfg.Distance)
	if err != nil {
		return nil, err
	}
	if cfg.Channel == nil {
		return nil, fmt.Errorf("surface: nil channel")
	}
	if cfg.DecoderZ == nil && cfg.DecoderX == nil {
		return nil, fmt.Errorf("surface: no decoder configured")
	}
	rng := cfg.Rand
	if rng == nil {
		rng = noise.NewRand(cfg.Seed)
	}
	s := &Simulator{
		cfg:      cfg,
		l:        l,
		rng:      rng,
		residual: pauli.NewFrame(l.NumQubits()),
		scratch:  decodepool.NewScratch(),
	}
	if cfg.Obs != nil {
		s.scratch.Instrument(cfg.Obs.Histogram("decodepool_decode_ns"),
			cfg.Obs.Counter("decodepool_decodes_total"), 0)
	}
	for _, site := range l.DataSites() {
		s.data = append(s.data, l.QubitIndex(site))
	}
	add := func(e lattice.ErrorType, dec decoder.Decoder, op pauli.Op) {
		if dec == nil {
			return
		}
		g := l.MatchingGraph(e)
		p := &plane{
			etype: e, graph: g, dec: dec, cut: l.LogicalCutSupport(e), op: op,
			syn:  make([]bool, g.NumChecks()),
			left: make([]bool, g.NumChecks()),
		}
		switch m := dec.(type) {
		case *sfq.BatchMesh:
			p.bmesh = m
		case *twolevel.Decoder:
			p.tl = m
		}
		if cfg.UseCircuits {
			p.ext = stabilizer.NewExtractor(g)
		}
		s.planes = append(s.planes, p)
	}
	add(lattice.ZErrors, cfg.DecoderZ, pauli.Z)
	add(lattice.XErrors, cfg.DecoderX, pauli.X)
	return s, nil
}

// NewWithRand builds a simulator driven by the injected random stream,
// overriding any Seed in the configuration. Sharded Monte-Carlo
// harnesses use it so each shard owns its generator state.
func NewWithRand(cfg Config, rng *rand.Rand) (*Simulator, error) {
	cfg.Rand = rng
	return New(cfg)
}

// Lattice exposes the simulator's lattice.
func (s *Simulator) Lattice() *lattice.Lattice { return s.l }

// SetRand swaps the simulator's randomness source. Engine shards call
// this before every trial with the trial's private stream.
func (s *Simulator) SetRand(rng *rand.Rand) { s.rng = rng }

// Decoders returns the simulator's configured decoders (Z plane first
// when present). Release hooks use it to reclaim pooled decoder meshes
// when a Monte-Carlo shard retires.
func (s *Simulator) Decoders() []decoder.Decoder {
	decs := make([]decoder.Decoder, 0, len(s.planes))
	for _, p := range s.planes {
		decs = append(decs, p.dec)
	}
	return decs
}

// Reset clears the residual error frame, returning the simulator to
// the code space so the next Run is independent of earlier cycles.
// Counters already returned by Run are unaffected.
func (s *Simulator) Reset() { s.residual.Clear() }

// Run simulates the given number of cycles and returns cumulative
// counters for this call.
func (s *Simulator) Run(cycles int) (Result, error) {
	var res Result
	for c := 0; c < cycles; c++ {
		s.cfg.Channel.Sample(s.rng, s.residual, s.data)
		flipped := false
		for _, p := range s.planes {
			f, err := s.decodePlane(p, &res)
			if err != nil {
				return res, err
			}
			flipped = flipped || f
		}
		if err := s.checkClean(); err != nil {
			return res, err
		}
		if flipped {
			res.LogicalErrors++
		}
		res.Cycles++
	}
	if res.Cycles > 0 {
		res.PL = float64(res.LogicalErrors) / float64(res.Cycles)
	}
	return res, nil
}

// decodePlane extracts one plane's syndrome, applies the decoder's
// correction (force-completing anything the decoder left unresolved) and
// reports whether the plane's logical operator flipped.
func (s *Simulator) decodePlane(p *plane, res *Result) (bool, error) {
	var syn []bool
	var err error
	if p.ext != nil {
		syn, err = p.ext.Extract(s.residual, nil, nil)
		if err != nil {
			return false, err
		}
	} else {
		syn = p.graph.SyndromeInto(s.residual, p.syn)
	}
	var corr decoder.Correction
	if p.bmesh != nil {
		// The mesh joins the zero-allocation scratch path, decoding
		// through lane 0; cycle statistics stay readable on the mesh.
		corr, err = p.bmesh.DecodeInto(p.graph, syn, s.scratch)
		if err == nil && s.cfg.Observer != nil {
			s.cfg.Observer(p.etype, p.bmesh.Stats())
		}
	} else if p.tl != nil {
		// Two-level: the observer sees the level-1 mesh statistics (the
		// escalation verdict is a pure function of them).
		corr, err = p.tl.DecodeInto(p.graph, syn, s.scratch)
		if err == nil && s.cfg.Observer != nil {
			s.cfg.Observer(p.etype, p.tl.MeshStats(0))
		}
	} else {
		// Routes through the zero-allocation DecodeInto path when the
		// decoder supports it; corr then aliases s.scratch and is consumed
		// before the next decode.
		corr, err = decodepool.Decode(p.dec, p.graph, syn, s.scratch)
	}
	if err != nil {
		return false, fmt.Errorf("surface: %s on %v checks: %w", p.dec.Name(), p.etype, err)
	}
	forced := 0
	flipped := s.finishPlane(p, s.residual, corr.Qubits, &forced)
	res.Forced += forced
	return flipped, nil
}

// finishPlane applies a correction to one frame, force-completes
// anything the decoder left unresolved, and reports whether the plane's
// logical operator flipped (normalizing the frame when it did). It is
// the shared tail of the scalar and batched decode paths.
func (s *Simulator) finishPlane(p *plane, f *pauli.Frame, qubits []int, forced *int) bool {
	for _, q := range qubits {
		f.Apply(q, p.op)
	}
	// Ablation variants (and any buggy decoder) may leave checks hot;
	// the evaluation harness completes them with boundary chains so the
	// residual is always stabilizer-trivial and PL stays well defined.
	left := p.graph.SyndromeInto(f, p.left)
	for i, hot := range left {
		if !hot {
			continue
		}
		for _, q := range p.graph.BoundaryPathQubits(i) {
			f.Apply(q, p.op)
		}
		*forced++
	}
	if par := parity(f, p.cut, p.etype); par == 1 {
		// Normalize the residual by the logical operator so each
		// logical flip is counted once.
		for _, q := range s.l.LogicalSupport(p.etype) {
			f.Apply(q, p.op)
		}
		return true
	}
	return false
}

// BatchOutcome is one lane's result of RunTrialBatch: one independent
// cycle simulated on a private frame.
type BatchOutcome struct {
	Failed bool // the logical state flipped this cycle
	Forced int  // hot checks force-completed to a boundary by the harness
}

// BatchWidth reports how many independent one-cycle trials
// RunTrialBatch advances per call: the smallest lane width across the
// simulator's mesh planes. It is 1 — batching unavailable — when any
// configured decoder is neither an SFQ mesh nor a two-level decoder,
// when any plane's mesh has one lane, or when syndromes are extracted
// through stabilizer circuits.
func (s *Simulator) BatchWidth() int {
	if s.cfg.UseCircuits {
		return 1
	}
	w := 0
	for _, p := range s.planes {
		var lw int
		switch {
		case p.bmesh != nil:
			lw = p.bmesh.Lanes()
		case p.tl != nil:
			lw = p.tl.BatchWidth()
		default:
			return 1
		}
		if w == 0 || lw < w {
			w = lw
		}
	}
	if w == 0 {
		return 1
	}
	return w
}

// RunTrialBatch simulates len(rngs) independent one-cycle trials, lane
// i driven by rngs[i] on its own residual frame, decoding every plane's
// syndromes in one batched SWAR call. Lane i's outcome is bit-identical
// to Reset + SetRand(rngs[i]) + Run(1) on the scalar path: each lane
// samples its channel from its own stream, and the mesh kernel is
// conformance-pinned to the reference model at every lane count. outs
// must have len(rngs) elements; Run's cumulative counters are not
// touched.
func (s *Simulator) RunTrialBatch(rngs []*rand.Rand, outs []BatchOutcome) error {
	w := len(rngs)
	if len(outs) != w {
		return fmt.Errorf("surface: %d outcomes for %d trial streams", len(outs), w)
	}
	s.ensureBatch(w)
	for i := 0; i < w; i++ {
		f := s.batchFrames[i]
		f.Clear()
		s.cfg.Channel.Sample(rngs[i], f, s.data)
		outs[i] = BatchOutcome{}
	}
	for _, p := range s.planes {
		if p.bmesh == nil && p.tl == nil {
			return fmt.Errorf("surface: %v plane decoder %s cannot batch", p.etype, p.dec.Name())
		}
		for i := 0; i < w; i++ {
			p.graph.SyndromeInto(s.batchFrames[i], p.bsyn[i])
		}
		var corr []decoder.Correction
		var err error
		if p.tl != nil {
			corr, err = p.tl.DecodeBatchInto(p.graph, p.bsyn[:w], s.scratch)
		} else {
			corr, err = p.bmesh.DecodeBatchInto(p.graph, p.bsyn[:w], s.scratch)
		}
		if err != nil {
			return fmt.Errorf("surface: %s on %v checks: %w", p.dec.Name(), p.etype, err)
		}
		for i := 0; i < w; i++ {
			if s.cfg.Observer != nil {
				if p.tl != nil {
					s.cfg.Observer(p.etype, p.tl.MeshStats(i))
				} else {
					s.cfg.Observer(p.etype, p.bmesh.LaneStats(i))
				}
			}
			if s.finishPlane(p, s.batchFrames[i], corr[i].Qubits, &outs[i].Forced) {
				outs[i].Failed = true
			}
		}
	}
	for i := 0; i < w; i++ {
		if err := s.checkCleanFrame(s.batchFrames[i]); err != nil {
			return err
		}
	}
	return nil
}

// ensureBatch grows the per-lane frames and syndrome buffers to width w.
func (s *Simulator) ensureBatch(w int) {
	for len(s.batchFrames) < w {
		s.batchFrames = append(s.batchFrames, pauli.NewFrame(s.l.NumQubits()))
	}
	for _, p := range s.planes {
		for len(p.bsyn) < w {
			p.bsyn = append(p.bsyn, make([]bool, p.graph.NumChecks()))
		}
	}
}

// parity returns the residual's error parity over the cut.
func parity(f *pauli.Frame, cut []int, e lattice.ErrorType) int {
	if e == lattice.ZErrors {
		return f.ParityZ(cut)
	}
	return f.ParityX(cut)
}

// checkClean verifies the invariant that after decoding (plus forced
// completion and logical normalization) the residual frame is trivial on
// every configured plane.
func (s *Simulator) checkClean() error { return s.checkCleanFrame(s.residual) }

func (s *Simulator) checkCleanFrame(f *pauli.Frame) error {
	for _, p := range s.planes {
		for i, hot := range p.graph.SyndromeInto(f, p.left) {
			if hot {
				return fmt.Errorf("surface: residual leaves %v check %d hot after correction", p.etype, i)
			}
		}
	}
	return nil
}
