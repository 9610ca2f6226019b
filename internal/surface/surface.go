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
	// Seed drives Run's randomness; runs are reproducible per seed.
	// Monte-Carlo shards ignore it: they inject each trial's stream
	// through SetRand or RunTrialBatch (see internal/mc).
	Seed int64
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
	runFrame []*pauli.Frame // {residual}: Run's one-lane frame set
	runOut   []BatchOutcome // Run's one-lane outcome
	data     []int          // data-qubit indices

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
	// batch is dec's batched face when dec is an SFQ mesh or a
	// two-level decoder (nil otherwise), and laneStats reads syndrome
	// i's level-1 mesh statistics after its DecodeBatchInto call.
	batch     decodepool.BatchDecoder
	laneStats func(i int) sfq.Stats
	cut       []int // data qubits whose parity flags a logical flip
	logical   []int // the logical operator that normalizes a flip
	op        pauli.Op

	left  []bool   // reusable post-correction syndrome buffer
	chain []int    // reusable forced-completion chain buffer
	syns  [][]bool // per-lane syndrome buffers
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
	s := &Simulator{
		cfg:      cfg,
		l:        l,
		rng:      noise.NewRand(cfg.Seed),
		residual: pauli.NewFrame(l.NumQubits()),
		runOut:   make([]BatchOutcome, 1),
		scratch:  decodepool.NewScratch(),
	}
	s.runFrame = []*pauli.Frame{s.residual}
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
			etype: e, graph: g, dec: dec, op: op,
			cut: l.LogicalCutSupport(e), logical: l.LogicalSupport(e),
			left: make([]bool, g.NumChecks()),
		}
		switch m := dec.(type) {
		case *sfq.BatchMesh:
			p.batch, p.laneStats = m, m.LaneStats
		case *twolevel.Decoder:
			// The observer sees the level-1 mesh statistics (the
			// escalation verdict is a pure function of them).
			p.batch, p.laneStats = m, m.MeshStats
		}
		s.planes = append(s.planes, p)
	}
	add(lattice.ZErrors, cfg.DecoderZ, pauli.Z)
	add(lattice.XErrors, cfg.DecoderX, pauli.X)
	return s, nil
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

// Run simulates the given number of cycles on the simulator's carried
// residual frame and returns cumulative counters for this call. Each
// cycle decodes the residual through the same per-plane path as one
// lane of RunTrialBatch.
func (s *Simulator) Run(cycles int) (Result, error) {
	var res Result
	for c := 0; c < cycles; c++ {
		s.cfg.Channel.Sample(s.rng, s.residual, s.data)
		if err := s.decodeFrames(s.runFrame, s.runOut); err != nil {
			return res, err
		}
		if s.runOut[0].Failed {
			res.LogicalErrors++
		}
		res.Forced += s.runOut[0].Forced
		res.Cycles++
	}
	if res.Cycles > 0 {
		res.PL = float64(res.LogicalErrors) / float64(res.Cycles)
	}
	return res, nil
}

// finishPlane applies a correction to one frame, force-completes
// anything the decoder left unresolved (counted in out.Forced), and
// sets out.Failed when the plane's logical operator flipped
// (normalizing the frame when it did). It is the per-frame tail of
// decodeFrames.
func (s *Simulator) finishPlane(p *plane, f *pauli.Frame, qubits []int, out *BatchOutcome) {
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
		p.chain = p.graph.AppendBoundaryPathQubits(p.chain[:0], i)
		for _, q := range p.chain {
			f.Apply(q, p.op)
		}
		out.Forced++
	}
	if par := parity(f, p.cut, p.etype); par == 1 {
		// Normalize the residual by the logical operator so each
		// logical flip is counted once.
		for _, q := range p.logical {
			f.Apply(q, p.op)
		}
		out.Failed = true
	}
}

// BatchOutcome is one lane's result of RunTrialBatch: one independent
// cycle simulated on a private frame.
type BatchOutcome struct {
	Failed bool // the logical state flipped this cycle
	Forced int  // hot checks force-completed to a boundary by the harness
}

// BatchWidth reports how many independent one-cycle trials
// RunTrialBatch advances per decode call: the smallest lane width
// across the simulator's planes. It is 1 when any configured decoder
// is neither an SFQ mesh nor a two-level decoder, or when any plane's
// mesh has one lane.
func (s *Simulator) BatchWidth() int {
	w := 0
	for _, p := range s.planes {
		if p.batch == nil {
			return 1
		}
		if lw := p.batch.BatchWidth(); w == 0 || lw < w {
			w = lw
		}
	}
	return w
}

// RunTrialBatch simulates len(rngs) independent one-cycle trials, lane
// i driven by rngs[i] on its own residual frame. Lane i's outcome is
// bit-identical to Reset + SetRand(rngs[i]) + Run(1): each lane samples
// its channel from its own stream, and both go through decodeFrames.
// outs must have len(rngs) elements; Run's carried residual and
// cumulative counters are not touched.
func (s *Simulator) RunTrialBatch(rngs []*rand.Rand, outs []BatchOutcome) error {
	if len(outs) != len(rngs) {
		return fmt.Errorf("surface: %d outcomes for %d trial streams", len(outs), len(rngs))
	}
	for len(s.batchFrames) < len(rngs) {
		s.batchFrames = append(s.batchFrames, pauli.NewFrame(s.l.NumQubits()))
	}
	frames := s.batchFrames[:len(rngs)]
	for i, f := range frames {
		f.Clear()
		s.cfg.Channel.Sample(rngs[i], f, s.data)
	}
	return s.decodeFrames(frames, outs)
}

// decodeFrames decodes one cycle of every frame, plane by plane: it
// extracts each frame's syndrome, decodes, applies the correction
// (force-completing anything the decoder left unresolved) and writes
// the frame's logical flip and forced completions to outs. A
// batch-capable plane decodes all frames in one DecodeBatchInto call;
// any other decoder decodes one frame at a time through
// decodepool.Decode, and each correction is applied before the next
// decode because it aliases the scratch.
func (s *Simulator) decodeFrames(frames []*pauli.Frame, outs []BatchOutcome) error {
	clear(outs)
	for _, p := range s.planes {
		for len(p.syns) < len(frames) {
			p.syns = append(p.syns, make([]bool, p.graph.NumChecks()))
		}
		for i, f := range frames {
			p.graph.SyndromeInto(f, p.syns[i])
		}
		if p.batch != nil {
			corr, err := p.batch.DecodeBatchInto(p.graph, p.syns[:len(frames)], s.scratch)
			if err != nil {
				return fmt.Errorf("surface: %s on %v checks: %w", p.dec.Name(), p.etype, err)
			}
			for i, f := range frames {
				if s.cfg.Observer != nil {
					s.cfg.Observer(p.etype, p.laneStats(i))
				}
				s.finishPlane(p, f, corr[i].Qubits, &outs[i])
			}
			continue
		}
		for i, f := range frames {
			corr, err := decodepool.Decode(p.dec, p.graph, p.syns[i], s.scratch)
			if err != nil {
				return fmt.Errorf("surface: %s on %v checks: %w", p.dec.Name(), p.etype, err)
			}
			s.finishPlane(p, f, corr.Qubits, &outs[i])
		}
	}
	for _, f := range frames {
		if err := s.checkClean(f); err != nil {
			return err
		}
	}
	return nil
}

// parity returns the residual's error parity over the cut.
func parity(f *pauli.Frame, cut []int, e lattice.ErrorType) int {
	if e == lattice.ZErrors {
		return f.ParityZ(cut)
	}
	return f.ParityX(cut)
}

// checkClean verifies the invariant that after decoding (plus forced
// completion and logical normalization) a frame is trivial on every
// configured plane.
func (s *Simulator) checkClean(f *pauli.Frame) error {
	for _, p := range s.planes {
		for i, hot := range p.graph.SyndromeInto(f, p.left) {
			if hot {
				return fmt.Errorf("surface: residual leaves %v check %d hot after correction", p.etype, i)
			}
		}
	}
	return nil
}
