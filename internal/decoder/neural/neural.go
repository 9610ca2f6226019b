package neural

import (
	"fmt"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/decoder/greedy"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/pauli"
)

// Decoder is the two-stage neural decoder: greedy matching proposes a
// correction, the network predicts whether a logical operator must be
// appended.
type Decoder struct {
	g       *lattice.Graph
	base    *greedy.Decoder
	net     *MLP
	logical []int // the logical-operator support to append on prediction
}

// TrainConfig drives sample generation and optimization.
type TrainConfig struct {
	P       float64 // physical error rate of the training distribution
	Samples int     // SGD samples
	Hidden  int     // hidden units (default 32)
	LR      float64 // learning rate (default 0.05)
	Seed    int64
}

// New builds and trains a neural decoder for the graph.
func New(g *lattice.Graph, cfg TrainConfig) (*Decoder, error) {
	if cfg.Samples < 1 {
		return nil, fmt.Errorf("neural: need at least one training sample")
	}
	if cfg.Hidden == 0 {
		cfg.Hidden = 32
	}
	if cfg.LR == 0 {
		cfg.LR = 0.05
	}
	var ch noise.Channel
	var err error
	if g.ErrorType() == lattice.ZErrors {
		ch, err = noise.NewDephasing(cfg.P)
	} else {
		ch, err = noise.NewBitFlip(cfg.P)
	}
	if err != nil {
		return nil, err
	}
	rng := noise.NewRand(cfg.Seed)
	net, err := NewMLP(g.NumChecks(), cfg.Hidden, rng)
	if err != nil {
		return nil, err
	}
	d := &Decoder{
		g:       g,
		base:    greedy.New(),
		net:     net,
		logical: g.Lattice().LogicalSupport(g.ErrorType()),
	}

	l := g.Lattice()
	data := dataQubits(l)
	cut := l.LogicalCutSupport(g.ErrorType())
	x := make([]float64, g.NumChecks())
	scratch := decodepool.NewScratch() // training runs on one goroutine
	for s := 0; s < cfg.Samples; s++ {
		f := pauli.NewFrame(l.NumQubits())
		ch.Sample(rng, f, data)
		syn := g.Syndrome(f)
		corr, err := d.base.DecodeInto(g, syn, scratch)
		if err != nil {
			return nil, err
		}
		res := f.Clone()
		res.ApplyFrame(corr.Frame(l, g.ErrorType()))
		label := 0.0
		if parity(res, cut, g.ErrorType()) == 1 {
			label = 1
		}
		for i, hot := range syn {
			if hot {
				x[i] = 1
			} else {
				x[i] = 0
			}
		}
		d.net.Step(x, label, cfg.LR)
	}
	return d, nil
}

func dataQubits(l *lattice.Lattice) []int {
	qs := make([]int, 0, l.NumData())
	for _, s := range l.DataSites() {
		qs = append(qs, l.QubitIndex(s))
	}
	return qs
}

func parity(f *pauli.Frame, cut []int, e lattice.ErrorType) int {
	if e == lattice.ZErrors {
		return f.ParityZ(cut)
	}
	return f.ParityX(cut)
}

// Name implements decoder.Decoder.
func (*Decoder) Name() string { return "neural" }

// Decode implements decoder.Decoder: DecodeInto on a fresh scratch, so
// the decoder stays safe to share across goroutines.
func (d *Decoder) Decode(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
	return d.DecodeInto(g, syn, decodepool.NewScratch())
}

// DecodeInto implements decodepool.IntoDecoder: greedy's proposal on s
// plus, when the network flags the syndrome, a logical operator (which
// commutes with every check, so validity is unchanged). The network's
// input vector lives in s too, so steady state allocates nothing; the
// returned Correction aliases s.
func (d *Decoder) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	if g.ErrorType() != d.g.ErrorType() || g.Lattice().Distance() != d.g.Lattice().Distance() {
		return decoder.Correction{}, fmt.Errorf("neural: decoder bound to a %v distance-%d graph",
			d.g.ErrorType(), d.g.Lattice().Distance())
	}
	corr, err := d.base.DecodeInto(g, syn, s)
	if err != nil {
		return decoder.Correction{}, err
	}
	x := s.State("neural", func() any { return new([]float64) }).(*[]float64)
	*x = (*x)[:0]
	for _, hot := range syn {
		v := 0.0
		if hot {
			v = 1
		}
		*x = append(*x, v)
	}
	if d.net.Predict(*x) > 0.5 {
		// corr aliases s's qubit buffer (or is empty): copying it onto
		// the buffer's start moves nothing, and the append reuses it.
		q := append(s.TakeQubits(), corr.Qubits...)
		corr = s.PutQubits(append(q, d.logical...))
	}
	return corr, nil
}

var (
	_ decoder.Decoder        = (*Decoder)(nil)
	_ decodepool.IntoDecoder = (*Decoder)(nil)
)
