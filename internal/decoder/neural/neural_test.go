package neural

import (
	"math/rand"
	"testing"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/pauli"
	"repro/internal/surface"
)

func TestMLPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewMLP(0, 4, rng); err == nil {
		t.Error("zero inputs accepted")
	}
	if _, err := NewMLP(4, 0, rng); err == nil {
		t.Error("zero hidden accepted")
	}
}

// The classic non-linear sanity check: an MLP must learn XOR.
func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, err := NewMLP(2, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][3]float64{
		{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0},
	}
	for epoch := 0; epoch < 4000; epoch++ {
		c := cases[rng.Intn(4)]
		m.Step([]float64{c[0], c[1]}, c[2], 0.2)
	}
	for _, c := range cases {
		y := m.Predict([]float64{c[0], c[1]})
		if (y > 0.5) != (c[2] == 1) {
			t.Errorf("XOR(%v,%v) predicted %v, want %v", c[0], c[1], y, c[2])
		}
	}
}

func TestMLPStepReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := NewMLP(3, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 0, 1}
	first := m.Step(x, 1, 0.1)
	var last float64
	for i := 0; i < 200; i++ {
		last = m.Step(x, 1, 0.1)
	}
	if last >= first {
		t.Errorf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestTrainValidation(t *testing.T) {
	g := lattice.MustNew(3).MatchingGraph(lattice.ZErrors)
	if _, err := New(g, TrainConfig{P: 0.05, Samples: 0}); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := New(g, TrainConfig{P: -1, Samples: 10}); err == nil {
		t.Error("invalid p accepted")
	}
}

// The decoder invariant holds whatever the network predicts: appending a
// logical operator never changes the syndrome.
func TestDecodeAlwaysValid(t *testing.T) {
	for _, e := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
		g := lattice.MustNew(3).MatchingGraph(e)
		d, err := New(g, TrainConfig{P: 0.1, Samples: 3000, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if d.Name() != "neural" {
			t.Error("name wrong")
		}
		for mask := 0; mask < 1<<uint(g.NumChecks()); mask += 3 {
			syn := make([]bool, g.NumChecks())
			for i := range syn {
				syn[i] = mask&(1<<uint(i)) != 0
			}
			c, err := d.Decode(g, syn)
			if err != nil {
				t.Fatal(err)
			}
			if err := decoder.Validate(g, syn, c); err != nil {
				t.Fatalf("%v syndrome %b: %v", e, mask, err)
			}
		}
	}
}

// A warmed DecodeInto allocates nothing: greedy's proposal, the
// network's input vector and the appended logical all live in the
// caller's scratch. At p = 0.2 the network flags about one syndrome in
// eight, so the append runs too.
func TestDecodeIntoZeroAllocSteadyState(t *testing.T) {
	if decodepool.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	d, err := New(g, TrainConfig{P: 0.2, Samples: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := noise.NewDephasing(0.2)
	if err != nil {
		t.Fatal(err)
	}
	rng := noise.NewRand(17)
	syns := make([][]bool, 64)
	for i := range syns {
		f := pauli.NewFrame(l.NumQubits())
		ch.Sample(rng, f, dataQubits(l))
		syns[i] = g.Syndrome(f)
	}
	s := decodepool.NewScratch()
	for _, syn := range syns {
		if _, err := d.DecodeInto(g, syn, s); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(len(syns)*4, func() {
		if _, err := d.DecodeInto(g, syns[i%len(syns)], s); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Errorf("neural d=5: %v allocs per decode in steady state, want 0", avg)
	}
}

func TestForeignGraphRejected(t *testing.T) {
	g := lattice.MustNew(3).MatchingGraph(lattice.ZErrors)
	other := lattice.MustNew(3).MatchingGraph(lattice.XErrors)
	d, err := New(g, TrainConfig{P: 0.05, Samples: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decode(other, make([]bool, other.NumChecks())); err == nil {
		t.Error("foreign graph accepted")
	}
}

// The point of the second stage: the trained decoder must beat plain
// greedy matching on a lifetime run at the training error rate.
func TestNeuralBeatsGreedy(t *testing.T) {
	const p = 0.09
	g := lattice.MustNew(3).MatchingGraph(lattice.ZErrors)
	nn, err := New(g, TrainConfig{P: p, Samples: 60000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	run := func(dec decoder.Decoder) float64 {
		ch, err := noise.NewDephasing(p)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := surface.New(surface.Config{Distance: 3, Channel: ch, DecoderZ: dec, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(25000)
		if err != nil {
			t.Fatal(err)
		}
		return res.PL
	}
	plNN := run(nn)
	plGr := run(nn.base)
	if plNN >= plGr {
		t.Errorf("neural PL %v not below greedy PL %v", plNN, plGr)
	}
}
