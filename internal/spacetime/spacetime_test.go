package spacetime

import (
	"context"
	"testing"

	"repro/internal/lattice"
	"repro/internal/noise"
)

func TestMethodString(t *testing.T) {
	if Greedy.String() != "greedy" || Exact.String() != "exact" {
		t.Error("method names wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := func(cfg Config) bool {
		_, err := Sweep(context.Background(), []Config{cfg}, 1, 1, 1)
		return err != nil
	}
	if !bad(Config{Distance: 3, P: 0.01, Q: 0.01, Rounds: 0}) {
		t.Error("zero rounds accepted")
	}
	if !bad(Config{Distance: 4, P: 0.01, Q: 0.01, Rounds: 3}) {
		t.Error("even distance accepted")
	}
	if !bad(Config{Distance: 3, P: 2, Q: 0.01, Rounds: 3}) {
		t.Error("bad p accepted")
	}
	if !bad(Config{Distance: 3, P: 0.01, Q: -1, Rounds: 3}) {
		t.Error("bad q accepted")
	}
}

// sweepOne runs one config on the engine and returns its result.
func sweepOne(t *testing.T, cfg Config, blocks int, seed int64) Result {
	t.Helper()
	res, err := Sweep(context.Background(), []Config{cfg}, blocks, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

func TestSpaceTimeMetric(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	d := NewDecoder(g, Greedy)
	i, _ := g.CheckIndex(lattice.Site{Row: 0, Col: 1})
	j, _ := g.CheckIndex(lattice.Site{Row: 0, Col: 5})
	if got := d.dist(Node{i, 0}, Node{j, 0}); got != 2 {
		t.Errorf("spatial dist = %d, want 2", got)
	}
	if got := d.dist(Node{i, 0}, Node{i, 3}); got != 3 {
		t.Errorf("time dist = %d, want 3", got)
	}
	if got := d.dist(Node{i, 4}, Node{j, 1}); got != 5 {
		t.Errorf("mixed dist = %d, want 5", got)
	}
}

// A pure measurement error produces two time-adjacent events at the
// same check; both methods must pair them together (no data correction).
func TestMeasurementErrorMatchedInTime(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	i, _ := g.CheckIndex(lattice.Site{Row: 2, Col: 3})
	events := []Node{{i, 1}, {i, 2}}
	for _, m := range []Method{Greedy, Exact} {
		d := NewDecoder(g, m)
		pairs, boundary := d.Match(events)
		if len(pairs) != 1 || len(boundary) != 0 {
			t.Fatalf("%v: pairs=%v boundary=%v", m, pairs, boundary)
		}
		if q := d.AppendCorrection(nil, events, pairs, boundary); len(q) != 0 {
			t.Errorf("%v: time-like pair produced data correction %v", m, q)
		}
	}
}

// A data error produces two same-round events one apart; the correction
// must be that single data qubit.
func TestDataErrorMatchedInSpace(t *testing.T) {
	l := lattice.MustNew(5)
	g := l.MatchingGraph(lattice.ZErrors)
	i, _ := g.CheckIndex(lattice.Site{Row: 2, Col: 3})
	j, _ := g.CheckIndex(lattice.Site{Row: 2, Col: 5})
	events := []Node{{i, 0}, {j, 0}}
	for _, m := range []Method{Greedy, Exact} {
		d := NewDecoder(g, m)
		pairs, boundary := d.Match(events)
		if len(pairs) != 1 || len(boundary) != 0 {
			t.Fatalf("%v: pairs=%v boundary=%v", m, pairs, boundary)
		}
		q := d.AppendCorrection(nil, events, pairs, boundary)
		if len(q) != 1 || q[0] != l.QubitIndex(lattice.Site{Row: 2, Col: 4}) {
			t.Errorf("%v: correction = %v", m, q)
		}
	}
}

func TestEmptyEvents(t *testing.T) {
	g := lattice.MustNew(3).MatchingGraph(lattice.ZErrors)
	for _, m := range []Method{Greedy, Exact} {
		d := NewDecoder(g, m)
		pairs, boundary := d.Match(nil)
		if pairs != nil || boundary != nil {
			t.Errorf("%v matched empty events", m)
		}
	}
}

// Lifetime smoke: sweeps are deterministic per seed, every block clears
// its syndrome (runBlock errors otherwise), and the logical error rate
// responds to the noise rates.
func TestLifetimeRuns(t *testing.T) {
	for _, m := range []Method{Greedy, Exact} {
		run := func(p, q float64, seed int64) Result {
			return sweepOne(t, Config{Distance: 3, P: p, Q: q, Rounds: 4, Method: m}, 300, seed)
		}
		a := run(0.03, 0.03, 5)
		b := run(0.03, 0.03, 5)
		if a != b {
			t.Errorf("%v: nondeterministic: %+v vs %+v", m, a, b)
		}
		if a.Blocks != 300 || a.Rounds != 1200 {
			t.Errorf("%v: accounting wrong: %+v", m, a)
		}
		quiet := run(0.001, 0.001, 7)
		loud := run(0.08, 0.08, 7)
		if quiet.PL >= loud.PL {
			t.Errorf("%v: PL(quiet)=%v >= PL(loud)=%v", m, quiet.PL, loud.PL)
		}
	}
}

// With q = 0 and one round per block, space-time decoding degenerates to
// the paper's 2D decoding; exact matching must then suppress errors with
// distance below threshold.
func TestDegeneratesTo2D(t *testing.T) {
	pl := func(d int) float64 {
		return sweepOne(t, Config{Distance: d, P: 0.04, Q: 0, Rounds: 1, Method: Exact}, 8000, 11).PL
	}
	if p3, p5 := pl(3), pl(5); p5 >= p3 {
		t.Errorf("no suppression: PL(5)=%v >= PL(3)=%v", p5, p3)
	}
}

// Measurement noise must hurt: at fixed p, adding q raises PL.
func TestMeasurementNoiseHurts(t *testing.T) {
	run := func(q float64) float64 {
		return sweepOne(t, Config{Distance: 3, P: 0.02, Q: q, Rounds: 5, Method: Exact}, 2000, 13).PL
	}
	if clean, noisy := run(0), run(0.05); noisy <= clean {
		t.Errorf("PL(q=0.05)=%v <= PL(q=0)=%v", noisy, clean)
	}
}

// A warmed d = 5 shard decodes a block without allocating: the
// syndrome buffers, the event list, the matcher's result and the
// correction are all reused.
func TestBlockZeroAlloc(t *testing.T) {
	for _, m := range []Method{Greedy, Exact} {
		sh, err := newBlockShard(Config{Distance: 5, P: 0.03, Q: 0.03, Rounds: 5, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		rng := noise.NewRand(3)
		for i := 0; i < 200; i++ {
			if _, err := sh.Trial(rng, i); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(500, func() {
			if _, err := sh.Trial(rng, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %.2f allocations per block, want 0", m, allocs)
		}
	}
}
