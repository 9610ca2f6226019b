package surface

import (
	"math/rand"
	"testing"

	"repro/internal/decoder/greedy"
	"repro/internal/decoder/mwpm"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/sfq"
	"repro/internal/twolevel"
)

func dephasing(p float64) noise.Dephasing {
	ch, err := noise.NewDephasing(p)
	if err != nil {
		panic(err)
	}
	return ch
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Distance: 4, Channel: dephasing(0.1), DecoderZ: greedy.New()}); err == nil {
		t.Error("even distance accepted")
	}
	if _, err := New(Config{Distance: 3, DecoderZ: greedy.New()}); err == nil {
		t.Error("nil channel accepted")
	}
	if _, err := New(Config{Distance: 3, Channel: dephasing(0.1)}); err == nil {
		t.Error("no decoder accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	mk := func() Result {
		s, err := New(Config{Distance: 3, Channel: dephasing(0.08), DecoderZ: greedy.New(), Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(500)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := mk(), mk()
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestPLIncreasesWithErrorRate(t *testing.T) {
	pl := func(p float64) float64 {
		s, err := New(Config{Distance: 3, Channel: dephasing(p), DecoderZ: greedy.New(), Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(4000)
		if err != nil {
			t.Fatal(err)
		}
		return r.PL
	}
	low, high := pl(0.02), pl(0.15)
	if low >= high {
		t.Errorf("PL(p=0.02)=%v >= PL(p=0.15)=%v", low, high)
	}
	if high == 0 {
		t.Error("no logical errors at p=0.15")
	}
}

// Below threshold a larger code distance must suppress the logical error
// rate (the defining property of Fig. 10(a)).
func TestDistanceSuppressionBelowThreshold(t *testing.T) {
	pl := func(d int) float64 {
		s, err := New(Config{Distance: d, Channel: dephasing(0.05), DecoderZ: mwpm.New(), Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(40000)
		if err != nil {
			t.Fatal(err)
		}
		if r.LogicalErrors < 10 {
			t.Fatalf("d=%d only %d logical errors; test underpowered", d, r.LogicalErrors)
		}
		return r.PL
	}
	p3, p5 := pl(3), pl(5)
	if p5 >= p3 {
		t.Errorf("PL(d=5)=%v >= PL(d=3)=%v below threshold", p5, p3)
	}
}

// Depolarizing noise exercised on both planes: both decoders are
// consulted and the run completes cleanly.
func TestDepolarizingBothPlanes(t *testing.T) {
	dep, _ := noise.NewDepolarizing(0.06)
	l := lattice.MustNew(3)
	meshZ := sfq.New(l.MatchingGraph(lattice.ZErrors), sfq.Final)
	meshX := sfq.New(l.MatchingGraph(lattice.XErrors), sfq.Final)
	calls := map[lattice.ErrorType]int{}
	s, err := New(Config{
		Distance: 3,
		Channel:  dep,
		DecoderZ: meshZ,
		DecoderX: meshX,
		Seed:     19,
		Observer: func(e lattice.ErrorType, st sfq.Stats) { calls[e]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(800)
	if err != nil {
		t.Fatal(err)
	}
	if calls[lattice.ZErrors] != 800 || calls[lattice.XErrors] != 800 {
		t.Errorf("observer calls = %v, want 800 per plane", calls)
	}
	if r.Cycles != 800 {
		t.Errorf("cycles = %d", r.Cycles)
	}
	if r.Forced != 0 {
		t.Errorf("final design needed %d forced completions", r.Forced)
	}
}

// Ablation variants that cannot pair with boundaries must lean on the
// harness force-completion, which is what ruins their Fig. 10 curves.
func TestAblationVariantsGetForced(t *testing.T) {
	l := lattice.MustNew(5)
	mesh := sfq.New(l.MatchingGraph(lattice.ZErrors), sfq.WithReset)
	s, err := New(Config{Distance: 5, Channel: dephasing(0.08), DecoderZ: mesh, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	if r.Forced == 0 {
		t.Error("reset-only variant never needed force completion")
	}
}

// The final SFQ design's lifetime PL must not be wildly worse than
// greedy software matching (they implement the same algorithm family).
func TestSFQTracksGreedyLoosely(t *testing.T) {
	l := lattice.MustNew(5)
	mesh := sfq.New(l.MatchingGraph(lattice.ZErrors), sfq.Final)
	run := func(dec Config) float64 {
		s, err := New(dec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(6000)
		if err != nil {
			t.Fatal(err)
		}
		return r.PL
	}
	sfqPL := run(Config{Distance: 5, Channel: dephasing(0.04), DecoderZ: mesh, Seed: 29})
	grPL := run(Config{Distance: 5, Channel: dephasing(0.04), DecoderZ: greedy.New(), Seed: 29})
	if sfqPL > 6*grPL+0.02 {
		t.Errorf("sfq PL %v wildly above greedy PL %v", sfqPL, grPL)
	}
}

// Force completion and logical-flip normalization reuse per-plane
// buffers: a warmed-up baseline-mesh trial at d = 9, p = 0.08 (about
// eight forced completions per trial) allocates nothing.
func TestForcedCompletionZeroAlloc(t *testing.T) {
	l := lattice.MustNew(9)
	mesh := sfq.New(l.MatchingGraph(lattice.ZErrors), sfq.Baseline)
	s, err := New(Config{Distance: 9, Channel: dephasing(0.08), DecoderZ: mesh, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(64); err != nil {
		t.Fatal(err)
	}
	var total Result
	avg := testing.AllocsPerRun(200, func() {
		r, err := s.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		total.Forced += r.Forced
		total.LogicalErrors += r.LogicalErrors
	})
	if total.Forced == 0 || total.LogicalErrors == 0 {
		t.Fatalf("no forced completion or no logical flip in the measured trials (%+v)", total)
	}
	if avg != 0 {
		t.Errorf("Run(1): %.2f allocations per trial, want 0", avg)
	}
}

// A warmed trial shaped like the two-level Monte-Carlo sweep allocates
// nothing: a d = 13 one-lane mesh under twolevel with MWPM level 2 and
// the sweep's hot threshold, at p = 0.08 dephasing. The trials replay a
// fixed set of streams, so the measured instances fit the matcher
// tables the warmup grew.
func TestTwoLevelTrialZeroAlloc(t *testing.T) {
	const d = 13
	g := lattice.MustNew(d).MatchingGraph(lattice.ZErrors)
	pol := twolevel.DefaultPolicy()
	pol.HotThreshold = (3*g.NumChecks() + 5) / 10
	tl := twolevel.New(sfq.New(g, sfq.Final), mwpm.New(), pol)
	s, err := New(Config{Distance: d, Channel: dephasing(0.08), DecoderZ: tl})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(0))
	const streams = 48
	escalated, i := 0, 0
	trial := func() {
		rng.Seed(int64(i % streams))
		i++
		s.Reset()
		s.SetRand(rng)
		if _, err := s.Run(1); err != nil {
			t.Fatal(err)
		}
		if tl.Escalated(0) {
			escalated++
		}
	}
	for range streams {
		trial()
	}
	if escalated == 0 {
		t.Fatal("no warmup trial escalated to MWPM")
	}
	if avg := testing.AllocsPerRun(2*streams, trial); avg != 0 {
		t.Errorf("Run(1): %.2f allocations per trial, want 0", avg)
	}
}
