package stats

// Satellite tests for the sharded Monte-Carlo engine as seen through
// the stats sweep layer: cross-worker determinism, deterministic error
// collection, a property-based decoder-invariant check, and a
// stream-independence test on the actual failure indicators.

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/decoder"
	"repro/internal/decoder/greedy"
	"repro/internal/decoder/mwpm"
	"repro/internal/decoder/unionfind"
	"repro/internal/lattice"
	"repro/internal/mc"
	"repro/internal/noise"
	"repro/internal/surface"
)

// shortOr returns short under go test -short (the ci.sh race run uses
// it), full otherwise. Only applied where statistical tolerances scale
// with the sample size.
func shortOr(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

func invarianceConfig(cycles int) CurveConfig {
	return CurveConfig{
		Distances:  []int{3, 5},
		Rates:      []float64{0.04, 0.09},
		Cycles:     cycles,
		NewChannel: func(p float64) (noise.Channel, error) { return noise.NewDephasing(p) },
		NewDecoderZ: func(d int) decoder.Decoder {
			return greedy.New()
		},
		Seed: 7,
	}
}

// Satellite: cross-worker determinism regression. The same sweep at
// Workers ∈ {1, 2, 8}, with different shard sizes, and with shuffled
// job order must produce bit-identical []Point output.
func TestCurvesWorkerInvariance(t *testing.T) {
	cycles := shortOr(800, 200)
	base := invarianceConfig(cycles)
	base.Workers = 1
	ref, err := Curves(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 4 {
		t.Fatalf("got %d points, want 4", len(ref))
	}
	anyErrors := false
	for _, pt := range ref {
		if pt.Errors > 0 {
			anyErrors = true
		}
	}
	if !anyErrors {
		t.Fatal("reference sweep saw no logical errors; invariance check is vacuous")
	}

	combos := []struct{ workers, shardSize int }{
		{2, 0}, {8, 0}, {8, 13}, {3, 1}, {1, 64},
	}
	for _, c := range combos {
		cfg := invarianceConfig(cycles)
		cfg.Workers = c.workers
		cfg.ShardSize = c.shardSize
		got, err := Curves(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("workers=%d shard=%d: point %d = %+v, want %+v",
					c.workers, c.shardSize, i, got[i], ref[i])
			}
		}
	}

	// Shuffled job order: reversing the sweep axes must not change any
	// (d, p) point — streams are keyed by parameters, not position.
	cfg := invarianceConfig(cycles)
	cfg.Workers = 4
	cfg.Distances = []int{5, 3}
	cfg.Rates = []float64{0.09, 0.04}
	got, err := Curves(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[[2]float64]Point{}
	for _, pt := range ref {
		byKey[[2]float64{float64(pt.D), pt.P}] = pt
	}
	for _, pt := range got {
		want := byKey[[2]float64{float64(pt.D), pt.P}]
		if pt != want {
			t.Errorf("shuffled order: (d=%d, p=%g) = %+v, want %+v", pt.D, pt.P, pt, want)
		}
	}
}

// Adaptive early stopping spends fewer trials than the budget on an
// easy point and spends the same number at every worker count.
func TestCurvesAdaptiveStopsDeterministic(t *testing.T) {
	var ref []Point
	for _, w := range []int{1, 2, 8} {
		cfg := CurveConfig{
			Distances:      []int{3},
			Rates:          []float64{0.09},
			Cycles:         200000,
			MinTrials:      500,
			TargetRelWidth: 0.5,
			NewChannel:     func(p float64) (noise.Channel, error) { return noise.NewDephasing(p) },
			NewDecoderZ:    func(d int) decoder.Decoder { return greedy.New() },
			Seed:           3,
			Workers:        w,
		}
		got, err := Curves(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Cycles >= cfg.Cycles {
			t.Fatalf("workers=%d: no early stop (%d cycles)", w, got[0].Cycles)
		}
		if ref == nil {
			ref = got
		} else if got[0] != ref[0] {
			t.Errorf("workers=%d: %+v, want %+v", w, got[0], ref[0])
		}
	}
}

// Satellite: the sweep collects the errors of every failing point
// (errors.Join), not just the first one a worker happens to hit.
func TestCurvesJoinsAllPointErrors(t *testing.T) {
	cfg := CurveConfig{
		Distances:   []int{3},
		Rates:       []float64{2.0, 3.0}, // both invalid -> two channel errors
		Cycles:      10,
		NewChannel:  func(p float64) (noise.Channel, error) { return noise.NewDephasing(p) },
		NewDecoderZ: func(d int) decoder.Decoder { return greedy.New() },
		Workers:     4,
	}
	_, err := Curves(cfg)
	if err == nil {
		t.Fatal("invalid rates did not surface")
	}
	for _, want := range []string{"p=2", "p=3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q misses the point with %s", err, want)
		}
	}
}

// Satellite: property-based test that decoder corrections clear the
// syndrome when driven by the engine, for random seeds, worker counts,
// and shard sizes. Each trial samples a dephasing round, decodes, and
// fails if decoder.Validate rejects the correction.
func TestDecoderClearsSyndromeUnderEngine(t *testing.T) {
	l := lattice.MustNew(3)
	g := l.MatchingGraph(lattice.ZErrors)
	var data []int
	for _, s := range l.DataSites() {
		data = append(data, l.QubitIndex(s))
	}
	decoders := []func() decoder.Decoder{
		func() decoder.Decoder { return greedy.New() },
		func() decoder.Decoder { return mwpm.New() },
		func() decoder.Decoder { return unionfind.New() },
	}
	trials := shortOr(256, 64)

	property := func(seed int64, w, ss, di uint8) bool {
		newDec := decoders[int(di)%len(decoders)]
		spec := mc.PointSpec{
			ID:        mc.DeriveID(uint64(di)),
			Trials:    trials,
			ShardSize: int(ss % 32),
			NewShard: func() (mc.Shard, error) {
				dec := newDec()
				ch, err := noise.NewDephasing(0.12)
				if err != nil {
					return nil, err
				}
				f := decoder.Correction{}.Frame(l, lattice.ZErrors)
				return mc.ShardFunc(func(rng *rand.Rand, t int) (mc.Outcome, error) {
					f.Clear()
					ch.Sample(rng, f, data)
					syn := g.Syndrome(f)
					c, err := dec.Decode(g, syn)
					if err != nil {
						return mc.Outcome{}, err
					}
					return mc.Outcome{Failed: decoder.Validate(g, syn, c) != nil}, nil
				}), nil
			},
		}
		res, err := mc.Run(context.Background(),
			mc.Config{RootSeed: seed, Workers: int(w%8) + 1}, []mc.PointSpec{spec})
		if err != nil {
			t.Logf("engine error: %v", err)
			return false
		}
		if res[0].Failures > 0 {
			t.Logf("seed=%d decoder=%s: %d/%d corrections left a hot check",
				seed, newDec().Name(), res[0].Failures, res[0].Trials)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: shortOr(16, 6),
		Rand:     rand.New(rand.NewSource(99)), // deterministic test inputs
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// Satellite: stream independence on the real workload. The per-trial
// logical-failure indicators produced by lifetimeShard under
// counter-based streams must be serially uncorrelated (lag-1
// autocorrelation consistent with zero).
func TestLifetimeFailureIndicatorsUncorrelated(t *testing.T) {
	n := shortOr(4000, 1500)
	ch, err := noise.NewDephasing(0.09)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := surface.New(surface.Config{Distance: 3, Channel: ch, DecoderZ: greedy.New()})
	if err != nil {
		t.Fatal(err)
	}
	sh := &lifetimeShard{sim: sim}
	id := PointID(3, 0.09)
	xs := make([]float64, n)
	failures := 0
	for trial := 0; trial < n; trial++ {
		o, err := sh.Trial(mc.NewRand(21, id, int64(trial)), trial)
		if err != nil {
			t.Fatal(err)
		}
		if o.Failed {
			xs[trial] = 1
			failures++
		}
	}
	if failures == 0 || failures == n {
		t.Fatalf("degenerate failure count %d/%d; correlation undefined", failures, n)
	}
	mean := float64(failures) / float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - mean
		den += d * d
		if i+1 < n {
			num += d * (xs[i+1] - mean)
		}
	}
	r := num / den
	// Under independence r ~ N(0, 1/n); 5σ keeps the deterministic
	// seed safely inside.
	limit := 5 / math.Sqrt(float64(n))
	if math.Abs(r) > limit {
		t.Errorf("lag-1 autocorrelation r = %.4f exceeds %.4f (rate %.3f, n=%d)",
			r, limit, mean, n)
	}
}

// Determinism guard for the zero-allocation decode path (PR 2): the
// cross-worker bit-identity of PR 1 must survive decoders that route
// through decodepool scratches. Every worker owns a private scratch, so
// pooling must be invisible to the sweep output; mwpm and union-find are
// the decoders with the most reusable internal state.
func TestCurvesWorkerInvariancePooledDecoders(t *testing.T) {
	cycles := shortOr(400, 150)
	newDecs := map[string]func(d int) decoder.Decoder{
		"mwpm":       func(int) decoder.Decoder { return mwpm.New() },
		"union-find": func(int) decoder.Decoder { return unionfind.New() },
	}
	for name, newDec := range newDecs {
		var ref []Point
		for _, workers := range []int{1, 8} {
			cfg := CurveConfig{
				Distances:   []int{3, 5},
				Rates:       []float64{0.04, 0.09},
				Cycles:      cycles,
				NewChannel:  func(p float64) (noise.Channel, error) { return noise.NewDephasing(p) },
				NewDecoderZ: newDec,
				Seed:        11,
				Workers:     workers,
			}
			got, err := Curves(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = got
				anyErrors := false
				for _, pt := range ref {
					anyErrors = anyErrors || pt.Errors > 0
				}
				if !anyErrors {
					t.Fatalf("%s: reference sweep saw no logical errors; check is vacuous", name)
				}
				continue
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Errorf("%s workers=8: point %d = %+v, want %+v", name, i, got[i], ref[i])
				}
			}
		}
	}
}
