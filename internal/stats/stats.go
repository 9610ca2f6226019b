// Package stats provides the Monte-Carlo evaluation harness of §VII:
// logical-error-rate curve generation with binomial confidence
// intervals, pseudo-threshold and accuracy-threshold estimation, and the
// PL ≈ c1·(p/pth)^(c2·d) model fits behind Table V.
package stats

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/decoder/mwpm"
	"repro/internal/lattice"
	"repro/internal/mc"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sfq"
	"repro/internal/surface"
	"repro/internal/twolevel"
)

// Point is one measured (distance, physical rate) sample.
type Point struct {
	D      int     // code distance
	P      float64 // physical error rate
	PL     float64 // measured logical error rate per cycle
	Errors int     // logical error count
	Cycles int     // cycles simulated
	Forced int     // harness force-completions
	Lo, Hi float64 // 95% Wilson interval on PL
}

// WilsonInterval returns the Wilson score interval for k successes in n
// trials at confidence coefficient z (1.96 for 95%).
func WilsonInterval(k, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// CurveConfig drives a Monte-Carlo sweep over distances and physical
// error rates.
type CurveConfig struct {
	// Distances to simulate (odd, >= 3).
	Distances []int
	// Rates are the physical error rates p to sweep.
	Rates []float64
	// Cycles per (d, p) point.
	Cycles int
	// NewChannel builds the error channel for a rate (e.g. dephasing).
	NewChannel func(p float64) (noise.Channel, error)
	// NewDecoderZ builds the phase-flip decoder for a distance. The
	// factory is called once per point, so mesh decoders are never
	// shared across goroutines.
	NewDecoderZ func(d int) decoder.Decoder
	// NewDecoderX optionally builds the bit-flip decoder (depolarizing
	// sweeps); nil skips the X plane.
	NewDecoderX func(d int) decoder.Decoder
	// Seed is the sweep's root seed; every (point, cycle) pair derives
	// its own counter-based stream from it, so results are bit-identical
	// regardless of Workers, ShardSize, or the order of Distances/Rates.
	Seed int64
	// Workers bounds concurrently executing trial shards across the
	// whole sweep; 0 means GOMAXPROCS.
	Workers int
	// ShardSize fixes the cycles per shard; 0 lets the engine size
	// shards automatically. Results never depend on it.
	ShardSize int
	// ForceSteal makes the engine's work-stealing workers steal before
	// draining their own deques (mc.Config.ForceSteal). Results never
	// depend on it; the determinism tests use it to hammer migration.
	ForceSteal bool
	// SchedStats, when non-nil, receives a snapshot of the engine's
	// work-stealing scheduler counters once the sweep finishes
	// (mc.Config.SchedStats). Diagnostic only.
	SchedStats *sched.Stats
	// TargetRelWidth, when > 0, stops a point early once its 95% Wilson
	// interval is tighter than this fraction of the measured PL. The
	// Cycles field of the returned points reports trials actually spent.
	TargetRelWidth float64
	// MinTrials is the first early-stopping checkpoint (default 1000).
	MinTrials int
	// Progress, when non-nil, receives per-point progress after every
	// engine checkpoint (serialized; safe to print from).
	Progress func(mc.Progress)
	// Observer, when non-nil, builds the surface-simulator observer for
	// each point (used to collect mesh timing samples during sweeps).
	// The harness serializes calls within a point, but observers for
	// distinct points may run concurrently.
	Observer func(d int, p float64) func(lattice.ErrorType, sfq.Stats)
	// Batch routes trials through the shards' SWAR batch path
	// (surface.Simulator.RunTrialBatch) when the configured decoders are
	// multi-lane SFQ meshes — several independent cycles decode in the
	// same machine words per call. Trial streams are unchanged, so
	// results are bit-identical with Batch on or off (asserted by
	// TestCurvesBatchDeterminism). Ignored for other decoders.
	Batch bool
	// Obs, when non-nil, receives sweep telemetry: the engine's trial
	// counters and latency histograms (see mc.Config.Obs) and the
	// simulators' decode-latency samples (see surface.Config.Obs).
	// Sweep binaries pass obs.Default() when --obs is set.
	Obs *obs.Registry
	// FreeDecoder, when non-nil, receives every decoder the factories
	// built once the point owning it finishes. Pass sfq.Pool.Release so
	// mesh decoders are recycled across points instead of rebuilt per
	// shard. Two-level wrappers are unwrapped first: the hook receives
	// the level-1 mesh, never the wrapper. Calls may come from
	// concurrent points; the hook must be safe for concurrent use.
	FreeDecoder func(decoder.Decoder)
	// TwoLevel, when non-nil, switches the sweep to two-level decoding:
	// every SFQ mesh (at any lane count) the decoder factories build is
	// wrapped in a twolevel.Decoder, so instances the escalation policy
	// flags re-decode through the accurate level-2 decoder. The verdict
	// is a pure function of the kernel-conformance-pinned mesh Stats,
	// so points stay bit-identical at any Workers/ShardSize/Batch shape
	// (TestCurvesTwoLevelDeterminism). Non-mesh decoders pass through
	// unwrapped.
	TwoLevel *TwoLevelConfig
}

// TwoLevelConfig configures the sweep's two-level decoding mode.
type TwoLevelConfig struct {
	// Policy is the escalation policy applied to every level-1 decode.
	Policy twolevel.Policy
	// NewAccurate builds the level-2 decoder for a distance; nil uses
	// exact MWPM. The factory is called once per point per plane, like
	// the level-1 factories.
	NewAccurate func(d int) decodepool.IntoDecoder
}

// wrap turns a factory-built mesh decoder into a two-level decoder.
func (tc *TwoLevelConfig) wrap(d int, dec decoder.Decoder) decoder.Decoder {
	if dec == nil {
		return nil
	}
	var acc decodepool.IntoDecoder
	if tc.NewAccurate != nil {
		acc = tc.NewAccurate(d)
	}
	if acc == nil {
		acc = mwpm.New()
	}
	if m, ok := dec.(*sfq.BatchMesh); ok {
		return twolevel.New(m, acc, tc.Policy)
	}
	return dec
}

// Curves runs the sweep and returns points ordered by the
// (Distances, Rates) grid.
func Curves(cfg CurveConfig) ([]Point, error) {
	return CurvesContext(context.Background(), cfg)
}

// CurvesContext runs the sweep on the sharded Monte-Carlo engine
// (internal/mc), honoring ctx cancellation. Every syndrome cycle of a
// point is an independent trial whose randomness is a pure function of
// (Seed, d, p, cycle index).
func CurvesContext(ctx context.Context, cfg CurveConfig) ([]Point, error) {
	if cfg.Cycles <= 0 {
		return nil, fmt.Errorf("stats: Cycles must be positive")
	}
	if cfg.NewChannel == nil || cfg.NewDecoderZ == nil {
		return nil, fmt.Errorf("stats: NewChannel and NewDecoderZ are required")
	}
	specs := make([]mc.PointSpec, 0, len(cfg.Distances)*len(cfg.Rates))
	for _, d := range cfg.Distances {
		for _, p := range cfg.Rates {
			d, p := d, p
			var observer func(lattice.ErrorType, sfq.Stats)
			if cfg.Observer != nil {
				inner := cfg.Observer(d, p)
				var mu sync.Mutex // shards of one point decode concurrently
				observer = func(e lattice.ErrorType, st sfq.Stats) {
					mu.Lock()
					inner(e, st)
					mu.Unlock()
				}
			}
			build := func() (surface.Config, error) {
				ch, err := cfg.NewChannel(p)
				if err != nil {
					return surface.Config{}, err
				}
				sc := surface.Config{
					Distance: d,
					Channel:  ch,
					DecoderZ: cfg.NewDecoderZ(d),
					Observer: observer,
					Obs:      cfg.Obs,
				}
				if cfg.NewDecoderX != nil {
					sc.DecoderX = cfg.NewDecoderX(d)
				}
				if cfg.TwoLevel != nil {
					sc.DecoderZ = cfg.TwoLevel.wrap(d, sc.DecoderZ)
					sc.DecoderX = cfg.TwoLevel.wrap(d, sc.DecoderX)
				}
				return sc, nil
			}
			spec := LifetimeSpec(PointID(d, p), cfg.Cycles, cfg.ShardSize, build)
			if cfg.FreeDecoder != nil {
				spec.Release = ReleaseDecoders(cfg.FreeDecoder)
			}
			specs = append(specs, spec)
		}
	}
	results, err := mc.Run(ctx, mc.Config{
		RootSeed:       cfg.Seed,
		Workers:        cfg.Workers,
		ShardSize:      cfg.ShardSize,
		ForceSteal:     cfg.ForceSteal,
		SchedStats:     cfg.SchedStats,
		TargetRelWidth: cfg.TargetRelWidth,
		MinTrials:      cfg.MinTrials,
		Interval: func(k, n int) (float64, float64) {
			return WilsonInterval(k, n, 1.96)
		},
		Progress: cfg.Progress,
		Batch:    cfg.Batch,
		Obs:      cfg.Obs,
	}, specs)
	if err != nil {
		return nil, err
	}
	points := make([]Point, 0, len(results))
	i := 0
	for _, d := range cfg.Distances {
		for _, p := range cfg.Rates {
			r := results[i]
			i++
			pt := Point{D: d, P: p, Errors: r.Failures, Cycles: r.Trials, Forced: int(r.Aux)}
			if r.Trials > 0 {
				pt.PL = float64(r.Failures) / float64(r.Trials)
			}
			pt.Lo, pt.Hi = WilsonInterval(r.Failures, r.Trials, 1.96)
			points = append(points, pt)
		}
	}
	return points, nil
}

// PointID derives the engine stream key for a (distance, rate) point.
// Keying by the parameters (not grid position) makes each point's
// result invariant under reordering of the sweep.
func PointID(d int, p float64) int64 {
	return mc.DeriveID(uint64(d), math.Float64bits(p))
}

// LifetimeSpec builds the engine point spec for one surface-code
// lifetime experiment: each trial is one syndrome cycle starting from a
// clean frame (statistically equivalent to the sequential lifetime run,
// whose post-correction residual is always stabilizer-trivial). The
// outcome's Aux carries the harness force-completion count.
func LifetimeSpec(id int64, trials, shardSize int, build func() (surface.Config, error)) mc.PointSpec {
	return mc.PointSpec{
		ID:        id,
		Trials:    trials,
		ShardSize: shardSize,
		NewShard: func() (mc.Shard, error) {
			sc, err := build()
			if err != nil {
				return nil, err
			}
			sim, err := surface.New(sc)
			if err != nil {
				return nil, err
			}
			return &lifetimeShard{sim: sim}, nil
		},
	}
}

// ReleaseDecoders adapts a decoder release hook (e.g. sfq.Pool.Release)
// to mc.PointSpec.Release for lifetime shards: every decoder of the
// shard's simulator is handed to free when the shard retires.
func ReleaseDecoders(free func(decoder.Decoder)) func(mc.Shard) {
	return func(sh mc.Shard) {
		if ls, ok := sh.(*lifetimeShard); ok {
			for _, dec := range ls.sim.Decoders() {
				// Two-level wrappers are transparent to recycling: the
				// pooled resource is the level-1 mesh inside.
				if tl, ok := dec.(interface{ Level1() decoder.Decoder }); ok {
					dec = tl.Level1()
				}
				free(dec)
			}
		}
	}
}

// lifetimeShard runs single-cycle lifetime trials on a private
// simulator.
type lifetimeShard struct {
	sim   *surface.Simulator
	bouts []surface.BatchOutcome // TrialBatch's reusable outcome buffer
}

// Trial implements mc.Shard.
func (sh *lifetimeShard) Trial(rng *rand.Rand, _ int) (mc.Outcome, error) {
	sh.sim.Reset()
	sh.sim.SetRand(rng)
	res, err := sh.sim.Run(1)
	if err != nil {
		return mc.Outcome{}, err
	}
	return mc.Outcome{Failed: res.LogicalErrors > 0, Aux: int64(res.Forced)}, nil
}

// BatchSize implements mc.BatchShard: the simulator's SWAR lane width
// (1 when its decoders cannot batch, which disables chunking).
func (sh *lifetimeShard) BatchSize() int { return sh.sim.BatchWidth() }

// TrialBatch implements mc.BatchShard: each trial of the chunk is one
// independent cycle on its own frame and its own stream, bit-identical
// to the scalar Trial path.
func (sh *lifetimeShard) TrialBatch(rngs []*rand.Rand, _ int, out []mc.Outcome) (err error) {
	if cap(sh.bouts) < len(rngs) {
		sh.bouts = make([]surface.BatchOutcome, len(rngs))
	}
	bouts := sh.bouts[:len(rngs)]
	if err := sh.sim.RunTrialBatch(rngs, bouts); err != nil {
		return err
	}
	for i, bo := range bouts {
		out[i] = mc.Outcome{Failed: bo.Failed, Aux: int64(bo.Forced)}
	}
	return nil
}

// PseudoThreshold estimates the physical rate where PL = p for one
// distance's curve by log-log interpolation between the sample points
// bracketing the crossing. It reports false when the curve never
// crosses.
func PseudoThreshold(curve []Point) (float64, bool) {
	pts := append([]Point(nil), curve...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].P < pts[j].P })
	for i := 0; i+1 < len(pts); i++ {
		a, b := pts[i], pts[i+1]
		if a.PL <= 0 || b.PL <= 0 {
			if a.PL <= a.P && b.PL > b.P {
				return b.P, true
			}
			continue
		}
		fa := math.Log(a.PL) - math.Log(a.P)
		fb := math.Log(b.PL) - math.Log(b.P)
		if fa <= 0 && fb > 0 {
			t := fa / (fa - fb)
			return math.Exp(math.Log(a.P) + t*(math.Log(b.P)-math.Log(a.P))), true
		}
	}
	return 0, false
}

// AccuracyThreshold estimates the physical rate where increasing the
// code distance stops suppressing errors: the average crossing point of
// successive-distance curves. It reports false when no pair of curves
// crosses inside the sampled window.
func AccuracyThreshold(points []Point) (float64, bool) {
	byD := map[int][]Point{}
	var ds []int
	for _, pt := range points {
		if _, ok := byD[pt.D]; !ok {
			ds = append(ds, pt.D)
		}
		byD[pt.D] = append(byD[pt.D], pt)
	}
	sort.Ints(ds)
	var crossings []float64
	for i := 0; i+1 < len(ds); i++ {
		if x, ok := curveCrossing(byD[ds[i]], byD[ds[i+1]]); ok {
			crossings = append(crossings, x)
		}
	}
	if len(crossings) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, x := range crossings {
		sum += x
	}
	return sum / float64(len(crossings)), true
}

// curveCrossing finds where the higher-distance curve overtakes the
// lower-distance one (log-log interpolated).
func curveCrossing(lo, hi []Point) (float64, bool) {
	a := append([]Point(nil), lo...)
	b := append([]Point(nil), hi...)
	sort.Slice(a, func(i, j int) bool { return a[i].P < a[j].P })
	sort.Slice(b, func(i, j int) bool { return b[i].P < b[j].P })
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i+1 < n; i++ {
		if a[i].P != b[i].P || a[i+1].P != b[i+1].P {
			continue
		}
		if a[i].PL <= 0 || b[i].PL <= 0 || a[i+1].PL <= 0 || b[i+1].PL <= 0 {
			continue
		}
		fa := math.Log(b[i].PL) - math.Log(a[i].PL)
		fb := math.Log(b[i+1].PL) - math.Log(a[i+1].PL)
		if fa <= 0 && fb > 0 {
			t := fa / (fa - fb)
			return math.Exp(math.Log(a[i].P) + t*(math.Log(a[i+1].P)-math.Log(a[i].P))), true
		}
	}
	return 0, false
}

// LinearFit returns the least-squares slope and intercept of y on x.
func LinearFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, fmt.Errorf("stats: need >= 2 paired samples, have %d/%d", len(xs), len(ys))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	det := n*sxx - sx*sx
	if det == 0 {
		return 0, 0, fmt.Errorf("stats: degenerate fit (constant x)")
	}
	slope = (n*sxy - sx*sy) / det
	intercept = (sy - slope*sx) / n
	return slope, intercept, nil
}

// FitC2 fits the Table V model PL ≈ c1·(p/pth)^(c2·d) for a single
// distance's below-threshold points, returning c1 and c2.
func FitC2(curve []Point, pth float64) (c1, c2 float64, err error) {
	var xs, ys []float64
	for _, pt := range curve {
		if pt.P >= pth || pt.PL <= 0 {
			continue
		}
		xs = append(xs, float64(pt.D)*math.Log(pt.P/pth))
		ys = append(ys, math.Log(pt.PL))
	}
	slope, intercept, err := LinearFit(xs, ys)
	if err != nil {
		return 0, 0, fmt.Errorf("stats: FitC2: %w", err)
	}
	return math.Exp(intercept), slope, nil
}

// ByDistance splits a point set into per-distance curves.
func ByDistance(points []Point) map[int][]Point {
	m := map[int][]Point{}
	for _, pt := range points {
		m[pt.D] = append(m[pt.D], pt)
	}
	return m
}

// Summary holds moments of a sample set (Table IV's columns).
type Summary struct {
	N      int
	Max    float64
	Mean   float64
	StdDev float64
}

// Summarize computes max, mean and standard deviation of the samples.
func Summarize(samples []float64) Summary {
	s := Summary{N: len(samples)}
	if s.N == 0 {
		return s
	}
	var sum float64
	for _, v := range samples {
		sum += v
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, v := range samples {
		ss += (v - s.Mean) * (v - s.Mean)
	}
	s.StdDev = math.Sqrt(ss / float64(s.N))
	return s
}

// Percentile returns the q-quantile (0 <= q <= 1) of the samples by
// linear interpolation of the sorted order statistics.
func Percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}
