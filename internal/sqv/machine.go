package sqv

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/mc"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/surface"
)

// MachineSim validates the Fig. 1 SQV accounting empirically: K
// independent logical tiles (each a distance-d lifetime simulation)
// advance together until any tile suffers a logical fault. The
// machine-wide gate budget is the expectation of that stopping time,
// which the analytic model predicts as 1/(K·PL).
type MachineSim struct {
	cfg SimConfig
}

// SimConfig configures the empirical machine.
type SimConfig struct {
	LogicalQubits int
	Distance      int
	P             float64 // physical dephasing rate
	NewDecoderZ   func(d int) decoder.Decoder
	Seed          int64
	// Workers bounds the Monte-Carlo engine parallelism of
	// MeanCyclesToFailure; 0 means GOMAXPROCS.
	Workers int
	// FreeDecoder, when non-nil, receives every decoder NewDecoderZ
	// built once the engine retires the shard owning it (pass
	// sfq.Pool.Release to recycle meshes). Must be safe for concurrent
	// use.
	FreeDecoder func(decoder.Decoder)
	// Obs, when non-nil, receives engine and tile telemetry (see
	// mc.Config.Obs and surface.Config.Obs).
	Obs *obs.Registry
}

// buildTiles constructs one shard's K tile simulators. Each trial
// injects its own stream, so the tiles need no seed.
func (cfg SimConfig) buildTiles() ([]*surface.Simulator, error) {
	var sims []*surface.Simulator
	for k := 0; k < cfg.LogicalQubits; k++ {
		ch, err := noise.NewDephasing(cfg.P)
		if err != nil {
			return nil, err
		}
		sim, err := surface.New(surface.Config{
			Distance: cfg.Distance,
			Channel:  ch,
			DecoderZ: cfg.NewDecoderZ(cfg.Distance),
			Obs:      cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		sims = append(sims, sim)
	}
	return sims, nil
}

// NewMachineSim validates the configuration. Tiles are built per
// engine shard, when MeanCyclesToFailure runs.
func NewMachineSim(cfg SimConfig) (*MachineSim, error) {
	if cfg.LogicalQubits < 1 {
		return nil, fmt.Errorf("sqv: need at least one logical qubit, got %d", cfg.LogicalQubits)
	}
	if cfg.NewDecoderZ == nil {
		return nil, fmt.Errorf("sqv: NewDecoderZ is required")
	}
	if _, err := lattice.New(cfg.Distance); err != nil {
		return nil, err
	}
	if _, err := noise.NewDephasing(cfg.P); err != nil {
		return nil, err
	}
	return &MachineSim{cfg: cfg}, nil
}

// machineShard holds one private copy of the K-tile machine for the
// Monte-Carlo engine. Each trial replays the stopping-time experiment
// from clean frames on the trial's stream.
type machineShard struct {
	sims      []*surface.Simulator
	maxCycles int
}

// Trial implements mc.Shard: Aux carries the cycles-to-failure count
// (maxCycles when no tile failed) and Failed marks trials that failed
// within the cap. The tiles consume the trial stream round-robin, one
// cycle each, until any tile flips its logical state.
func (sh *machineShard) Trial(rng *rand.Rand, _ int) (mc.Outcome, error) {
	for _, sim := range sh.sims {
		sim.Reset()
		sim.SetRand(rng)
	}
	for cycles := 1; cycles <= sh.maxCycles; cycles++ {
		for _, sim := range sh.sims {
			res, err := sim.Run(1)
			if err != nil {
				return mc.Outcome{}, err
			}
			if res.LogicalErrors > 0 {
				return mc.Outcome{Failed: true, Aux: int64(cycles)}, nil
			}
		}
	}
	return mc.Outcome{Aux: int64(sh.maxCycles)}, nil
}

// MeanCyclesToFailure repeats the stopping-time experiment, capped at
// maxCycles per trial, and averages. Trials run sharded on the
// Monte-Carlo engine: each trial's randomness is a pure function of
// (Seed, machine parameters, trial index), so the mean is bit-identical
// for any worker count.
func (m *MachineSim) MeanCyclesToFailure(ctx context.Context, trials, maxCycles int) (float64, error) {
	if trials < 1 {
		return 0, fmt.Errorf("sqv: need at least one trial")
	}
	spec := mc.PointSpec{
		ID: mc.DeriveID(uint64(m.cfg.Distance), uint64(m.cfg.LogicalQubits),
			math.Float64bits(m.cfg.P)),
		Trials: trials,
		NewShard: func() (mc.Shard, error) {
			sims, err := m.cfg.buildTiles()
			if err != nil {
				return nil, err
			}
			return &machineShard{sims: sims, maxCycles: maxCycles}, nil
		},
	}
	if m.cfg.FreeDecoder != nil {
		spec.Release = func(sh mc.Shard) {
			ms, ok := sh.(*machineShard)
			if !ok {
				return
			}
			for _, sim := range ms.sims {
				for _, dec := range sim.Decoders() {
					m.cfg.FreeDecoder(dec)
				}
			}
		}
	}
	results, err := mc.Run(ctx, mc.Config{
		RootSeed: m.cfg.Seed,
		Workers:  m.cfg.Workers,
		Obs:      m.cfg.Obs,
	}, []mc.PointSpec{spec})
	if err != nil {
		return 0, err
	}
	return float64(results[0].Aux) / float64(trials), nil
}
