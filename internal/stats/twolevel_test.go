package stats

// Acceptance gate of the two-level decoding PR: sweep results in
// two-level mode must be bit-identical across worker/shard/lane shapes.
// The escalation verdict is a pure function of the mesh Stats, which the
// sfq conformance suites pin identical between scalar and SWAR kernels,
// and MWPM is deterministic — so any divergence here is a real bug in
// the twolevel wrapper or the sweep plumbing.

import (
	"sync/atomic"
	"testing"

	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/sfq"
	"repro/internal/twolevel"
)

func twoLevelSweepConfig(cycles int, batch bool, pool *sfq.Pool, esc *atomic.Int64) CurveConfig {
	pol := twolevel.Policy{OnRetry: true, OnUnresolved: true, HotThreshold: 4}
	cfg := CurveConfig{
		Distances:  []int{3, 5, 7},
		Rates:      []float64{0.02, 0.06},
		Cycles:     cycles,
		NewChannel: func(p float64) (noise.Channel, error) { return noise.NewDephasing(p) },
		NewDecoderZ: func(d int) decoder.Decoder {
			if batch {
				return pool.GetBatch(d, lattice.ZErrors)
			}
			return pool.Get(d, lattice.ZErrors)
		},
		FreeDecoder: pool.Release,
		Seed:        4321,
		TwoLevel:    &TwoLevelConfig{Policy: pol},
	}
	if esc != nil {
		cfg.Observer = func(d int, p float64) func(lattice.ErrorType, sfq.Stats) {
			return func(_ lattice.ErrorType, st sfq.Stats) {
				if pol.Escalate(st) {
					esc.Add(1)
				}
			}
		}
	}
	return cfg
}

// TestCurvesTwoLevelDeterminism runs the same two-level sweep over
// one-lane and max-lane meshes, across worker/shard shapes, and
// requires bit-identical points — and that the sweep actually escalated
// and actually changed outcomes relative to pure-mesh decoding
// (otherwise the mode proves nothing).
func TestCurvesTwoLevelDeterminism(t *testing.T) {
	cycles := shortOr(1500, 400)
	pool := sfq.NewPool(sfq.Final)
	var escalations atomic.Int64
	ref, err := Curves(twoLevelSweepConfig(cycles, false, pool, &escalations))
	if err != nil {
		t.Fatal(err)
	}
	if escalations.Load() == 0 {
		t.Fatal("two-level sweep never escalated; determinism check is vacuous")
	}
	anyErrors := false
	for _, pt := range ref {
		anyErrors = anyErrors || pt.Errors > 0
	}
	if !anyErrors {
		t.Fatal("two-level sweep saw no logical errors; determinism check is vacuous")
	}

	// Pure-mesh sweep under the same seed: the escalations must have
	// changed at least one point, or the wrapper is decoding nothing.
	pure := batchSweepConfig(cycles, false, false, pool)
	pure.Distances, pure.Rates, pure.Seed = []int{3, 5, 7}, []float64{0.02, 0.06}, 4321
	purePts, err := Curves(pure)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range ref {
		if ref[i] != purePts[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two-level sweep is bit-identical to pure mesh despite escalations")
	}

	for _, shape := range []struct {
		workers, shardSize int
		batch              bool
	}{
		{3, 17, false}, {1, 64, false}, {0, 0, true}, {3, 17, true}, {1, 64, true},
	} {
		cfg := twoLevelSweepConfig(cycles, shape.batch, pool, nil)
		cfg.Workers = shape.workers
		cfg.ShardSize = shape.shardSize
		got, err := Curves(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pointsEqual(t, "two-level", ref, got)
	}

	// The pool saw only level-1 meshes back (the unwrap path): nothing
	// outstanding, nothing foreign.
	st := pool.Stats()
	if st.Outstanding != 0 || st.Foreign != 0 || st.DoublePuts != 0 {
		t.Fatalf("pool after two-level sweeps: %+v", st)
	}
}
