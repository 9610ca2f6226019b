package stats

// Acceptance gate of SWAR batching: Monte-Carlo sweep results must be
// bit-identical on one-lane and max-lane meshes under the same seeds —
// the mesh's lane count alone picks one trial per call or a chunk per
// call, per-trial streams are untouched by chunking, and the kernel is
// conformance-pinned at every lane count, so any divergence here is a
// real bug in one of those layers.

import (
	"testing"

	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/sfq"
)

func batchSweepConfig(cycles int, batch, dual bool, pool *sfq.Pool) CurveConfig {
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
		Seed:        1234,
	}
	if dual {
		cfg.NewChannel = func(p float64) (noise.Channel, error) { return noise.NewDepolarizing(p) }
		cfg.NewDecoderX = func(d int) decoder.Decoder {
			if batch {
				return pool.GetBatch(d, lattice.XErrors)
			}
			return pool.Get(d, lattice.XErrors)
		}
	}
	return cfg
}

func pointsEqual(t *testing.T, desc string, a, b []Point) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d points", desc, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: point %d diverges:\nscalar  %+v\nbatched %+v", desc, i, a[i], b[i])
		}
	}
}

// TestCurvesBatchDeterminism runs the same sweep on one-lane and on
// max-lane meshes (across worker/shard shapes) and requires bit-identical
// points: same logical-error counts, same forced completions, same
// trial counts.
func TestCurvesBatchDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		dual bool
	}{
		{"dephasing-Z", false},
		{"depolarizing-ZX", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cycles := shortOr(1500, 400)
			pool := sfq.NewPool(sfq.Final)
			scalar, err := Curves(batchSweepConfig(cycles, false, tc.dual, pool))
			if err != nil {
				t.Fatal(err)
			}
			anyErrors := false
			for _, pt := range scalar {
				anyErrors = anyErrors || pt.Errors > 0
			}
			if !anyErrors {
				t.Fatal("scalar sweep saw no logical errors; determinism check is vacuous")
			}
			for _, shape := range []struct{ workers, shardSize int }{
				{0, 0}, {3, 17}, {1, 64},
			} {
				cfg := batchSweepConfig(cycles, true, tc.dual, pool)
				cfg.Workers = shape.workers
				cfg.ShardSize = shape.shardSize
				batched, err := Curves(cfg)
				if err != nil {
					t.Fatal(err)
				}
				pointsEqual(t, tc.name, scalar, batched)
			}
		})
	}
}

// TestCurvesBatchPoolRecycling checks the sweep returns its batch
// meshes: after FreeDecoder ran for every point, the pool reports no
// outstanding meshes and later sweeps reuse parked ones.
func TestCurvesBatchPoolRecycling(t *testing.T) {
	pool := sfq.NewPool(sfq.Final)
	if _, err := Curves(batchSweepConfig(300, true, false, pool)); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Outstanding != 0 {
		t.Fatalf("pool reports %d outstanding meshes after sweep, want 0 (%+v)", st.Outstanding, st)
	}
	if _, err := Curves(batchSweepConfig(300, true, false, pool)); err != nil {
		t.Fatal(err)
	}
	st2 := pool.Stats()
	if st2.Hits == st.Hits {
		t.Fatalf("second sweep reused no parked batch meshes: %+v", st2)
	}
}
