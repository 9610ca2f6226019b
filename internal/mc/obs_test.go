package mc_test

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/stats"
)

func coinSpecs(points, trials int) []mc.PointSpec {
	specs := make([]mc.PointSpec, points)
	for i := range specs {
		specs[i] = mc.PointSpec{
			ID:     int64(100 + i),
			Trials: trials,
			NewShard: func() (mc.Shard, error) {
				return mc.ShardFunc(func(rng *rand.Rand, t int) (mc.Outcome, error) {
					return mc.Outcome{Failed: rng.Float64() < 0.3, Aux: 1}, nil
				}), nil
			},
		}
	}
	return specs
}

// Progress callbacks must never overlap: the engine serializes them
// under one mutex across all concurrently running points.
func TestProgressSerialized(t *testing.T) {
	var inFlight, maxSeen atomic.Int32
	cfg := mc.Config{
		RootSeed:       1,
		Workers:        8,
		TargetRelWidth: 1e-9, // force every checkpoint
		Interval:       func(k, n int) (float64, float64) { return stats.WilsonInterval(k, n, 1.96) },
		MinTrials:      50,
		Progress: func(p mc.Progress) {
			n := inFlight.Add(1)
			for {
				m := maxSeen.Load()
				if n <= m || maxSeen.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond) // widen any overlap window
			inFlight.Add(-1)
		},
	}
	if _, err := mc.Run(context.Background(), cfg, coinSpecs(6, 400)); err != nil {
		t.Fatal(err)
	}
	if got := maxSeen.Load(); got != 1 {
		t.Fatalf("saw %d overlapping Progress callbacks, want 1", got)
	}
}

// With Obs set, every completed trial is timed: at each checkpoint the
// point's TrialNs histogram count matches the trials spent, and the
// registry counters match the final tallies.
func TestObsTrialAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	last := map[int64]mc.Progress{}
	cfg := mc.Config{
		RootSeed: 2,
		Workers:  4,
		Obs:      reg,
		Progress: func(p mc.Progress) {
			if p.TrialNs.Count != uint64(p.Trials) {
				t.Errorf("point %d: TrialNs.Count = %d at %d trials", p.ID, p.TrialNs.Count, p.Trials)
			}
			if p.TrialNs.P50 > p.TrialNs.Max || p.TrialNs.Min > p.TrialNs.P50 {
				t.Errorf("point %d: quantiles out of order: %+v", p.ID, p.TrialNs)
			}
			mu.Lock()
			last[p.ID] = p
			mu.Unlock()
		},
	}
	results, err := mc.Run(context.Background(), cfg, coinSpecs(3, 2000))
	if err != nil {
		t.Fatal(err)
	}
	var wantTrials, wantFails int64
	for _, r := range results {
		wantTrials += int64(r.Trials)
		wantFails += int64(r.Failures)
	}
	if got := reg.Counter("mc_trials_total").Load(); got != wantTrials {
		t.Fatalf("mc_trials_total = %d, want %d", got, wantTrials)
	}
	if got := reg.Counter("mc_failures_total").Load(); got != wantFails {
		t.Fatalf("mc_failures_total = %d, want %d", got, wantFails)
	}
	if got := reg.Histogram("mc_trial_ns").Count(); got != uint64(wantTrials) {
		t.Fatalf("mc_trial_ns count = %d, want %d", got, wantTrials)
	}
	if len(last) != 3 {
		t.Fatalf("saw progress for %d points, want 3", len(last))
	}
}

// Telemetry must not perturb results: identical Results with and
// without Obs, and across worker counts while instrumented.
func TestObsDeterminism(t *testing.T) {
	run := func(reg *obs.Registry, workers int) []mc.Result {
		cfg := mc.Config{RootSeed: 3, Workers: workers, ShardSize: 17, Obs: reg}
		res, err := mc.Run(context.Background(), cfg, coinSpecs(4, 3000))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil, 4)
	instr := run(obs.NewRegistry(), 4)
	if !reflect.DeepEqual(plain, instr) {
		t.Fatalf("results diverged with Obs set:\n%+v\n%+v", plain, instr)
	}
	instr1 := run(obs.NewRegistry(), 1)
	if !reflect.DeepEqual(plain, instr1) {
		t.Fatalf("instrumented results depend on worker count:\n%+v\n%+v", plain, instr1)
	}
}
