package mc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// coinShard fails a trial when the first draw of its stream falls below
// rate. Pure function of the rng, as the Shard contract requires.
func coinShard(rate float64) func() (Shard, error) {
	return func() (Shard, error) {
		return ShardFunc(func(rng *rand.Rand, t int) (Outcome, error) {
			return Outcome{Failed: rng.Float64() < rate, Aux: int64(t % 3)}, nil
		}), nil
	}
}

func coinSpecs() []PointSpec {
	var specs []PointSpec
	for i, rate := range []float64{0.02, 0.1, 0.5} {
		specs = append(specs, PointSpec{
			ID:       DeriveID(uint64(i) + 7),
			Trials:   5000,
			NewShard: coinShard(rate),
		})
	}
	return specs
}

func runCoin(t *testing.T, cfg Config, specs []PointSpec) []Result {
	t.Helper()
	res, err := Run(context.Background(), cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Satellite: cross-worker determinism. Results must be bit-identical
// for every (Workers, ShardSize) combination and for shuffled spec
// order.
func TestRunDeterministicAcrossWorkersAndSharding(t *testing.T) {
	ref := runCoin(t, Config{RootSeed: 11, Workers: 1}, coinSpecs())
	combos := []struct{ workers, shardSize int }{
		{1, 0}, {2, 17}, {8, 64}, {3, 1}, {8, 0},
	}
	for _, c := range combos {
		got := runCoin(t, Config{RootSeed: 11, Workers: c.workers, ShardSize: c.shardSize}, coinSpecs())
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("workers=%d shard=%d: point %d = %+v, want %+v",
					c.workers, c.shardSize, i, got[i], ref[i])
			}
		}
	}

	// Shuffled spec order: per-ID results unchanged.
	specs := coinSpecs()
	shuffled := []PointSpec{specs[2], specs[0], specs[1]}
	got := runCoin(t, Config{RootSeed: 11, Workers: 4}, shuffled)
	byID := map[int64]Result{}
	for _, r := range ref {
		byID[r.ID] = r
	}
	for _, r := range got {
		if r != byID[r.ID] {
			t.Errorf("shuffled order: id %d = %+v, want %+v", r.ID, r, byID[r.ID])
		}
	}
}

func TestRunSeedAndIDMatter(t *testing.T) {
	a := runCoin(t, Config{RootSeed: 1, Workers: 2}, coinSpecs())
	b := runCoin(t, Config{RootSeed: 2, Workers: 2}, coinSpecs())
	same := true
	for i := range a {
		if a[i].Failures != b[i].Failures {
			same = false
		}
	}
	if same {
		t.Error("changing RootSeed left every tally unchanged")
	}
	// Equal IDs replay identical streams (the head-to-head property).
	sp := coinSpecs()[1]
	twin := sp
	x := runCoin(t, Config{RootSeed: 5, Workers: 3}, []PointSpec{sp, twin})
	if x[0] != x[1] {
		t.Errorf("equal IDs diverged: %+v vs %+v", x[0], x[1])
	}
}

// Satellite: adaptive stopping is deterministic — trials spent lands on
// a checkpoint value, is under budget for an easy point, and is
// identical across worker counts.
func TestAdaptiveStoppingDeterministic(t *testing.T) {
	// Crude but monotone interval: rate ± 1.96·sqrt(rate/n).
	interval := func(k, n int) (float64, float64) {
		if n == 0 {
			return 0, 1
		}
		rate := float64(k) / float64(n)
		w := 1.96 * rate / float64(n) * 100
		return rate - w, rate + w
	}
	spec := []PointSpec{{ID: 3, Trials: 1 << 20, NewShard: coinShard(0.5)}}
	cfg := Config{
		RootSeed:       9,
		MinTrials:      500,
		TargetRelWidth: 0.2,
		Interval:       interval,
	}
	var ref []Result
	for _, w := range []int{1, 2, 8} {
		cfg.Workers = w
		got := runCoin(t, cfg, spec)
		if got[0].Trials >= spec[0].Trials {
			t.Fatalf("workers=%d: no early stop (%d trials)", w, got[0].Trials)
		}
		// Trials spent must sit on the checkpoint schedule 500·2^k.
		n := got[0].Trials
		for n > 500 {
			if n%2 != 0 {
				t.Fatalf("workers=%d: %d trials is not a checkpoint value", w, got[0].Trials)
			}
			n /= 2
		}
		if n != 500 {
			t.Fatalf("workers=%d: %d trials is not a checkpoint value", w, got[0].Trials)
		}
		if ref == nil {
			ref = got
		} else if got[0] != ref[0] {
			t.Errorf("workers=%d: %+v, want %+v", w, got[0], ref[0])
		}
	}
}

// Satellite: worker errors are all collected (errors.Join) and reported
// deterministically, not first-error-wins.
func TestRunJoinsAllPointErrors(t *testing.T) {
	bad := func(msg string) func() (Shard, error) {
		return func() (Shard, error) {
			return ShardFunc(func(rng *rand.Rand, t int) (Outcome, error) {
				return Outcome{}, errors.New(msg)
			}), nil
		}
	}
	specs := []PointSpec{
		{ID: 1, Trials: 10, NewShard: bad("first kind of failure")},
		{ID: 2, Trials: 10, NewShard: coinShard(0.5)},
		{ID: 3, Trials: 10, NewShard: bad("second kind of failure")},
	}
	for _, w := range []int{1, 4} {
		_, err := Run(context.Background(), Config{RootSeed: 1, Workers: w}, specs)
		if err == nil {
			t.Fatalf("workers=%d: expected error", w)
		}
		for _, want := range []string{"first kind of failure", "second kind of failure"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("workers=%d: error %q misses %q", w, err, want)
			}
		}
	}
	// Shard construction failures are reported too.
	_, err := Run(context.Background(), Config{RootSeed: 1, Workers: 2}, []PointSpec{{
		ID: 9, Trials: 10,
		NewShard: func() (Shard, error) { return nil, errors.New("no shard for you") },
	}})
	if err == nil || !strings.Contains(err.Error(), "no shard for you") {
		t.Errorf("NewShard error not surfaced: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	ok := coinShard(0.5)
	cases := []struct {
		name  string
		cfg   Config
		specs []PointSpec
	}{
		{"zero trials", Config{}, []PointSpec{{ID: 1, Trials: 0, NewShard: ok}}},
		{"nil NewShard", Config{}, []PointSpec{{ID: 1, Trials: 10}}},
		{"relwidth without interval", Config{TargetRelWidth: 0.1},
			[]PointSpec{{ID: 1, Trials: 10, NewShard: ok}}},
	}
	for _, c := range cases {
		if _, err := Run(context.Background(), c.cfg, c.specs); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Empty spec list is a no-op, not an error.
	res, err := Run(context.Background(), Config{}, nil)
	if err != nil || res != nil {
		t.Errorf("empty run: %v, %v", res, err)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	spec := []PointSpec{{
		ID: 1, Trials: 1 << 30,
		NewShard: func() (Shard, error) {
			return ShardFunc(func(rng *rand.Rand, t int) (Outcome, error) {
				once.Do(func() { close(started) })
				return Outcome{Failed: rng.Float64() < 0.5}, nil
			}), nil
		},
	}}
	go func() {
		<-started
		cancel()
	}()
	_, err := Run(ctx, Config{RootSeed: 1, Workers: 2}, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestProgressCallback(t *testing.T) {
	interval := func(k, n int) (float64, float64) { return 0, 1 } // never tight
	var mu sync.Mutex
	got := map[int64][]Progress{}
	cfg := Config{
		RootSeed:       4,
		Workers:        4,
		MinTrials:      256,
		TargetRelWidth: 0.001,
		Interval:       interval,
		Progress: func(p Progress) {
			mu.Lock()
			got[p.ID] = append(got[p.ID], p)
			mu.Unlock()
		},
	}
	specs := []PointSpec{
		{ID: 10, Trials: 1000, NewShard: coinShard(0.3)},
		{ID: 20, Trials: 2000, NewShard: coinShard(0.3)},
	}
	runCoin(t, cfg, specs)
	for _, sp := range specs {
		ps := got[sp.ID]
		if len(ps) == 0 {
			t.Fatalf("id %d: no progress reports", sp.ID)
		}
		for i, p := range ps {
			if i > 0 && p.Trials <= ps[i-1].Trials {
				t.Errorf("id %d: trials not increasing: %+v after %+v", sp.ID, p, ps[i-1])
			}
			if p.Target != sp.Trials {
				t.Errorf("id %d: target %d, want %d", sp.ID, p.Target, sp.Trials)
			}
			if p.Done != (i == len(ps)-1) {
				t.Errorf("id %d: report %d Done=%v", sp.ID, i, p.Done)
			}
		}
		if last := ps[len(ps)-1]; last.Trials != sp.Trials {
			t.Errorf("id %d: final report at %d trials, want %d", sp.ID, last.Trials, sp.Trials)
		}
	}
}

func TestAuxTallied(t *testing.T) {
	specs := []PointSpec{{ID: 1, Trials: 999, NewShard: coinShard(0)}}
	res := runCoin(t, Config{RootSeed: 1, Workers: 4, ShardSize: 10}, specs)
	// coinShard returns Aux = t % 3: sum over t in [0, 999).
	var want int64
	for tr := 0; tr < 999; tr++ {
		want += int64(tr % 3)
	}
	if res[0].Aux != want {
		t.Errorf("Aux = %d, want %d", res[0].Aux, want)
	}
	if res[0].Failures != 0 {
		t.Errorf("Failures = %d, want 0", res[0].Failures)
	}
}

func ExampleRun() {
	specs := []PointSpec{{
		ID:     DeriveID(3), // derive from point parameters, not position
		Trials: 10000,
		NewShard: func() (Shard, error) {
			return ShardFunc(func(rng *rand.Rand, t int) (Outcome, error) {
				return Outcome{Failed: rng.Float64() < 0.25}, nil
			}), nil
		},
	}}
	res, _ := Run(context.Background(), Config{RootSeed: 1, Workers: 8}, specs)
	fmt.Println(res[0].Trials)
	// Output: 10000
}

// TestReleaseReturnsEveryShard checks that Release receives every shard
// NewShard built — exactly once each — after the point finishes, for
// both full-budget and mid-batch-error points.
func TestReleaseReturnsEveryShard(t *testing.T) {
	var mu sync.Mutex
	built := map[Shard]int{}
	released := map[Shard]int{}
	spec := PointSpec{
		ID:     DeriveID(1),
		Trials: 4000,
		NewShard: func() (Shard, error) {
			sh := ShardFunc(func(rng *rand.Rand, tt int) (Outcome, error) {
				return Outcome{Failed: rng.Float64() < 0.1}, nil
			})
			mu.Lock()
			built[&sh]++
			mu.Unlock()
			return &sh, nil
		},
		Release: func(sh Shard) {
			mu.Lock()
			released[sh]++
			mu.Unlock()
		},
	}
	if _, err := Run(context.Background(), Config{RootSeed: 5, Workers: 4, ShardSize: 100}, []PointSpec{spec}); err != nil {
		t.Fatal(err)
	}
	if len(built) == 0 {
		t.Fatal("no shards built")
	}
	if len(released) != len(built) {
		t.Fatalf("released %d distinct shards, built %d", len(released), len(built))
	}
	for sh, n := range released {
		if n != 1 {
			t.Fatalf("shard released %d times", n)
		}
		if built[sh] != 1 {
			t.Fatalf("released a shard that was never built")
		}
	}
}

// TestReleaseOnPointError checks shards are still reclaimed when a
// trial fails partway through the point.
func TestReleaseOnPointError(t *testing.T) {
	var mu sync.Mutex
	builtN, releasedN := 0, 0
	spec := PointSpec{
		ID:     DeriveID(2),
		Trials: 2000,
		NewShard: func() (Shard, error) {
			mu.Lock()
			builtN++
			mu.Unlock()
			return ShardFunc(func(rng *rand.Rand, tt int) (Outcome, error) {
				if tt == 999 {
					return Outcome{}, errors.New("boom")
				}
				return Outcome{}, nil
			}), nil
		},
		Release: func(Shard) {
			mu.Lock()
			releasedN++
			mu.Unlock()
		},
	}
	if _, err := Run(context.Background(), Config{RootSeed: 5, Workers: 3, ShardSize: 50}, []PointSpec{spec}); err == nil {
		t.Fatal("expected point error")
	}
	mu.Lock()
	defer mu.Unlock()
	if releasedN != builtN {
		t.Fatalf("released %d shards, built %d", releasedN, builtN)
	}
}

// coinBatch is a BatchShard over the coin trial: TrialBatch applies the
// same pure function to each stream. It counts Trial calls and records
// the widest TrialBatch call.
type coinBatch struct {
	rate   float64
	width  int
	trials int
	widest int
}

func (c *coinBatch) Trial(rng *rand.Rand, t int) (Outcome, error) {
	c.trials++
	return Outcome{Failed: rng.Float64() < c.rate, Aux: int64(t % 3)}, nil
}

func (c *coinBatch) BatchSize() int { return c.width }

func (c *coinBatch) TrialBatch(rngs []*rand.Rand, lo int, out []Outcome) error {
	c.widest = max(c.widest, len(rngs))
	for i, rng := range rngs {
		out[i] = Outcome{Failed: rng.Float64() < c.rate, Aux: int64((lo + i) % 3)}
	}
	return nil
}

// TestBatchShardWidths pins the engine's one trial loop: a BatchShard
// runs one Trial per call unless Config.Batch is set and it is wider
// than one lane, and the tally is bit-identical at every width.
func TestBatchShardWidths(t *testing.T) {
	ref := runCoin(t, Config{RootSeed: 11, Workers: 1}, coinSpecs())
	for _, tc := range []struct {
		width      int
		batch      bool
		wantTrial  bool // Trial calls expected
		wantWidest int  // widest TrialBatch call, 0 if none
	}{
		{width: 8, batch: false, wantTrial: true},
		{width: 1, batch: true, wantTrial: true},
		{width: 8, batch: true, wantWidest: 8},
		{width: 13, batch: true, wantWidest: 13},
	} {
		var mu sync.Mutex
		var shards []*coinBatch
		specs := coinSpecs()
		for i, rate := range []float64{0.02, 0.1, 0.5} {
			rate := rate
			specs[i].NewShard = func() (Shard, error) {
				c := &coinBatch{rate: rate, width: tc.width}
				mu.Lock()
				shards = append(shards, c)
				mu.Unlock()
				return c, nil
			}
		}
		got := runCoin(t, Config{RootSeed: 11, Workers: 3, ShardSize: 97, Batch: tc.batch}, specs)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("width %d batch %v: point %d = %+v, want %+v", tc.width, tc.batch, i, got[i], ref[i])
			}
		}
		trials, widest := 0, 0
		for _, c := range shards {
			trials += c.trials
			widest = max(widest, c.widest)
		}
		if (trials > 0) != tc.wantTrial || widest != tc.wantWidest {
			t.Errorf("width %d batch %v: %d Trial calls, widest TrialBatch %d; want Trial calls %v, widest %d",
				tc.width, tc.batch, trials, widest, tc.wantTrial, tc.wantWidest)
		}
	}
}
