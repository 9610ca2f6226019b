// Package mc is the shared, sharded Monte-Carlo execution engine behind
// every sweep in this repository (Fig. 10 threshold curves, Table IV/V,
// the SQV machine simulation, and the space-time and rotated-layout
// extensions).
//
// The engine runs a set of points, each a budget of independent trials.
// Two levels of parallelism are exposed to one worker pool sized from
// GOMAXPROCS: points run concurrently with each other, and the trials
// inside a point are split into shards that also run concurrently, so a
// single large point (d = 9, 10⁵ cycles) no longer serializes on one
// goroutine.
//
// Reproducibility contract: every trial draws its randomness from a
// counter-based stream that is a pure function of (RootSeed, PointSpec.ID,
// trial index) — see Stream — and trials are aggregated by commutative
// tallies. Results are therefore bit-identical regardless of Workers,
// ShardSize, or scheduling order, which the cross-worker determinism
// regression tests assert.
//
// Adaptive early stopping halts a point once its confidence interval
// (the caller supplies the interval, e.g. stats.WilsonInterval) is
// tighter than TargetRelWidth relative to the measured rate. Stopping
// decisions are evaluated only at a deterministic checkpoint schedule
// (MinTrials, 2·MinTrials, 4·MinTrials, …), so the trials-spent count
// is itself reproducible.
package mc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
)

// Outcome is the result of one trial.
type Outcome struct {
	// Failed marks the event being counted (e.g. a logical error this
	// cycle). The engine tallies failures per point.
	Failed bool
	// Aux is an auxiliary counter summed across trials (e.g. forced
	// completions, or cycles-to-failure for stopping-time experiments).
	Aux int64
}

// Shard executes trials sequentially on private state (its own
// simulator, decoder, frame). The engine creates shards with
// PointSpec.NewShard and reuses them across batches of the same point;
// a shard is never used from two goroutines at once. Single ownership
// is also what makes the zero-allocation decode path safe: a shard's
// simulator carries one decodepool.Scratch, warm after the first few
// trials, and no other shard ever touches it.
type Shard interface {
	// Trial runs trial index t. rng is positioned at the start of the
	// trial's private stream; the outcome must depend only on rng and t,
	// never on which trials the shard ran before (reset any carried
	// state first).
	Trial(rng *rand.Rand, t int) (Outcome, error)
}

// ShardFunc adapts a stateless function to the Shard interface.
type ShardFunc func(rng *rand.Rand, t int) (Outcome, error)

// Trial implements Shard.
func (f ShardFunc) Trial(rng *rand.Rand, t int) (Outcome, error) { return f(rng, t) }

// BatchShard is a Shard that can advance several trials per call —
// e.g. a simulator whose decoder packs independent syndromes into SWAR
// lanes. The engine's one trial loop calls TrialBatch only when
// Config.Batch is set and BatchSize exceeds 1, and Trial otherwise;
// results must be bit-identical either way, which the reproducibility
// contract makes possible: each trial of a batch receives its own
// counter-based stream, positioned exactly as a one-trial call would
// position it.
type BatchShard interface {
	Shard
	// BatchSize reports the shard's native batch width. A width of 1
	// (or less) disables chunking for this shard.
	BatchSize() int
	// TrialBatch runs trials lo, lo+1, …, lo+len(rngs)-1. rngs[i] is
	// positioned at the start of trial lo+i's private stream; out[i]
	// receives its outcome. len(out) == len(rngs); the final chunk of a
	// shard may be narrower than BatchSize.
	TrialBatch(rngs []*rand.Rand, lo int, out []Outcome) error
}

// PointSpec describes one point of a sweep.
type PointSpec struct {
	// ID keys the point's random streams (with RootSeed). Use DeriveID
	// from the point's parameters so results are invariant under sweep
	// reordering. Distinct points should have distinct IDs; equal IDs
	// deliberately replay identical streams (decoder head-to-heads).
	ID int64
	// Trials is the maximum trial budget (> 0).
	Trials int
	// NewShard builds private per-shard state. It is called at most
	// once per concurrently running shard of this point.
	NewShard func() (Shard, error)
	// ShardSize overrides the engine's shard sizing for this point
	// (e.g. 1 shard for a point whose state is expensive to build).
	ShardSize int
	// Release, when non-nil, receives every shard state NewShard built
	// for this point once the point finishes (budget spent, CI tight
	// enough, or failed). Use it to return pooled resources — decoder
	// meshes, scratch arenas — to their free lists for the next point.
	Release func(Shard)
}

// Progress reports one point's cumulative tally after a checkpoint.
type Progress struct {
	Point    int   // index into the spec slice
	ID       int64 // PointSpec.ID
	Trials   int   // trials completed so far
	Target   int   // trial budget
	Failures int   // failures so far
	Done     bool  // point finished (budget exhausted or CI tight enough)
	// TrialNs summarizes the point's wall-clock per-trial latency
	// distribution up to this checkpoint. It is populated only when
	// Config.Obs is set (timing trials costs two clock reads each);
	// otherwise TrialNs is the zero Summary.
	TrialNs obs.Summary
}

// Config drives a Run.
type Config struct {
	// RootSeed seeds every stream of the run.
	RootSeed int64
	// Workers bounds concurrently executing shards across all points;
	// 0 means GOMAXPROCS.
	Workers int
	// ShardSize fixes the trials per shard; 0 sizes shards to a few
	// tasks per worker. Results never depend on this, only throughput.
	ShardSize int
	// TargetRelWidth, when > 0, stops a point early once its interval
	// half-spread satisfies hi−lo ≤ TargetRelWidth·(failures/trials).
	// Points with zero failures run their full budget.
	TargetRelWidth float64
	// Interval maps (failures, trials) to a confidence interval; it is
	// required when TargetRelWidth > 0 (pass stats.WilsonInterval at
	// the caller's z).
	Interval func(k, n int) (lo, hi float64)
	// MinTrials is the first early-stopping checkpoint (default 1000);
	// later checkpoints double until the budget is reached.
	MinTrials int
	// Progress, when non-nil, receives a Progress after every
	// checkpoint of every point. Calls run under an engine-wide mutex:
	// no two invocations overlap, but a slow callback stalls the
	// checkpoint processing of EVERY concurrently running point, not
	// just its own. Callbacks that block (network writes, scrapes)
	// should be wrapped with AsyncProgress, which hands reports to a
	// dedicated goroutine and never blocks the engine.
	Progress func(Progress)
	// Batch lets shards that implement BatchShard advance BatchSize
	// trials per TrialBatch call (trial streams and tallies are
	// unchanged, so results stay bit-identical with Batch on or off —
	// the determinism regression tests assert it). Other shards, and
	// BatchShards whose BatchSize is 1, advance one Trial per call.
	Batch bool
	// Obs, when non-nil, receives engine telemetry: the mc_trials_total
	// and mc_failures_total counters and the mc_trial_ns wall-clock
	// latency histogram. Each shard records into a private obs.Local
	// and publishes as it retires — counters and histogram move
	// together on a live scrape — so results stay bit-identical and
	// the hot loop stays allocation-free whether or not Obs is set.
	Obs *obs.Registry
	// ForceSteal makes the scheduler's workers steal before draining
	// their own deques (see sched.Options.ForceSteal). Results are
	// schedule-independent, so this only exists for the determinism and
	// race tests to maximize cross-worker task migration.
	ForceSteal bool
	// SchedStats, when non-nil, receives the scheduler's counter
	// snapshot when the run finishes.
	SchedStats *sched.Stats
}

// Result is one point's aggregate tally.
type Result struct {
	ID       int64
	Trials   int   // trials actually spent (≤ budget under early stopping)
	Failures int   // failed-trial count
	Aux      int64 // summed Outcome.Aux
}

// cancelCheckEvery bounds how many trials a shard runs between
// context-cancellation checks.
const cancelCheckEvery = 256

type engine struct {
	cfg       Config
	workers   int
	minTrials int
	pool      *sched.Pool
	mu        sync.Mutex // serializes Progress callbacks

	// Telemetry, nil unless cfg.Obs is set.
	obsTrialNs  *obs.Histogram // process-wide mc_trial_ns
	obsTrials   *obs.Counter
	obsFailures *obs.Counter
}

// Run executes the sweep and returns one Result per spec, in spec
// order. On failure it returns the errors of every failed point joined
// in point order (errors.Join), never a partial result set.
func Run(ctx context.Context, cfg Config, specs []PointSpec) ([]Result, error) {
	for i, sp := range specs {
		if sp.Trials <= 0 {
			return nil, fmt.Errorf("mc: point %d (id %d): Trials must be positive", i, sp.ID)
		}
		if sp.NewShard == nil {
			return nil, fmt.Errorf("mc: point %d (id %d): NewShard is required", i, sp.ID)
		}
	}
	if cfg.TargetRelWidth > 0 && cfg.Interval == nil {
		return nil, fmt.Errorf("mc: TargetRelWidth needs an Interval function")
	}
	if len(specs) == 0 {
		return nil, nil
	}
	e := &engine{cfg: cfg, workers: cfg.Workers, minTrials: cfg.MinTrials}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if e.minTrials <= 0 {
		e.minTrials = 1000
	}
	if cfg.Obs != nil {
		e.obsTrialNs = cfg.Obs.Histogram("mc_trial_ns")
		e.obsTrials = cfg.Obs.Counter("mc_trials_total")
		e.obsFailures = cfg.Obs.Counter("mc_failures_total")
	}
	// The work-stealing pool replaces the old fixed channel fan-out:
	// every point's shards land in per-worker deques, and a worker that
	// drains a cheap point steals from one still grinding through an
	// expensive one, so mixed-cost sweeps keep every worker busy.
	e.pool = sched.New(e.workers, sched.Options{ForceSteal: cfg.ForceSteal})
	results := make([]Result, len(specs))
	errs := make([]error, len(specs))
	var pointWG sync.WaitGroup
	for i := range specs {
		pointWG.Add(1)
		go func(i int) {
			defer pointWG.Done()
			results[i], errs[i] = e.runPoint(ctx, i, specs[i])
		}(i)
	}
	pointWG.Wait()
	e.pool.Close()
	if cfg.SchedStats != nil {
		*cfg.SchedStats = e.pool.Stats()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// runPoint drives one point through its checkpoint schedule.
func (e *engine) runPoint(ctx context.Context, idx int, sp PointSpec) (Result, error) {
	res := Result{ID: sp.ID}
	var pointNs *obs.Histogram // this point's trial-latency distribution
	if e.obsTrialNs != nil {
		pointNs = obs.NewHistogram()
	}
	idle := make(chan Shard, e.workers) // shard states reused across batches
	if sp.Release != nil {
		// At most e.workers shards ever exist per point, and after every
		// batch's wg.Wait each one sits in the idle channel (capacity ==
		// workers, so the non-blocking put never drops), so draining idle
		// here hands every shard back exactly once.
		defer func() {
			for {
				select {
				case sh := <-idle:
					sp.Release(sh)
				default:
					return
				}
			}
		}()
	}
	for res.Trials < sp.Trials {
		hi := sp.Trials
		if e.cfg.TargetRelWidth > 0 {
			// Deterministic checkpoints: minTrials, then doubling.
			next := e.minTrials
			for next <= res.Trials {
				next *= 2
			}
			if next < hi {
				hi = next
			}
		}
		failures, aux, err := e.runBatch(ctx, sp, idle, pointNs, res.Trials, hi)
		if err != nil {
			return res, fmt.Errorf("mc: point %d (id %d): %w", idx, sp.ID, err)
		}
		res.Trials = hi
		res.Failures += failures
		res.Aux += aux
		done := res.Trials >= sp.Trials
		if !done && e.cfg.TargetRelWidth > 0 && res.Failures > 0 {
			lo, hiCI := e.cfg.Interval(res.Failures, res.Trials)
			rate := float64(res.Failures) / float64(res.Trials)
			done = hiCI-lo <= e.cfg.TargetRelWidth*rate
		}
		if e.cfg.Progress != nil {
			p := Progress{
				Point: idx, ID: sp.ID, Trials: res.Trials, Target: sp.Trials,
				Failures: res.Failures, Done: done,
			}
			if pointNs != nil {
				p.TrialNs = pointNs.Snapshot().Summary()
			}
			e.mu.Lock()
			e.cfg.Progress(p)
			e.mu.Unlock()
		}
		if done {
			break
		}
	}
	return res, nil
}

type shardTally struct {
	failures int
	aux      int64
	err      error
}

// shardTask is one shard's slot in the scheduler: a preallocated
// sched.Task whose Run executes trials [lo, hi) and writes the tally
// into its own result slot, so submission allocates nothing per shard
// beyond the batch's two slices.
type shardTask struct {
	e       *engine
	ctx     context.Context
	sp      *PointSpec
	idle    chan Shard
	pointNs *obs.Histogram
	lo, hi  int
	out     *shardTally
	wg      *sync.WaitGroup
}

// Run implements sched.Task.
func (t *shardTask) Run() {
	defer t.wg.Done()
	*t.out = t.e.runShard(t.ctx, *t.sp, t.idle, t.pointNs, t.lo, t.hi)
}

// runBatch fans trials [lo, hi) out over the worker pool and waits for
// the whole batch. Shard errors are joined in shard order, so the
// reported error set does not depend on scheduling.
func (e *engine) runBatch(ctx context.Context, sp PointSpec, idle chan Shard, pointNs *obs.Histogram, lo, hi int) (failures int, aux int64, err error) {
	size := sp.ShardSize
	if size <= 0 {
		size = e.cfg.ShardSize
	}
	if size <= 0 {
		// A few tasks per worker evens out stragglers while keeping
		// shard-state reuse worthwhile.
		size = (hi - lo + 4*e.workers - 1) / (4 * e.workers)
		if size < 1 {
			size = 1
		}
	}
	n := (hi - lo + size - 1) / size
	tallies := make([]shardTally, n)
	tasks := make([]shardTask, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for s := 0; s < n; s++ {
		a := lo + s*size
		b := a + size
		if b > hi {
			b = hi
		}
		tasks[s] = shardTask{
			e: e, ctx: ctx, sp: &sp, idle: idle, pointNs: pointNs,
			lo: a, hi: b, out: &tallies[s], wg: &wg,
		}
		// Submission never blocks (deques are unbounded), so a canceled
		// context is handled inside runShard: every shard checks ctx
		// before acquiring state and reports ctx.Err() uniformly.
		e.pool.Submit(&tasks[s])
	}
	wg.Wait()
	var errs []error
	seen := map[string]bool{}
	for _, t := range tallies {
		failures += t.failures
		aux += t.aux
		// Identical messages collapse to one: when every shard fails the
		// same way (e.g. NewShard rejects the point's config), the point
		// reports the failure once, not once per shard.
		if t.err != nil && !seen[t.err.Error()] {
			seen[t.err.Error()] = true
			errs = append(errs, t.err)
		}
	}
	return failures, aux, errors.Join(errs...)
}

// runShard executes trials [lo, hi) on one shard state, w trials per
// call: w is the shard's BatchSize when Config.Batch is set and the
// shard is a BatchShard wider than one lane, else 1. Each trial's
// counter-based stream is reset before the call, so the chunk width
// never perturbs the randomness. A one-wide chunk is one Trial call; a
// wider one is one TrialBatch call. With telemetry enabled each call's
// wall clock is split evenly across its trials into a shard-private
// obs.Local, merged into the point-level and process-level histograms
// when the shard finishes: the per-trial mean and totals are exact, the
// within-chunk spread is unobservable, and the streams are untouched,
// so results stay bit-identical with and without Obs.
func (e *engine) runShard(ctx context.Context, sp PointSpec, idle chan Shard, pointNs *obs.Histogram, lo, hi int) (out shardTally) {
	if err := ctx.Err(); err != nil {
		out.err = err
		return
	}
	var sh Shard
	select {
	case sh = <-idle:
	default:
		var err error
		sh, err = sp.NewShard()
		if err != nil {
			out.err = err
			return
		}
	}
	defer func() {
		select {
		case idle <- sh:
		default:
		}
	}()
	var rec *obs.Local
	if pointNs != nil {
		rec = obs.NewLocal(0, e.obsTrialNs, pointNs)
		defer rec.Flush()
	}
	// Engine counters advance as each shard retires (not at point
	// checkpoints), so a scrape during a long fixed-budget batch sees
	// trial counts move together with the latency histograms.
	trialsDone := 0
	defer func() {
		if e.obsTrials != nil {
			e.obsTrials.Add(int64(trialsDone))
			e.obsFailures.Add(int64(out.failures))
		}
	}()
	w, bs := 1, BatchShard(nil)
	if b, ok := sh.(BatchShard); ok && e.cfg.Batch && b.BatchSize() > 1 {
		w, bs = b.BatchSize(), b
	}
	srcs := make([]*Stream, w)
	rngs := make([]*rand.Rand, w)
	for i := range srcs {
		srcs[i] = NewStream(e.cfg.RootSeed, sp.ID, int64(lo+i))
		rngs[i] = rand.New(srcs[i])
	}
	outs := make([]Outcome, w)
	sinceCheck := cancelCheckEvery
	for t := lo; t < hi; t += w {
		if sinceCheck >= cancelCheckEvery {
			sinceCheck = 0
			if ctx.Err() != nil {
				out.err = ctx.Err()
				return
			}
		}
		n := min(w, hi-t)
		for i := 0; i < n; i++ {
			srcs[i].Reset(e.cfg.RootSeed, sp.ID, int64(t+i))
		}
		var start time.Time
		if rec != nil {
			start = time.Now()
		}
		var err error
		if bs != nil {
			err = bs.TrialBatch(rngs[:n], t, outs[:n])
		} else {
			outs[0], err = sh.Trial(rngs[0], t)
		}
		if rec != nil {
			per := uint64(time.Since(start)) / uint64(n)
			for i := 0; i < n; i++ {
				rec.Observe(per)
			}
		}
		if err != nil {
			if n == 1 {
				out.err = fmt.Errorf("trial %d: %w", t, err)
			} else {
				out.err = fmt.Errorf("trials %d..%d: %w", t, t+n-1, err)
			}
			return
		}
		for _, o := range outs[:n] {
			if o.Failed {
				out.failures++
			}
			out.aux += o.Aux
		}
		sinceCheck += n
		trialsDone += n
	}
	return out
}
