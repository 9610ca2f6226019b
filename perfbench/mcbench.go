package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/decoder/mwpm"
	"repro/internal/lattice"
	"repro/internal/mc"
	"repro/internal/noise"
	"repro/internal/pauli"
	"repro/internal/sched"
	"repro/internal/sfq"
	"repro/internal/stats"
	"repro/internal/surface"
	"repro/internal/twolevel"
)

// mcDistances are the code distances of every Monte-Carlo sweep point.
var mcDistances = []int{5, 9, 13}

// mcWorkload is one lifetime sweep: dephasing at rate p over
// mcDistances, trials per point per round.
type mcWorkload struct {
	name   string
	p      float64
	batch  bool // SWAR sfq.BatchMesh through the engine's batch path; else two-level over a scalar sfq.Mesh
	trials int
}

// mcGolden pins the fixed-seed check sweep (goldenSeed, goldenTrials
// per point): failures per distance, in mcDistances order. The engine is
// bit-identical across worker counts, shard shapes and kernels, so these
// hold on any machine.
var mcGolden = map[string][]int{
	"mc_batch":    {213, 163, 152},
	"mc_twolevel": {419, 536, 567},
}

const (
	goldenSeed   = 1
	goldenTrials = 4096
	// crossTrials is the per-point budget of the cross-path check: the
	// run's own seed through the workload's path and through the other
	// kernel shape must give identical tallies.
	crossTrials = 2048
	// warmTrials is the per-point budget of the set-up sweep, enough for
	// every worker to build a shard (simulator + mesh) of every point.
	warmTrials = 64
)

// hotThreshold is the two-level escalation trigger of cmd/compare
// -frontier: about 30% of the distance's checks hot.
func hotThreshold(pool *sfq.Pool, d int) int {
	return (3*pool.Graph(d, lattice.ZErrors).NumChecks() + 5) / 10
}

// callRec is one timed engine call: a Trial, or a TrialBatch of n trials.
// The per-call timing costs two clock reads against tens of µs per call.
type callRec struct {
	start, end int64 // ns since the phase base
	n          int32
}

// decodeRec is one traced decode: the two-level decode span, its
// level-2 child, the level-1 mesh cycles and the escalation verdict; or
// one replayed batch decode with its sampling span.
type decodeRec struct {
	trial      int32 // index of the parent callRec in its shard
	start, end int64
	l2s, l2e   int64 // level-2 span; zero when not escalated
	sampS      int64 // batch replay: syndrome sampling span start (ends at start)
	lanes      int32
	cycles     int64 // mesh cycles summed over lanes
	escalated  int32
}

// mcRig builds and runs one workload's sweeps. It times every engine
// call in every run, so the untraced half of a traced run is an untraced
// run; when traced it also records per-decode spans from decorators
// around the decoders.
type mcRig struct {
	w       mcWorkload
	pool    *sfq.Pool
	workers int
	seed    int64
	traced  bool
	base    time.Time

	mu     sync.Mutex
	shards []*timedShard // every shard built this phase, harvested after
}

func newMCRig(w mcWorkload, seed int64) *mcRig {
	return &mcRig{w: w, pool: sfq.NewPool(sfq.Final), workers: runtime.GOMAXPROCS(0), seed: seed}
}

// specs builds the sweep's point specs with the given per-point budget.
// Shards are wrapped in timedShard, which times each engine call; the
// traced rig also decorates each decoder.
func (r *mcRig) specs(trials int, batch bool) []mc.PointSpec {
	var specs []mc.PointSpec
	for _, d := range mcDistances {
		d := d
		id := stats.PointID(d, r.w.p)
		pol := twolevel.DefaultPolicy()
		pol.HotThreshold = hotThreshold(r.pool, d)
		release := stats.ReleaseDecoders(r.pool.Release)
		specs = append(specs, mc.PointSpec{
			ID:     id,
			Trials: trials,
			NewShard: func() (mc.Shard, error) {
				ts := &timedShard{rig: r, id: id}
				inner, err := stats.LifetimeSpec(id, trials, 0, func() (surface.Config, error) {
					return r.buildConfig(d, batch, pol, ts)
				}).NewShard()
				if err != nil {
					return nil, err
				}
				ts.inner = inner.(mc.BatchShard)
				r.mu.Lock()
				r.shards = append(r.shards, ts)
				r.mu.Unlock()
				return ts, nil
			},
			Release: func(sh mc.Shard) { release(sh.(*timedShard).inner) },
		})
	}
	return specs
}

// buildConfig is one shard's simulator configuration: the production
// decoder for the workload, decorated when the rig is traced.
func (r *mcRig) buildConfig(d int, batch bool, pol twolevel.Policy, ts *timedShard) (surface.Config, error) {
	ch, err := noise.NewDephasing(r.w.p)
	if err != nil {
		return surface.Config{}, err
	}
	cfg := surface.Config{Distance: d, Channel: ch}
	switch {
	case batch && r.w.batch:
		cfg.DecoderZ = r.pool.GetBatch(d, lattice.ZErrors)
		if r.traced {
			ts.replay = newReplay(r.pool, d, r.w.p)
		}
	case batch:
		cfg.DecoderZ = twolevel.NewBatch(r.pool.GetBatch(d, lattice.ZErrors), mwpm.New(), pol)
	case r.w.batch:
		cfg.DecoderZ = r.pool.Get(d, lattice.ZErrors)
	case r.traced:
		l2 := &timedL2{inner: mwpm.New(), shard: ts}
		tl := twolevel.New(r.pool.Get(d, lattice.ZErrors), l2, pol)
		cfg.DecoderZ = &timedDecoder{tl: tl, l2: l2, shard: ts}
	default:
		cfg.DecoderZ = twolevel.New(r.pool.Get(d, lattice.ZErrors), mwpm.New(), pol)
	}
	return cfg, nil
}

// run executes one sweep and returns its per-point tallies and the
// scheduler counters.
func (r *mcRig) run(ctx context.Context, trials int, batch bool, seed int64) ([]mc.Result, sched.Stats, error) {
	var ss sched.Stats
	res, err := mc.Run(ctx, mc.Config{
		RootSeed: seed, Workers: r.workers, Batch: batch, SchedStats: &ss,
	}, r.specs(trials, batch))
	return res, ss, err
}

// harvest returns and forgets every shard built since the last harvest.
func (r *mcRig) harvest() []*timedShard {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.shards
	r.shards = nil
	return out
}

// timedShard wraps one lifetime shard, timing every engine call.
type timedShard struct {
	rig   *mcRig
	inner mc.BatchShard
	id    int64

	calls   []callRec
	replay  *replay // traced batch replay, or nil
	decodes []decodeRec
}

func (s *timedShard) now() int64 { return int64(time.Since(s.rig.base)) }

// Trial implements mc.Shard.
func (s *timedShard) Trial(rng *rand.Rand, t int) (mc.Outcome, error) {
	start := s.now()
	o, err := s.inner.Trial(rng, t)
	s.calls = append(s.calls, callRec{start: start, end: s.now(), n: 1})
	return o, err
}

// BatchSize implements mc.BatchShard.
func (s *timedShard) BatchSize() int { return s.inner.BatchSize() }

// TrialBatch implements mc.BatchShard. A traced batch shard then
// replays the chunk's syndromes through a private batch mesh, because
// the simulator only accepts a concrete *sfq.BatchMesh and its decode
// cannot be decorated in place.
func (s *timedShard) TrialBatch(rngs []*rand.Rand, lo int, out []mc.Outcome) error {
	start := s.now()
	err := s.inner.TrialBatch(rngs, lo, out)
	s.calls = append(s.calls, callRec{start: start, end: s.now(), n: int32(len(rngs))})
	if err != nil || s.replay == nil {
		return err
	}
	rec, err := s.replay.run(s, lo, len(rngs))
	s.decodes = append(s.decodes, rec)
	return err
}

// timedDecoder decorates a scalar two-level decoder: it implements the
// same decodepool.IntoDecoder face, so the simulator drives it exactly
// as it would the bare decoder, and records one span per decode.
type timedDecoder struct {
	tl    *twolevel.Decoder
	l2    *timedL2
	shard *timedShard
}

// Name implements decoder.Decoder.
func (t *timedDecoder) Name() string { return t.tl.Name() }

// Level1 exposes the pooled mesh, so stats.ReleaseDecoders recycles it.
func (t *timedDecoder) Level1() decoder.Decoder { return t.tl.Level1() }

// Decode implements decoder.Decoder.
func (t *timedDecoder) Decode(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
	return t.DecodeInto(g, syn, decodepool.NewScratch())
}

// DecodeInto implements decodepool.IntoDecoder.
func (t *timedDecoder) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	t.l2.start, t.l2.end = 0, 0
	start := t.shard.now()
	c, err := t.tl.DecodeInto(g, syn, s)
	rec := decodeRec{
		trial: int32(len(t.shard.calls)), start: start, end: t.shard.now(),
		l2s: t.l2.start, l2e: t.l2.end, lanes: 1, cycles: int64(t.tl.MeshStats(0).Cycles),
	}
	if t.tl.Escalated(0) {
		rec.escalated = 1
	}
	t.shard.decodes = append(t.shard.decodes, rec)
	return c, err
}

// timedL2 decorates the level-2 MWPM decoder, stamping the span of its
// most recent call (zero when it did not run).
type timedL2 struct {
	inner      decodepool.IntoDecoder
	shard      *timedShard
	start, end int64
}

// Name implements decoder.Decoder.
func (t *timedL2) Name() string { return t.inner.Name() }

// Decode implements decoder.Decoder.
func (t *timedL2) Decode(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
	return t.inner.Decode(g, syn)
}

// DecodeInto implements decodepool.IntoDecoder.
func (t *timedL2) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	t.start = t.shard.now()
	c, err := t.inner.DecodeInto(g, syn, s)
	t.end = t.shard.now()
	return c, err
}

// replay re-derives one batch chunk's syndromes from its trial streams
// and times a batch-mesh decode of them.
type replay struct {
	bm    *sfq.BatchMesh
	g     *lattice.Graph
	ch    noise.Channel
	data  []int
	frame *pauli.Frame
	syns  [][]bool
	s     *decodepool.Scratch
}

func newReplay(pool *sfq.Pool, d int, p float64) *replay {
	l := lattice.MustNew(d)
	ch, _ := noise.NewDephasing(p) // p was validated by the shard's own channel
	rp := &replay{
		g: pool.Graph(d, lattice.ZErrors), ch: ch,
		frame: pauli.NewFrame(l.NumQubits()), s: decodepool.NewScratch(),
	}
	rp.bm = sfq.NewBatch(rp.g, sfq.Final)
	for _, site := range l.DataSites() {
		rp.data = append(rp.data, l.QubitIndex(site))
	}
	return rp
}

func (rp *replay) run(s *timedShard, lo, n int) (decodeRec, error) {
	rec := decodeRec{trial: int32(len(s.calls) - 1), sampS: s.now(), lanes: int32(n)}
	for len(rp.syns) < n {
		rp.syns = append(rp.syns, make([]bool, rp.g.NumChecks()))
	}
	// The same per-trial stream the engine handed the simulator: the
	// channel sample is the first thing a lifetime trial draws.
	for i := 0; i < n; i++ {
		rp.frame.Clear()
		rp.ch.Sample(mc.NewRand(s.rig.seed, s.id, int64(lo+i)), rp.frame, rp.data)
		rp.syns[i] = rp.g.SyndromeInto(rp.frame, rp.syns[i])
	}
	rec.start = s.now()
	if _, err := rp.bm.DecodeBatchInto(rp.g, rp.syns[:n], rp.s); err != nil {
		return rec, fmt.Errorf("replayed batch decode: %w", err)
	}
	rec.end = s.now()
	for i := 0; i < n; i++ {
		rec.cycles += int64(rp.bm.LaneStats(i).Cycles)
	}
	return rec, nil
}

// roundStat is one timed sweep round, summarized when it ends so that
// memory use does not grow with run length.
type roundStat struct {
	wall, cpu  time.Duration
	steal      time.Duration // per-CPU share of the machine's steal time
	trials     int
	steals     uint64
	parks      uint64
	busyNs     float64 // summed engine-call time
	trialP50Us float64 // median per-trial share of engine-call time
}

// summarize fills the call statistics of a round from its shards.
func (rs *roundStat) summarize(shards []*timedShard) {
	var perTrial samples
	for _, sh := range shards {
		for _, c := range sh.calls {
			d := float64(c.end - c.start)
			rs.busyNs += d
			for i := int32(0); i < c.n; i++ {
				perTrial = append(perTrial, d/float64(c.n)/1e3)
			}
		}
	}
	rs.trialP50Us = perTrial.sorted().pct(0.5)
}

// mcPhase is the outcome of one measurement phase: rounds run until the
// phase's time budget is spent.
type mcPhase struct {
	rounds   []roundStat
	shards   []*timedShard // traced phase only: every shard, for spans
	first    []mc.Result
	mismatch int // trials in points whose tally differed from round 1
	allocB   uint64
	gcCycles uint32
	trials   int
}

// series returns the phase's per-round throughput (trials per second
// the machine was running this VM: wall time less its share of steal
// time) and CPU cost (µs per trial).
func (ph *mcPhase) series() (rate, cpu []float64) {
	for _, r := range ph.rounds {
		rate = append(rate, float64(r.trials)/(r.wall-r.steal).Seconds())
		cpu = append(cpu, float64(r.cpu.Microseconds())/float64(r.trials))
	}
	return rate, cpu
}

// measure runs identical rounds of the sweep until budget is spent.
// Every round must reproduce the first round's tallies exactly.
func (r *mcRig) measure(ctx context.Context, budget time.Duration, traced bool) (*mcPhase, error) {
	r.traced = traced
	r.base = time.Now()
	r.harvest()
	ph := &mcPhase{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for time.Since(r.base) < budget {
		t0, c0, s0 := time.Now(), selfCPU(), stealTime()
		res, ss, err := r.run(ctx, r.w.trials, r.w.batch, r.seed)
		if err != nil {
			return nil, err
		}
		rs := roundStat{wall: time.Since(t0), cpu: selfCPU() - c0, steals: ss.Steals, parks: ss.Parks,
			steal: (stealTime() - s0) / time.Duration(runtime.NumCPU())}
		for i, pr := range res {
			rs.trials += pr.Trials
			if ph.first != nil && pr != ph.first[i] {
				ph.mismatch += pr.Trials
			}
		}
		if ph.first == nil {
			ph.first = res
		}
		shards := r.harvest()
		rs.summarize(shards)
		if traced {
			ph.shards = append(ph.shards, shards...)
		}
		ph.rounds = append(ph.rounds, rs)
		ph.trials += rs.trials
	}
	runtime.ReadMemStats(&m1)
	ph.allocB = m1.TotalAlloc - m0.TotalAlloc
	ph.gcCycles = m1.NumGC - m0.NumGC
	r.traced = false
	return ph, nil
}

// mcSetup is the workload's set-up: pool, geometry and a first sweep
// that builds a shard of every point on every worker.
func mcSetup(ctx context.Context, w mcWorkload, seed int64) (*mcRig, time.Duration, error) {
	start := time.Now()
	r := newMCRig(w, seed)
	if _, _, err := r.run(ctx, warmTrials, w.batch, seed); err != nil {
		return nil, 0, fmt.Errorf("set-up sweep: %w", err)
	}
	r.harvest()
	return r, time.Since(start), nil
}

// mcChecks runs the output checks after measurement: the fixed-seed
// golden sweep, and the run's own seed through both kernel shapes. It
// returns the number of trials in disagreeing points and a description
// of each disagreement.
func (r *mcRig) checks(ctx context.Context) (int, []string, error) {
	bad, notes := 0, []string(nil)
	gold, _, err := r.run(ctx, goldenTrials, r.w.batch, goldenSeed)
	if err != nil {
		return 0, nil, err
	}
	for i, pr := range gold {
		if want := mcGolden[r.w.name][i]; pr.Failures != want {
			bad += pr.Trials
			notes = append(notes, fmt.Sprintf("golden d=%d: %d failures, want %d", mcDistances[i], pr.Failures, want))
		}
	}
	a, _, err := r.run(ctx, crossTrials, r.w.batch, r.seed)
	if err != nil {
		return 0, nil, err
	}
	b, _, err := r.run(ctx, crossTrials, !r.w.batch, r.seed)
	if err != nil {
		return 0, nil, err
	}
	for i := range a {
		if a[i] != b[i] {
			bad += a[i].Trials
			notes = append(notes, fmt.Sprintf("cross-path d=%d: %+v vs %+v", mcDistances[i], a[i], b[i]))
		}
	}
	r.harvest()
	return bad, notes, nil
}
