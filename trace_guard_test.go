package repro_test

import (
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"repro/internal/decodepool"
	"repro/internal/knob"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sfq"
)

// TestTraceOverheadGuard pins the flight recorder's cost on the serve
// pipeline: at the default 1-in-16 sampling, a traced server must stay
// within 2% of a tracing-off server on the same sequential decode
// workload. Both servers observe the stage histograms and pay the
// per-batch coalesce read; the budget holds because tracing itself is
// clock-read frugal — the accept stamp shares submit's time.Now with
// the arrival meter, the batch stamps reuse the reads the stage
// histograms and the service-time signal already pay for, and only the
// response write adds one. Opt-in with the same
// REPRO_OBS_GUARD knob as the telemetry guard; the comparison is a
// median of per-round paired ratios for the noise reasons below.
func TestTraceOverheadGuard(t *testing.T) {
	if !knob.Bool("REPRO_OBS_GUARD") {
		t.Skip("timing guard; set REPRO_OBS_GUARD=1 to run")
	}
	if decodepool.RaceEnabled {
		t.Skip("timing is not meaningful under -race")
	}
	l := lattice.MustNew(9)
	g := l.MatchingGraph(lattice.ZErrors)
	syndromes := hotPathSyndromes(t, l, g, 64, 109)

	newServer := func(traceSample int) *serve.Server {
		return serve.New(serve.Config{
			Variant: sfq.Final, Distances: []int{9},
			Registry:    obs.NewRegistry(),
			TraceSample: traceSample,
		})
	}
	traced := newServer(16) // the default sampling period, pinned explicitly
	defer traced.Close()
	plain := newServer(-1)
	defer plain.Close()

	loop := func(s *serve.Server) time.Duration {
		const reps = 16
		start := time.Now()
		for i := 0; i < reps*len(syndromes); i++ {
			if resp := s.Decode(9, lattice.ZErrors, uint64(i), syndromes[i%len(syndromes)]); resp.Status != serve.StatusOK {
				t.Fatalf("decode %d: %+v", i, resp)
			}
		}
		return time.Since(start)
	}
	loop(plain) // warm both servers' meshes, scratch and queues
	loop(traced)

	// A 2% wall-clock gate cannot coexist with GC pacing noise: a
	// collection landing inside one side's rounds but not the other's
	// swamps the effect being measured. Park the collector for the
	// measured region (a few tens of MB of short-lived responses).
	restore := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(restore)
	runtime.GC()

	// Noise on a shared machine is bursty and can sit on one side of a
	// min-of-rounds comparison for several rounds. Pairing instead:
	// each round measures both servers back to back and contributes one
	// ratio — a temporally adjacent A/B pair is the quantity the gate
	// is actually about. Contention only ever inflates a round's ratio
	// (whichever side the burst lands on loses), while a real tracing
	// regression is present in every round including the quietest, so
	// the gate reads a low order statistic: the 3rd smallest of 9
	// discards contaminated rounds without hiding a true cost.
	ratios := make([]float64, 0, 9)
	for round := 0; round < cap(ratios); round++ {
		p := loop(plain)
		tr := loop(traced)
		ratios = append(ratios, float64(tr)/float64(p))
	}
	sort.Float64s(ratios)
	ratio := ratios[2]
	t.Logf("paired round ratios %.4f, gate reads %.4f", ratios, ratio)
	if ratio > 1.02 {
		t.Errorf("traced serve path is %.1f%% slower than tracing-off, want <= 2%%", (ratio-1)*100)
	}
}
