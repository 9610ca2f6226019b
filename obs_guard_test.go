package repro_test

import (
	"testing"
	"time"

	"repro/internal/decodepool"
	"repro/internal/decoder/greedy"
	"repro/internal/knob"
	"repro/internal/lattice"
	"repro/internal/obs"
)

// TestObsOverheadGuard pins the cost of instrumenting the decode hot
// path: with the default 1-in-16 latency sampling, decodes through
// decodepool.Decode (where Scratch.Instrument's sampling lives) with
// the scratch instrumented must stay within 5% of the same calls with
// it plain. Both sides time one scratch, its instrumentation toggled
// between rounds: two scratch objects differ in memory layout, which
// alone moves identical work by more than the budget. The guard is
// opt-in (REPRO_OBS_GUARD=1, set by ci.sh) because wall-clock ratios
// are too noisy for an always-on unit test; min-of-rounds with
// interleaved measurement keeps the comparison stable when it does run.
func TestObsOverheadGuard(t *testing.T) {
	if !knob.Bool("REPRO_OBS_GUARD") {
		t.Skip("timing guard; set REPRO_OBS_GUARD=1 to run")
	}
	if decodepool.RaceEnabled {
		t.Skip("timing is not meaningful under -race")
	}
	l := lattice.MustNew(9)
	g := l.MatchingGraph(lattice.ZErrors)
	syndromes := hotPathSyndromes(t, l, g, 64, 109)
	dec := greedy.New()

	scr := decodepool.NewScratch()
	hist := obs.NewHistogram()
	loop := func(instrumented bool) time.Duration {
		if instrumented {
			scr.Instrument(hist, nil, 0)
		} else {
			scr.Instrument(nil, nil, 0)
		}
		const reps = 400
		start := time.Now()
		for i := 0; i < reps*len(syndromes); i++ {
			if _, err := decodepool.Decode(dec, g, syndromes[i%len(syndromes)], scr); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	loop(false) // warm caches and scratch growth for both sides
	loop(true)

	// Interleave rounds and keep each side's minimum: the minimum is
	// the least-noisy estimator of the true cost, and interleaving
	// cancels slow drift (thermal, scheduler) between the two sides.
	minPlain, minInst := time.Duration(1<<62), time.Duration(1<<62)
	for round := 0; round < 7; round++ {
		if d := loop(false); d < minPlain {
			minPlain = d
		}
		if d := loop(true); d < minInst {
			minInst = d
		}
	}
	ratio := float64(minInst) / float64(minPlain)
	t.Logf("plain %v, instrumented %v, ratio %.4f", minPlain, minInst, ratio)
	if ratio > 1.05 {
		t.Errorf("instrumented decode path is %.1f%% slower than plain, want <= 5%%", (ratio-1)*100)
	}
}
