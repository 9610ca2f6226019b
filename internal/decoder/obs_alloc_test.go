package decoder_test

import (
	"testing"

	"repro/internal/decodepool"
	"repro/internal/decoder/greedy"
	"repro/internal/decoder/mwpm"
	"repro/internal/decoder/unionfind"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/sfq"
)

// Attaching telemetry to a scratch must not break the zero-allocation
// steady state: the sampled timing path (histogram Observe + counter
// Add) allocates nothing, both at the default 1-in-16 sampling rate and
// when every single decode is timed.
func TestInstrumentedDecodeIntoZeroAllocSteadyState(t *testing.T) {
	if decodepool.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	l := lattice.MustNew(9)
	g := l.MatchingGraph(lattice.ZErrors)
	rng := noise.NewRand(43)
	syns := make([][]bool, 32)
	for i := range syns {
		syns[i] = randomSyndrome(rng, l, g, 0.05)
	}
	for _, every := range []int{0, 1} { // 0 = default 1-in-16; 1 = time every decode
		for _, dec := range []decodepool.IntoDecoder{greedy.New(), mwpm.New(), unionfind.New()} {
			s := decodepool.NewScratch()
			s.Instrument(obs.NewHistogram(), obs.Default().Counter("decoder_test_decodes_total"), every)
			for _, syn := range syns {
				if _, err := dec.DecodeInto(g, syn, s); err != nil {
					t.Fatalf("%s: warm-up: %v", dec.Name(), err)
				}
			}
			i := 0
			avg := testing.AllocsPerRun(len(syns)*4, func() {
				if _, err := dec.DecodeInto(g, syns[i%len(syns)], s); err != nil {
					t.Fatalf("%s: %v", dec.Name(), err)
				}
				i++
			})
			if avg != 0 {
				t.Errorf("%s d=9 every=%d: %v allocs per instrumented decode, want 0", dec.Name(), every, avg)
			}
		}
	}
}

// The batched decode entry point must hold the same zero-allocation
// steady state with telemetry attached: the SWAR batch kernel records
// per-lane cycle histograms into its own flushed recorder while its
// caller's scratch is instrumented.
func TestInstrumentedBatchDecodeZeroAllocSteadyState(t *testing.T) {
	if decodepool.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	l := lattice.MustNew(9)
	g := l.MatchingGraph(lattice.ZErrors)
	rng := noise.NewRand(44)
	syns := make([][]bool, 12)
	for i := range syns {
		syns[i] = randomSyndrome(rng, l, g, 0.05)
	}
	var dec decodepool.BatchDecoder = sfq.NewBatch(g, sfq.Final)
	s := decodepool.NewScratch()
	s.Instrument(obs.NewHistogram(), obs.Default().Counter("decoder_test_batch_decodes_total"), 1)
	for i := 0; i < 4; i++ { // warm-up grows the arenas to steady state
		if _, err := dec.DecodeBatchInto(g, syns, s); err != nil {
			t.Fatalf("%s: warm-up: %v", dec.Name(), err)
		}
	}
	avg := testing.AllocsPerRun(64, func() {
		if _, err := dec.DecodeBatchInto(g, syns, s); err != nil {
			t.Fatalf("%s: %v", dec.Name(), err)
		}
	})
	if avg != 0 {
		t.Errorf("%s d=9: %v allocs per instrumented batch call, want 0", dec.Name(), avg)
	}
}
