package sqv

import (
	"context"
	"testing"

	"repro/internal/decoder"
	"repro/internal/decoder/greedy"
)

// The machine simulation is bit-identical for any worker count — the
// cross-worker determinism contract of the shared engine.
func TestMeanCyclesWorkerInvariance(t *testing.T) {
	run := func(workers int) float64 {
		m, err := NewMachineSim(SimConfig{
			LogicalQubits: 2, Distance: 3, P: 0.06,
			NewDecoderZ: func(d int) decoder.Decoder { return greedy.New() },
			Seed:        11, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		v, err := m.MeanCyclesToFailure(context.Background(), 300, 2000)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	ref := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); got != ref {
			t.Errorf("workers=%d: mean %v, want %v", w, got, ref)
		}
	}
}
