package surface

import (
	"testing"

	"repro/internal/decoder/greedy"
	"repro/internal/noise"
)

// Reset clears the carried residual frame: a reset simulator with a
// rewound stream replays its first run exactly.
func TestResetReplaysRun(t *testing.T) {
	cfg := Config{Distance: 3, Channel: dephasing(0.08), DecoderZ: greedy.New(), Seed: 5}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sim.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	sim.Reset()
	sim.SetRand(noise.NewRand(5))
	again, err := sim.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Errorf("reset simulator diverged: %+v vs %+v", first, again)
	}
}
