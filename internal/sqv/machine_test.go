package sqv

import (
	"context"
	"testing"

	"repro/internal/decoder"
	"repro/internal/decoder/greedy"
)

func TestMachineSimValidation(t *testing.T) {
	mk := func(d int) decoder.Decoder { return greedy.New() }
	if _, err := NewMachineSim(SimConfig{LogicalQubits: 0, Distance: 3, P: 0.05, NewDecoderZ: mk}); err == nil {
		t.Error("zero qubits accepted")
	}
	if _, err := NewMachineSim(SimConfig{LogicalQubits: 1, Distance: 3, P: 0.05}); err == nil {
		t.Error("nil decoder factory accepted")
	}
	if _, err := NewMachineSim(SimConfig{LogicalQubits: 1, Distance: 4, P: 0.05, NewDecoderZ: mk}); err == nil {
		t.Error("even distance accepted")
	}
	m, err := NewMachineSim(SimConfig{LogicalQubits: 1, Distance: 3, P: 0.05, NewDecoderZ: mk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MeanCyclesToFailure(context.Background(), 0, 10); err == nil {
		t.Error("zero trials accepted")
	}
}

// The analytic claim behind Fig. 1: a K-tile machine's gate budget
// scales like 1/K — doubling the logical qubits roughly halves the
// cycles to first failure.
func TestBudgetScalesInverselyWithTiles(t *testing.T) {
	mk := func(d int) decoder.Decoder { return greedy.New() }
	mean := func(k int, seed int64) float64 {
		m, err := NewMachineSim(SimConfig{
			LogicalQubits: k, Distance: 3, P: 0.06, NewDecoderZ: mk, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		v, err := m.MeanCyclesToFailure(context.Background(), 120, 4000)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	one := mean(1, 5)
	four := mean(4, 6)
	ratio := one / four
	if ratio < 2 || ratio > 8 {
		t.Errorf("1-tile/4-tile budget ratio %.2f, want ~4", ratio)
	}
}

// A trial with no failure counts the cap: when no tile fails, the mean
// equals maxCycles.
func TestCyclesToFailureCap(t *testing.T) {
	mk := func(d int) decoder.Decoder { return greedy.New() }
	m, err := NewMachineSim(SimConfig{
		LogicalQubits: 1, Distance: 5, P: 0.001, NewDecoderZ: mk, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mean, err := m.MeanCyclesToFailure(context.Background(), 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if mean != 50 {
		t.Errorf("cap not honored: mean %v, want 50", mean)
	}
}
