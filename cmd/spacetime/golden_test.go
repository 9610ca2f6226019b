package main

import (
	"testing"

	"repro/internal/golden"
)

func TestGolden(t *testing.T) {
	golden.Check(t, "spacetime", run,
		[]string{"-method", "exact", "-distances", "3,5", "-blocks", "800", "-qs", "0,0.01"},
		[]string{"-method", "greedy", "-distances", "3,5", "-blocks", "800", "-qs", "0,0.01"})
}
