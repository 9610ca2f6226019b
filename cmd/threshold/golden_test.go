package main

import (
	"testing"

	"repro/internal/golden"
)

func TestGolden(t *testing.T) {
	golden.Check(t, "threshold", run,
		[]string{"-distances", "3,5", "-rates", "0.03,0.06", "-cycles", "2000"},
		[]string{"-distances", "3,5", "-rates", "0.03,0.06", "-cycles", "2000", "-batch"})
}
