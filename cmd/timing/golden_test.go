package main

import (
	"testing"

	"repro/internal/golden"
)

func TestGolden(t *testing.T) {
	golden.Check(t, "timing", run,
		[]string{"-cycles", "1000", "-distances", "3,5", "-rates", "0.03,0.06"})
}
