package main

import (
	"testing"

	"repro/internal/golden"
)

func TestGolden(t *testing.T) {
	golden.Check(t, "compare", run, []string{"-distances", "3", "-cycles", "3000"})
}
