package main

import (
	"testing"

	"repro/internal/golden"
)

func TestGolden(t *testing.T) {
	golden.Check(t, "sqv", run,
		[]string{"-empirical", "-emp-trials", "60"})
}
