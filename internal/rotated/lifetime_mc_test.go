package rotated

import (
	"context"
	"testing"
)

// LifetimeMC is bit-identical for any worker count.
func TestLifetimeMCWorkerInvariance(t *testing.T) {
	c, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) Result {
		res, err := c.LifetimeMC(context.Background(), 0.05, 2000, Greedy, 13, workers)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	if ref.Cycles != 2000 {
		t.Fatalf("accounting wrong: %+v", ref)
	}
	if ref.LogicalErrors == 0 {
		t.Fatal("no logical errors at p=0.05; invariance check is vacuous")
	}
	for _, w := range []int{2, 8} {
		if got := run(w); got != ref {
			t.Errorf("workers=%d: %+v, want %+v", w, got, ref)
		}
	}
}
