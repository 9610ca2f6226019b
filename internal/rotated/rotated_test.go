package rotated

import (
	"context"
	"testing"

	"repro/internal/noise"
	"repro/internal/pauli"
)

func TestNewValidation(t *testing.T) {
	for _, d := range []int{0, 2, 4} {
		if _, err := New(d); err == nil {
			t.Errorf("New(%d) accepted", d)
		}
	}
}

func TestCounts(t *testing.T) {
	for _, d := range []int{3, 5, 7, 9} {
		c, err := New(d)
		if err != nil {
			t.Fatal(err)
		}
		if c.Distance() != d || c.NumData() != d*d {
			t.Errorf("d=%d basic counts wrong", d)
		}
		if got, want := c.NumChecks(), (d*d-1)/2; got != want {
			t.Errorf("d=%d NumChecks=%d want %d", d, got, want)
		}
		for i := 0; i < c.NumChecks(); i++ {
			if n := len(c.CheckSupport(i)); n != 2 && n != 4 {
				t.Errorf("d=%d check %d has weight %d", d, i, n)
			}
		}
	}
}

// Logical Z must be invisible to every X check and anticommute with the
// logical X cut exactly once.
func TestLogicalOperator(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		c, err := New(d)
		if err != nil {
			t.Fatal(err)
		}
		f := pauli.NewFrame(c.NumData())
		for _, q := range c.logicalZ {
			f.Set(q, pauli.Z)
		}
		syn, err := c.Syndrome(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, hot := range syn {
			if hot {
				t.Fatalf("d=%d logical Z triggers check %d", d, i)
			}
		}
		if f.ParityZ(c.cut) != 1 {
			t.Fatalf("d=%d logical Z does not cross the cut", d)
		}
		if len(c.logicalZ) != d {
			t.Fatalf("d=%d logical weight %d", d, len(c.logicalZ))
		}
	}
}

// Each data qubit must flip at most two X checks (the checkerboard
// property the path constructions rely on).
func TestSingleErrorSyndromes(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		c, err := New(d)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < c.NumData(); q++ {
			f := pauli.NewFrame(c.NumData())
			f.Set(q, pauli.Z)
			syn, err := c.Syndrome(f)
			if err != nil {
				t.Fatal(err)
			}
			hot := 0
			for _, h := range syn {
				if h {
					hot++
				}
			}
			if hot < 1 || hot > 2 {
				t.Fatalf("d=%d qubit %d flips %d checks", d, q, hot)
			}
		}
	}
}

// The fundamental decoder invariant on the rotated layout: corrections
// from both methods reproduce random syndromes exactly.
func TestDecodeClearsRandomSyndromes(t *testing.T) {
	rng := noise.NewRand(21)
	for _, d := range []int{3, 5, 7, 9} {
		c, err := New(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []float64{0.02, 0.08, 0.15} {
			ch, err := noise.NewDephasing(p)
			if err != nil {
				t.Fatal(err)
			}
			targets := make([]int, c.NumData())
			for i := range targets {
				targets[i] = i
			}
			for trial := 0; trial < 40; trial++ {
				f := pauli.NewFrame(c.NumData())
				ch.Sample(rng, f, targets)
				syn, err := c.Syndrome(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range []Method{Greedy, Exact} {
					corr, err := c.Decode(syn, m)
					if err != nil {
						t.Fatal(err)
					}
					res := f.Clone()
					for _, q := range corr {
						res.Apply(q, pauli.Z)
					}
					left, err := c.Syndrome(res)
					if err != nil {
						t.Fatal(err)
					}
					for i, hot := range left {
						if hot {
							t.Fatalf("d=%d p=%v %v trial=%d: check %d hot after correction",
								d, p, m, trial, i)
						}
					}
				}
			}
		}
	}
}

// Distance metric sanity: diagonal neighbours at 1; the path length
// equals the distance.
func TestDistAndPathAgree(t *testing.T) {
	c, err := New(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.NumChecks(); i++ {
		for j := i + 1; j < c.NumChecks(); j++ {
			path := c.pathQubits(i, j)
			if len(path) != c.dist(i, j) {
				t.Fatalf("checks %d-%d: path %d, dist %d", i, j, len(path), c.dist(i, j))
			}
		}
		bp := c.boundaryPathQubits(i)
		if len(bp) != c.boundaryDist(i) {
			t.Fatalf("check %d: boundary path %d, dist %d", i, len(bp), c.boundaryDist(i))
		}
	}
}

// Lifetime: distance suppression below threshold and determinism.
func TestLifetimeSuppression(t *testing.T) {
	pl := func(d int) float64 {
		c, err := New(d)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.LifetimeMC(context.Background(), 0.04, 30000, Exact, 31, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.LogicalErrors < 5 {
			t.Fatalf("d=%d only %d errors; underpowered", d, res.LogicalErrors)
		}
		return res.PL
	}
	p3, p5 := pl(3), pl(5)
	if p5 >= p3 {
		t.Errorf("PL(5)=%v >= PL(3)=%v below threshold", p5, p3)
	}
	c, _ := New(3)
	a, err := c.LifetimeMC(context.Background(), 0.05, 500, Greedy, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.LifetimeMC(context.Background(), 0.05, 500, Greedy, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("lifetime not deterministic")
	}
}
