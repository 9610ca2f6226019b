package main

import (
	"math/rand"
	"testing"
)

func TestPercentilesOnKnownDistribution(t *testing.T) {
	var s samples
	for _, i := range rand.New(rand.NewSource(1)).Perm(1000) {
		s = append(s, float64(i+1)) // 1..1000, shuffled
	}
	s = s.sorted()
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1, 1000}, {0.0001, 1}} {
		if got := s.pct(c.q); got != c.want {
			t.Errorf("pct(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	q, v, ok := s.tail()
	if !ok || q != 0.99 || v != 990 {
		t.Errorf("tail() = %v, %v, %v; want 0.99, 990, true", q, v, ok)
	}
}

// The tail percentile must leave at least minTail samples beyond it, and
// moving one reporting step (0.01 points) higher must not.
func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	if _, _, ok := make(samples, minTail).tail(); ok {
		t.Fatalf("tail of %d samples reported", minTail)
	}
	for n := minTail + 1; n <= 5000; n++ {
		s := make(samples, n)
		for i := range s {
			s[i] = float64(i)
		}
		q, v, ok := s.tail()
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		if beyond := n - 1 - int(v); beyond < minTail {
			t.Fatalf("n=%d: tail q=%v leaves %d samples beyond, want ≥ %d", n, q, beyond, minTail)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestHistogramDeltaBetweenScrapes(t *testing.T) {
	before, err := parseProm(`# TYPE x_ns histogram
x_ns_bucket{le="7"} 2
x_ns_bucket{le="+Inf"} 2
x_ns_sum 10
x_ns_count 2
reqs_total 5
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(`# TYPE x_ns histogram
x_ns_bucket{le="7"} 3
x_ns_bucket{le="9"} 5
x_ns_bucket{le="17"} 12
x_ns_bucket{le="+Inf"} 12
x_ns_sum 130
x_ns_count 12
reqs_total 15
`)
	if err != nil {
		t.Fatal(err)
	}
	h := deltaHist(before, after, "x_ns")
	if h.count != 10 || h.mean() != 12 {
		t.Fatalf("delta count %v mean %v, want 10 and 12", h.count, h.mean())
	}
	if got := h.quantile(0.1); got != 7 {
		t.Errorf("p10 = %v, want 7", got)
	}
	if got := h.quantile(0.3); got != 9 {
		t.Errorf("p30 = %v, want 9", got)
	}
	if got := h.quantile(0.99); got != 17 {
		t.Errorf("p99 = %v, want 17", got)
	}
	if got := counterDelta(before, after, "reqs_total"); got != 10 {
		t.Errorf("counter delta = %v, want 10", got)
	}
}
