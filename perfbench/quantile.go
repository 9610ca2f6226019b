package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile with fewer is one or two stray samples, not a tail.
const minTail = 10

// samples holds exact per-operation measurements. Percentiles come from
// the samples themselves, never from log-bucketed histograms, whose
// 12.5%-wide buckets turn a one-bucket move into a 20% jump.
type samples []float64

// sorted returns an ascending copy.
func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Float64s(c)
	return c
}

// pct returns the nearest-rank q-quantile (0 < q ≤ 1) of an ascending
// slice: the value at rank ⌈q·n⌉. It returns 0 for no samples.
func (s samples) pct(q float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// tail returns the highest percentile of an ascending slice that still
// has at least minTail samples strictly beyond its rank, with its value.
// ok is false when there are too few samples for any such percentile.
func (s samples) tail() (q, v float64, ok bool) {
	n := len(s)
	if n <= minTail {
		return 0, 0, false
	}
	// Rank n−minTail leaves exactly minTail samples beyond it; quantiles
	// are reported to 0.01 percentage points, rounded down so the rank
	// never moves past n−minTail.
	q = math.Floor(float64(n-minTail)/float64(n)*1e4) / 1e4
	return q, s.pct(q), true
}

// sum returns the total of the samples.
func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// median returns the middle value of unsorted values (mean of the two
// middle values for an even count), or 0 when there are none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := samples(vs).sorted()
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
