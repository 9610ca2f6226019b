package main

import (
	"reflect"
	"testing"
	"time"
)

var burst = serveWorkloads["serve_burst"].tr

func TestScheduleIsAPureFunctionOfWorkloadAndSeed(t *testing.T) {
	a := schedule("serve_burst", burst, 7, 3*time.Second)
	b := schedule("serve_burst", burst, 7, 3*time.Second)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same (workload, seed) gave different streams (%d vs %d arrivals)", len(a), len(b))
	}
	if c := schedule("serve_burst", burst, 8, 3*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("a different seed gave the identical stream")
	}
	if c := schedule("serve_open", burst, 7, 3*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("a different workload name gave the identical stream")
	}
}

func TestSyndromesAreAPureFunctionOfWorkloadAndSeed(t *testing.T) {
	a, err := syndromeSet("serve_open", 7, 9, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := syndromeSet("serve_open", 7, 9, 64)
	c, _ := syndromeSet("serve_open", 8, 9, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different syndromes")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("a different seed gave identical syndromes")
	}
}

// The arrival process must deliver the configured rates: the base rate
// outside the burst windows and the burst rate inside them, with every
// distance requested in about equal shares.
func TestScheduleRatesAndDistanceMix(t *testing.T) {
	const span = 10 * time.Second
	arr := schedule("serve_burst", burst, 1, span)
	inBurst, perD := 0, map[int]int{}
	for i, a := range arr {
		if i > 0 && a.at < arr[i-1].at {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a.at, i-1, arr[i-1].at)
		}
		if a.syn < 0 || a.syn >= synPerDistance {
			t.Fatalf("syndrome index %d out of range", a.syn)
		}
		if burst.rateAt(int64(a.at)) == burst.burstRate {
			inBurst++
		}
		perD[a.d]++
	}
	burstTime := span.Seconds() * burst.burstLen.Seconds() / burst.burstEvery.Seconds()
	wantBurst := burst.burstRate * burstTime
	wantBase := burst.baseRate * (span.Seconds() - burstTime)
	if d := float64(inBurst) - wantBurst; d*d > 9*wantBurst {
		t.Errorf("%d arrivals in bursts, want %.0f ± 3σ", inBurst, wantBurst)
	}
	if base := float64(len(arr) - inBurst); (base-wantBase)*(base-wantBase) > 9*wantBase {
		t.Errorf("%.0f arrivals at the base rate, want %.0f ± 3σ", base, wantBase)
	}
	for _, d := range serveDistances {
		if share := float64(perD[d]) / float64(len(arr)); share < 0.3 || share > 0.37 {
			t.Errorf("distance %d has %.3f of the requests, want ≈ 1/3", d, share)
		}
	}
}
