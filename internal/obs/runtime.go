package obs

import (
	"math"
	"runtime/metrics"
	"time"
)

// Runtime bridge: fold the Go runtime's own telemetry (GC stop-the-world
// pauses, scheduler wakeup latencies, goroutine count, heap size) into
// the obs registry, so a latency investigation can tell a serve-side GC
// stall apart from a slow decode on one exposition surface. The bridge
// is opt-in (cmd/serve -runtime-metrics): it
// costs a metrics.Read plus histogram folding per poll, which is cheap
// but not free, and most sweeps don't want extra background wakeups.
//
// runtime/metrics histograms are cumulative; the bridge keeps the last
// poll's bucket counts and ObserveN's each bucket's midpoint by the new
// count, so the registry histogram converges on the runtime's
// distribution shape with at most one poll interval of lag.

// runtimeHist is one bridged cumulative histogram metric.
type runtimeHist struct {
	name string     // runtime/metrics name
	hist *Histogram // registry target (values in nanoseconds)
	prev []uint64   // previous cumulative counts
}

// RuntimeBridge polls runtime/metrics into a Registry until Close.
type RuntimeBridge struct {
	stop chan struct{}
	done chan struct{}
}

// gcPauseMetric returns the best available GC pause histogram metric
// name: the modern /sched/pauses path, or the deprecated /gc/pauses
// alias on older runtimes.
func gcPauseMetric() string {
	for _, d := range metrics.All() {
		if d.Name == "/sched/pauses/total/gc:seconds" {
			return d.Name
		}
	}
	return "/gc/pauses:seconds"
}

// StartRuntimeBridge starts polling the runtime's telemetry every
// `every` (minimum 10ms) into r as:
//
//	go_gc_pause_ns       histogram of GC stop-the-world pauses
//	go_sched_latency_ns  histogram of goroutine scheduling latencies
//	go_goroutines        gauge, live goroutine count
//	go_heap_objects_bytes gauge, bytes of live + dead heap objects
//
// The baseline is taken at start, so only pauses and latencies from
// bridge start onward are folded in. Close stops the poller.
func StartRuntimeBridge(r *Registry, every time.Duration) *RuntimeBridge {
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	hists := []*runtimeHist{
		{name: gcPauseMetric(), hist: r.Histogram("go_gc_pause_ns")},
		{name: "/sched/latencies:seconds", hist: r.Histogram("go_sched_latency_ns")},
	}
	goroutines := r.Gauge("go_goroutines")
	heapBytes := r.Gauge("go_heap_objects_bytes")

	samples := make([]metrics.Sample, 0, len(hists)+2)
	for _, h := range hists {
		samples = append(samples, metrics.Sample{Name: h.name})
	}
	samples = append(samples,
		metrics.Sample{Name: "/sched/goroutines:goroutines"},
		metrics.Sample{Name: "/memory/classes/heap/objects:bytes"})

	b := &RuntimeBridge{stop: make(chan struct{}), done: make(chan struct{})}
	poll := func(first bool) {
		metrics.Read(samples)
		for i, h := range hists {
			if samples[i].Value.Kind() != metrics.KindFloat64Histogram {
				continue
			}
			fold(h, samples[i].Value.Float64Histogram(), first)
		}
		if s := samples[len(hists)]; s.Value.Kind() == metrics.KindUint64 {
			goroutines.Set(int64(s.Value.Uint64()))
		}
		if s := samples[len(hists)+1]; s.Value.Kind() == metrics.KindUint64 {
			heapBytes.Set(int64(s.Value.Uint64()))
		}
	}
	poll(true) // establish the cumulative baseline
	go func() {
		defer close(b.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-b.stop:
				poll(false) // final fold so short runs lose nothing
				return
			case <-t.C:
				poll(false)
			}
		}
	}()
	return b
}

// fold merges one cumulative runtime histogram read into the registry
// target: each bucket's count delta since the previous read is recorded
// at the bucket's midpoint, converted from seconds to nanoseconds.
// baseline reads only capture the counts.
func fold(h *runtimeHist, fh *metrics.Float64Histogram, baseline bool) {
	if len(h.prev) != len(fh.Counts) {
		// First read, or the runtime resized its buckets: re-baseline.
		h.prev = make([]uint64, len(fh.Counts))
		baseline = true
	}
	for i, c := range fh.Counts {
		if !baseline && c > h.prev[i] {
			h.hist.ObserveN(midpointNs(fh.Buckets, i), c-h.prev[i])
		}
		h.prev[i] = c
	}
}

// midpointNs returns bucket i's representative value in nanoseconds.
// Runtime histogram bucket i spans [Buckets[i], Buckets[i+1]); the
// first and last edges may be ±Inf, in which case the finite edge
// stands in for the midpoint.
func midpointNs(edges []float64, i int) uint64 {
	lo, hi := edges[i], edges[i+1]
	var sec float64
	switch {
	case math.IsInf(lo, -1):
		sec = hi
	case math.IsInf(hi, 1):
		sec = lo
	default:
		sec = (lo + hi) / 2
	}
	if sec < 0 {
		sec = 0
	}
	return uint64(sec * 1e9)
}

// Close stops the bridge after one final fold.
func (b *RuntimeBridge) Close() {
	close(b.stop)
	<-b.done
}
