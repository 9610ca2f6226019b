package serve

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/backlog"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/sfq"
)

// snapFor builds a service-time snapshot with the given mean (ns).
func snapFor(meanNs uint64, count int) obs.Snapshot {
	h := obs.NewHistogram()
	for i := 0; i < count; i++ {
		h.Observe(meanNs)
	}
	return h.Snapshot()
}

// TestControllerShedsIffModelDiverges is the core backpressure
// property: after an Update, the controller is shedding exactly when
// the backlog model predicted divergence (ratio above Enter), admitting
// exactly when it predicted drain (ratio below Exit), and holding its
// previous state inside the hysteresis band. The predicate is checked
// against backlog.ModelForHistogram directly, not a reimplementation.
func TestControllerShedsIffModelDiverges(t *testing.T) {
	property := func(arrivalUs uint16, meanUs uint16, wasShedding bool) bool {
		c := NewController(4)
		c.shedding = wasShedding
		arrivalNs := float64(arrivalUs)*100 + 1 // 1ns .. 6.5ms
		snap := snapFor(uint64(meanUs)*100, 32)
		got := c.Update(arrivalNs, snap)

		m := backlog.ModelForHistogram(arrivalNs*c.Capacity, floorNs, unitNs, snap)
		switch r := m.Ratio(); {
		case r > c.Enter:
			return got == true
		case r < c.Exit:
			return got == false
		default:
			return got == wasShedding // hysteresis band: state held
		}
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestControllerHysteresisSequence walks one overload episode and pins
// the transition edges: shedding engages only past Enter, survives the
// band, and releases only below Exit.
func TestControllerHysteresisSequence(t *testing.T) {
	c := NewController(1)
	c.Enter, c.Exit = 1.0, 0.85
	// Ratio = mean/arrival with capacity 1 and unit 1.
	steps := []struct {
		arrivalNs float64
		meanNs    uint64
		want      bool
	}{
		{1000, 500, false},   // 0.5: healthy
		{1000, 990, false},   // 0.99: inside the band from below — still admitting
		{1000, 1200, true},   // 1.2: diverging — shed
		{1000, 950, true},    // 0.95: inside the band from above — still shedding
		{1000, 1500, true},   // relapse
		{1000, 840, false},   // 0.84: below Exit — admit again
		{1000, 990, false},   // band from below again
		{0, 2000, false},     // no traffic: nothing to shed
		{1, 100000, true},    // absurd overload re-engages immediately
		{100000, 100, false}, // near-idle arrival releases
	}
	for i, st := range steps {
		if got := c.Update(st.arrivalNs, snapFor(st.meanNs, 16)); got != st.want {
			t.Fatalf("step %d (arrival %v, mean %d): shedding=%v, want %v (ratio %.3f)",
				i, st.arrivalNs, st.meanNs, got, st.want, c.Ratio())
		}
	}
}

// TestServerShedsWhenControllerTrips pins the admission wiring: the
// moment the controller predicts divergence, requests are answered
// StatusShed without touching the queues; once it releases, the same
// request decodes.
func TestServerShedsWhenControllerTrips(t *testing.T) {
	pool := sfq.NewPool(sfq.Final)
	s := New(Config{
		Variant: sfq.Final, Distances: []int{3}, Pool: pool,
		Registry:  obs.NewRegistry(),
		EvalEvery: time.Hour, // the test drives Update itself
	})
	defer s.Close()
	syn := confSyndromes(3, lattice.ZErrors, 3)[2]

	if resp := s.Decode(3, lattice.ZErrors, 1, syn); resp.Status != StatusOK {
		t.Fatalf("healthy decode: %+v", resp)
	}
	// Overload signal: service time far beyond the arrival interval.
	s.ctl.Update(10, snapFor(1e9, 64))
	if !s.ctl.Shedding() {
		t.Fatal("controller did not trip on a divergent signal")
	}
	shed := s.Decode(3, lattice.ZErrors, 2, syn)
	if shed.Status != StatusShed {
		t.Fatalf("decode under divergence: %+v, want shed", shed)
	}
	// Recovery: long arrivals, cheap decodes.
	s.ctl.Update(1e9, snapFor(10, 64))
	if s.ctl.Shedding() {
		t.Fatal("controller did not release after recovery")
	}
	if resp := s.Decode(3, lattice.ZErrors, 3, syn); resp.Status != StatusOK {
		t.Fatalf("decode after recovery: %+v", resp)
	}
}

// TestQueueFullSheds pins the hard backpressure bound underneath the
// model: with the single worker wedged mid-delivery and the queue
// filled, the next admission sheds instead of blocking or growing the
// queue; once the worker drains, admissions succeed again.
func TestQueueFullSheds(t *testing.T) {
	pool := sfq.NewPool(sfq.Final)
	s := New(Config{
		Variant: sfq.Final, Distances: []int{3}, Pool: pool,
		Registry:   obs.NewRegistry(),
		Lanes:      1, // one task per batch, so one blocked deliver wedges the worker
		QueueDepth: 2,
		EvalEvery:  time.Hour,
	})
	defer s.Close()
	syn := confSyndromes(3, lattice.ZErrors, 3)[2]

	picked := make(chan struct{})
	release := make(chan struct{})
	s.submit(3, lattice.ZErrors, 1, syn, func(*Response) {
		close(picked)
		<-release
	})
	<-picked // the worker is now wedged in deliver, its queue slot free

	done := make(chan *Response, 16)
	for i := 0; i < 2; i++ { // fill the queue behind the wedged worker
		s.submit(3, lattice.ZErrors, uint64(10+i), syn, func(r *Response) { done <- r })
	}
	if resp := s.Decode(3, lattice.ZErrors, 99, syn); resp.Status != StatusShed {
		t.Fatalf("admission to a full queue: %+v, want shed", resp)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if r := <-done; r.Status != StatusOK {
			t.Fatalf("queued request %d: %+v", i, r)
		}
	}
	if resp := s.Decode(3, lattice.ZErrors, 100, syn); resp.Status != StatusOK {
		t.Fatalf("post-drain decode: %+v", resp)
	}
}

// TestArrivalMeter pins the estimator the controller feeds on: the EWMA
// tracks a steady cadence, and a traffic stop overrides it with the
// observed gap so shedding can release on silence.
func TestArrivalMeter(t *testing.T) {
	var m arrivalMeter
	base := time.Unix(0, 0)
	if got := m.intervalNs(base); got != 0 {
		t.Fatalf("empty meter interval %v, want 0", got)
	}
	for i := 0; i < 200; i++ {
		m.tick(base.Add(time.Duration(i) * time.Millisecond))
	}
	now := base.Add(200 * time.Millisecond)
	if got := m.intervalNs(now); got < 0.9e6 || got > 1.5e6 {
		t.Fatalf("steady 1ms cadence estimated at %v ns", got)
	}
	// Silence: the elapsed gap dominates the stale EWMA.
	later := base.Add(10 * time.Second)
	if got := m.intervalNs(later); got < 9e9 {
		t.Fatalf("after 10s of silence the interval reads %v ns", got)
	}
}
