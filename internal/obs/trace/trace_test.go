package trace

import (
	"testing"
	"time"
)

// stampAll walks a span through a plausible request lifecycle with the
// given wall time and finishes it.
func stampAll(sp *Span, base, wallNs int64) {
	sp.StampAt(StageAccept, base)
	sp.StampAt(StageCoalesce, base+wallNs/4)
	sp.StampAt(StageDecodeStart, base+wallNs/2)
	sp.StampAt(StageDecodeEnd, base+3*wallNs/4)
	sp.StampAt(StageRespWrite, base+wallNs)
	sp.Finish()
}

// TestNilSafety pins the zero-branch contract: every Span method on a
// nil receiver and every Recorder method on a nil recorder is a no-op,
// so untraced requests need no "is tracing on" checks at call sites.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	if sp := r.Start(1, 3, 0); sp != nil {
		t.Fatal("nil recorder handed out a span")
	}
	r.RecordDecision(KindShed, 1, 3, 0, ReasonController, DecisionInputs{Ratio: 1, ArrivalNs: 1, QueueLen: 1})
	if s := r.Snapshot(); len(s.Traces) != 0 || len(s.Decisions) != 0 {
		t.Fatal("nil recorder snapshot is not empty")
	}
	if r.SampleN() != 0 {
		t.Fatal("nil recorder SampleN != 0")
	}
	var sp *Span
	sp.Stamp(StageAccept)
	sp.StampAt(StageAccept, 1)
	sp.SetFlag(FlagOutlier)
	sp.AddRef()
	sp.Finish()
	sp.Release()
	sp.FinishError()
	if sp.Seq() != 0 || sp.Flags() != 0 {
		t.Fatal("nil span accessors are not zero")
	}
}

// TestSampledSpanCommits pins the basic ring protocol: with SampleN 1
// every finished request span commits one record, newest first, with
// the stage stamps and wall time intact, and the span recycles through
// the free list.
func TestSampledSpanCommits(t *testing.T) {
	r := New(Config{SampleN: 1, Depth: 4, MaxInFlight: 2})
	base := time.Now().UnixNano()
	for i := 0; i < 6; i++ {
		sp := r.Start(uint64(100+i), 5, 1)
		if sp == nil {
			t.Fatalf("span %d: free list dry with all spans finished", i)
		}
		if sp.Flags()&FlagSampled == 0 {
			t.Fatalf("span %d not sampled at SampleN 1", i)
		}
		stampAll(sp, base, int64(1000*(i+1)))
	}
	s := r.Snapshot()
	if s.Counters.Started != 6 || s.Counters.Finalized != 6 || s.Counters.Untraced != 0 {
		t.Fatalf("counters: %+v", s.Counters)
	}
	if len(s.Traces) != 4 {
		t.Fatalf("ring holds %d, want depth 4", len(s.Traces))
	}
	// Newest first: the last committed span leads.
	if s.Traces[0].ID != 105 || s.Traces[3].ID != 102 {
		t.Fatalf("ring order: ids %d..%d, want 105..102", s.Traces[0].ID, s.Traces[3].ID)
	}
	rec := s.Traces[0]
	if rec.WallNs != 6000 {
		t.Fatalf("wall %d, want 6000", rec.WallNs)
	}
	if rec.TS[StageCoalesce] != base+1500 || rec.TS[StageRespWrite] != base+6000 {
		t.Fatalf("stamps did not survive commit: %v", rec.TS)
	}
	if got := s.Resolve(rec.Seq); got == nil || got.ID != rec.ID {
		t.Fatalf("Resolve(%d) = %v", rec.Seq, got)
	}
	if s.Resolve(9999) != nil {
		t.Fatal("Resolve of an unknown seq returned a record")
	}
}

// TestOutlierRule pins the always-on outlier capture: with sampling
// effectively off, a new wall-time maximum is always kept and flagged,
// anything within one octave of the max bucket is kept, and a request
// more than an octave below is not.
func TestOutlierRule(t *testing.T) {
	r := New(Config{SampleN: 1 << 30, Depth: 16})
	base := time.Now().UnixNano()

	finish := func(id uint64, wallNs int64) {
		sp := r.Start(id, 5, 0)
		if sp.Flags()&FlagSampled != 0 {
			t.Fatalf("span %d sampled at period 2^30", id)
		}
		stampAll(sp, base, wallNs)
	}
	finish(1, 1_000_000) // first request: the running max, kept
	finish(2, 2_000_000) // new max, kept
	finish(3, 1_500_000) // within an octave of the max bucket, kept
	finish(4, 10_000)    // 200× below: dropped
	s := r.Snapshot()
	if s.Counters.Outliers != 3 || len(s.Traces) != 3 {
		t.Fatalf("outliers %d, kept %d; want 3, 3", s.Counters.Outliers, len(s.Traces))
	}
	for _, rec := range s.Traces {
		if rec.ID == 4 {
			t.Fatal("the 200×-below-max request was kept")
		}
		if rec.Flags&FlagOutlier == 0 {
			t.Fatalf("record %d kept without the outlier flag", rec.ID)
		}
	}
}

// TestDecisionCapture pins the always-on shed/drop ring: decisions
// carry the controller inputs and land in their own ring (a shed storm
// cannot evict traces), and a shed request's span, released alongside
// its decision, commits nothing and returns to the free list.
func TestDecisionCapture(t *testing.T) {
	r := New(Config{SampleN: 1, Depth: 4, DecisionDepth: 8, MaxInFlight: 1})

	sp := r.Start(7, 9, 1)
	sp.Stamp(StageAccept)
	r.RecordDecision(KindShed, 7, 9, 1, ReasonController,
		DecisionInputs{Ratio: 1.75, ArrivalNs: 42_000, QueueLen: 64, Weight: 0.25})
	sp.Release()
	r.RecordDecision(KindEscDrop, 8, 7, 0, ReasonEscQueueFull,
		DecisionInputs{Ratio: 0.5, ArrivalNs: 10_000, QueueLen: 256})
	r.RecordDecision(KindShed, 9, 13, 0, ReasonSojourn,
		DecisionInputs{Ratio: 1.2, ArrivalNs: 5_000, QueueLen: 32, Weight: 1, SojournNs: 3_500_000})

	s := r.Snapshot()
	if len(s.Decisions) != 3 || s.Counters.Decisions != 3 {
		t.Fatalf("decisions: %d records, counter %d", len(s.Decisions), s.Counters.Decisions)
	}
	if len(s.Traces) != 0 {
		t.Fatal("decision records leaked into the trace ring")
	}
	if s.Counters.Finalized != 1 || s.Counters.Kept != 0 {
		t.Fatalf("released shed span: %+v, want finalized 1, kept 0", s.Counters)
	}
	if again := r.Start(10, 9, 1); again == nil {
		t.Fatal("released shed span did not return to the free list")
	} else {
		again.Finish()
	}
	soj, drop, shed := s.Decisions[0], s.Decisions[1], s.Decisions[2] // newest first
	if shed.Kind != KindShed || shed.Reason != ReasonController ||
		shed.Ratio != 1.75 || shed.ArrivalNs != 42_000 || shed.QueueLen != 64 ||
		shed.ID != 7 || shed.Weight != 0.25 {
		t.Fatalf("shed decision: %+v", shed)
	}
	if drop.Kind != KindEscDrop || drop.Reason != ReasonEscQueueFull || drop.QueueLen != 256 {
		t.Fatalf("esc-drop decision: %+v", drop)
	}
	if soj.Reason != ReasonSojourn || soj.SojournNs != 3_500_000 || soj.Weight != 1 {
		t.Fatalf("sojourn decision lost its inputs: %+v", soj)
	}
}

// TestFreeListExhaustion pins the untraced-not-blocked contract: with
// every span in flight, Start returns nil and counts, and spans return
// to the free list on finish.
func TestFreeListExhaustion(t *testing.T) {
	r := New(Config{SampleN: 1, MaxInFlight: 2})
	a, b := r.Start(1, 3, 0), r.Start(2, 3, 0)
	if a == nil || b == nil {
		t.Fatal("free list dry before exhaustion")
	}
	if c := r.Start(3, 3, 0); c != nil {
		t.Fatal("Start handed out a third span from a 2-span free list")
	}
	if got := r.Snapshot().Counters.Untraced; got != 1 {
		t.Fatalf("untraced %d, want 1", got)
	}
	a.Finish()
	if c := r.Start(4, 3, 0); c == nil {
		t.Fatal("span did not return to the free list after Finish")
	} else {
		c.Finish()
	}
	b.Finish()
}

// TestEscalationRefCount pins the two-owner protocol: with an extra
// reference held (the escalation path), the first Finish does not
// finalize; the last one does, and stamps written between the two are
// in the committed record.
func TestEscalationRefCount(t *testing.T) {
	r := New(Config{SampleN: 1})
	base := time.Now().UnixNano()
	sp := r.Start(1, 9, 0)
	seq := sp.Seq()
	sp.StampAt(StageAccept, base)
	sp.SetFlag(FlagEscalated)
	sp.AddRef()
	sp.StampAt(StageRespWrite, base+1000)
	sp.Finish() // transport's release: one reference remains
	if got := r.Snapshot().Counters.Finalized; got != 0 {
		t.Fatalf("span finalized with a reference outstanding (finalized=%d)", got)
	}
	sp.StampAt(StageEscalateStart, base+2000)
	sp.StampAt(StageEscalateEnd, base+5000)
	sp.Finish() // level 2's release finalizes
	s := r.Snapshot()
	if len(s.Traces) != 1 {
		t.Fatalf("kept %d, want 1", len(s.Traces))
	}
	rec := s.Traces[0]
	if rec.Seq != seq || rec.Flags&FlagEscalated == 0 {
		t.Fatalf("record: %+v", rec)
	}
	if rec.WallNs != 1000 {
		t.Fatalf("wall %d: escalate stages leaked into wall time", rec.WallNs)
	}
	if rec.TS[StageEscalateEnd] != base+5000 {
		t.Fatal("level-2 stamps missing from the committed record")
	}
}

// TestTelescopingCounter pins the finalize-time stage-sum check: an
// outlier whose wall rows telescope to its wall time is counted, and
// one with a stage stamped out of order is kept as an outlier but not
// counted.
func TestTelescopingCounter(t *testing.T) {
	r := New(Config{SampleN: 1 << 30})
	base := time.Now().UnixNano()
	stampAll(r.Start(1, 5, 0), base, 8000) // the running max: an outlier
	s := r.Snapshot()
	if s.Counters.Outliers != 1 || s.Counters.Telescoped != 1 {
		t.Fatalf("telescoping outlier: %+v, want outliers 1, telescoped 1", s.Counters)
	}

	sp := r.Start(2, 5, 0)
	sp.StampAt(StageAccept, base)
	sp.StampAt(StageCoalesce, base-4000) // before accept
	sp.StampAt(StageDecodeStart, base+4000)
	sp.StampAt(StageDecodeEnd, base+6000)
	sp.StampAt(StageRespWrite, base+8000)
	sp.Finish()
	s = r.Snapshot()
	if s.Counters.Outliers != 2 || s.Counters.Telescoped != 1 {
		t.Fatalf("out-of-order outlier: %+v, want outliers 2, telescoped 1", s.Counters)
	}
}

// TestStageDurations pins the stage table's helper: every row reads
// To − From, the wall rows sum to the wall time, and a row with a
// missing or out-of-order stage reads −1.
func TestStageDurations(t *testing.T) {
	var ts [NumStages]int64
	ts[StageAccept], ts[StageCoalesce], ts[StageDecodeStart] = 100, 300, 350
	ts[StageDecodeEnd], ts[StageRespWrite], ts[StageEscalateStart] = 900, 1000, 950
	got := StageDurations(&ts)
	want := [NumDurations]int64{200, 50, 550, 100, 50, -1}
	if got != want {
		t.Fatalf("durations %v, want %v", got, want)
	}
	sum := int64(0)
	for i, d := range Durations {
		if d.Wall {
			sum += got[i]
		}
	}
	if sum != ts[StageRespWrite]-ts[StageAccept] {
		t.Fatalf("wall rows sum to %d, want %d", sum, ts[StageRespWrite]-ts[StageAccept])
	}
	ts[StageEscalateEnd] = 900 // before escalate start
	if got := StageDurations(&ts); got[NumDurations-1] != -1 {
		t.Fatalf("out-of-order escalate row reads %d, want -1", got[NumDurations-1])
	}
}

// TestZeroAllocHotPath pins the flight recorder's central promise: the
// fully traced request path — claim a span, stamp every stage, run the
// telescoping check and commit to the ring — allocates nothing, even at
// SampleN 1 where every span commits.
func TestZeroAllocHotPath(t *testing.T) {
	r := New(Config{SampleN: 1})
	base := time.Now().UnixNano()
	id := uint64(0)
	if avg := testing.AllocsPerRun(200, func() {
		id++
		sp := r.Start(id, 9, 0)
		if sp == nil {
			t.Fatal("free list dry")
		}
		stampAll(sp, base, 5000)
	}); avg != 0 {
		t.Fatalf("traced request path allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		r.RecordDecision(KindShed, 1, 9, 0, ReasonController,
			DecisionInputs{Ratio: 1.5, ArrivalNs: 1000, QueueLen: 64, Weight: 0.5})
	}); avg != 0 {
		t.Fatalf("decision path allocates %.1f/op, want 0", avg)
	}
}
