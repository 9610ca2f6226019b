package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs/trace"
)

// span is one finalized request: its wall time and the sum of its wall
// stage durations.
type span struct{ wall, sum int64 }

// scrapeOf runs spans through a fresh flight recorder, in order, and
// returns its counters as /debug/traces serves them. A sum below the
// wall leaves the coalesce stage unstamped; a sum above it stamps
// coalesce after decode start.
func scrapeOf(t *testing.T, spans ...span) map[string]uint64 {
	t.Helper()
	r := trace.New(trace.Config{SampleN: 1 << 30})
	const base = int64(1) << 40
	for i, s := range spans {
		sp := r.Start(uint64(i), 13, 0)
		sp.StampAt(trace.StageAccept, base)
		ds := base + s.wall - s.sum
		if s.sum > s.wall {
			ds = base + s.wall/2
			sp.StampAt(trace.StageCoalesce, base+s.sum-s.wall+s.wall/2)
		}
		sp.StampAt(trace.StageDecodeStart, ds)
		sp.StampAt(trace.StageDecodeEnd, ds)
		sp.StampAt(trace.StageRespWrite, base+s.wall)
		sp.Finish()
	}
	b, err := json.Marshal(r.Snapshot().Counters)
	if err != nil {
		t.Fatal(err)
	}
	var counters map[string]uint64
	if err := json.Unmarshal(b, &counters); err != nil {
		t.Fatal(err)
	}
	// The first span with a wall time is the running maximum, so every
	// case with one checks an outlier.
	if len(spans) > 0 && spans[0].wall > 0 && counters["outliers"] == 0 {
		t.Fatalf("no outlier among %v: %v", spans, counters)
	}
	return counters
}

// TestCheckTraces pins the acceptance predicates -trace-check enforces:
// the outlier stage-sum check reads the recorder's outliers_telescoped
// counter, whose ±5% window on each side of an outlier's wall time is
// applied as the outlier finalizes (so ring eviction cannot hide one),
// and which shed decisions count as carrying controller and
// weight/sojourn inputs.
func TestCheckTraces(t *testing.T) {
	const wall = 1_000_000
	withInputs := scrapedDecision{Kind: "shed", Reason: "controller", Ratio: 1.3, ArrivalNs: 2e5}
	weighted := scrapedDecision{Kind: "shed", Reason: "controller", Weight: 0.4}
	sojourn := scrapedDecision{Kind: "shed", Reason: "sojourn", SojournNs: 4e6}
	ringOutlier := scrapedTrace{WallNs: 1_000_000, Flags: []string{"outlier"},
		Stages: map[string]int64{"decode_ns": 1_000_000}}
	cases := []struct {
		name string
		doc  scrapedDoc
		want TraceChecks
	}{
		{name: "empty", doc: scrapedDoc{}},
		{name: "exact sum", doc: scrapedDoc{Counters: scrapeOf(t, span{wall, wall})},
			want: TraceChecks{OutlierStageSum: true}},
		{name: "sum 5% under", doc: scrapedDoc{Counters: scrapeOf(t, span{wall, wall * 95 / 100})},
			want: TraceChecks{OutlierStageSum: true}},
		{name: "sum 5% over", doc: scrapedDoc{Counters: scrapeOf(t, span{wall, wall * 105 / 100})},
			want: TraceChecks{OutlierStageSum: true}},
		{name: "sum just under the window", doc: scrapedDoc{Counters: scrapeOf(t, span{wall, wall*95/100 - 1})}},
		{name: "sum just over the window", doc: scrapedDoc{Counters: scrapeOf(t, span{wall, wall*105/100 + 1})}},
		{name: "untagged exact sum", doc: scrapedDoc{Counters: scrapeOf(t, span{200 * wall, 600 * wall}, span{wall, wall})}},
		{name: "zero wall", doc: scrapedDoc{Counters: scrapeOf(t, span{0, 0})}},
		{name: "later outlier passes", doc: scrapedDoc{Counters: scrapeOf(t,
			span{wall, 2 * wall}, span{wall / 200, wall / 200}, span{wall, wall + 1})},
			want: TraceChecks{OutlierStageSum: true}},
		{name: "one telescoped outlier", doc: scrapedDoc{Counters: map[string]uint64{"outliers": 1, "outliers_telescoped": 1}},
			want: TraceChecks{OutlierStageSum: true}},
		{name: "telescoped outliers all evicted from the ring", doc: scrapedDoc{
			Counters: map[string]uint64{"outliers": 742, "outliers_telescoped": 742}},
			want: TraceChecks{OutlierStageSum: true}},
		{name: "outliers, none telescoped", doc: scrapedDoc{Counters: map[string]uint64{"outliers": 742}}},
		{name: "a summing outlier in the ring but a zero counter", doc: scrapedDoc{
			Counters: map[string]uint64{"outliers": 1, "outliers_telescoped": 0},
			Traces:   []scrapedTrace{ringOutlier}}},
		{name: "shed with controller inputs", doc: scrapedDoc{Decisions: []scrapedDecision{withInputs}},
			want: TraceChecks{ShedDecisionWithInputs: true}},
		{name: "shed with weight", doc: scrapedDoc{Decisions: []scrapedDecision{weighted}},
			want: TraceChecks{ShedDecisionWeighted: true}},
		{name: "shed with sojourn", doc: scrapedDoc{Decisions: []scrapedDecision{sojourn}},
			want: TraceChecks{ShedDecisionWeighted: true}},
		{name: "shed without inputs", doc: scrapedDoc{Decisions: []scrapedDecision{{Kind: "shed", Reason: "controller"}}}},
		{name: "shed without reason", doc: scrapedDoc{Decisions: []scrapedDecision{
			{Kind: "shed", Ratio: 1.3, ArrivalNs: 2e5, Weight: 0.4}}}},
		{name: "escalation drop with inputs", doc: scrapedDoc{Decisions: []scrapedDecision{
			{Kind: "esc_drop", Reason: "esc_queue_full", Ratio: 1.3, Weight: 0.4}}}},
		{name: "everything", doc: scrapedDoc{
			Counters:  map[string]uint64{"outliers_telescoped": 1},
			Decisions: []scrapedDecision{weighted, withInputs}},
			want: TraceChecks{ShedDecisionWithInputs: true, ShedDecisionWeighted: true, OutlierStageSum: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkTraces(&tc.doc); got != tc.want {
				t.Fatalf("checkTraces = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestTraceSectionCheck pins that -trace-check fails on every unmet
// check and passes only when all four hold, and that a zero
// outliers_telescoped counter fails it by name.
func TestTraceSectionCheck(t *testing.T) {
	all := TraceChecks{ShedDecisionWithInputs: true, OutlierStageSum: true,
		ShedDecisionWeighted: true, QueueWaitP99Improved: true}
	if err := (&TraceSection{Checks: all}).check(); err != nil {
		t.Fatalf("all checks met: %v", err)
	}
	for _, unset := range []func(*TraceChecks){
		func(c *TraceChecks) { c.ShedDecisionWithInputs = false },
		func(c *TraceChecks) { c.OutlierStageSum = false },
		func(c *TraceChecks) { c.ShedDecisionWeighted = false },
		func(c *TraceChecks) { c.QueueWaitP99Improved = false },
	} {
		c := all
		unset(&c)
		if err := (&TraceSection{Checks: c}).check(); err == nil {
			t.Fatalf("checks %+v: want error", c)
		}
	}

	doc := scrapedDoc{
		Counters:  map[string]uint64{"outliers": 742},
		Decisions: []scrapedDecision{{Kind: "shed", Reason: "controller", Ratio: 1.3, ArrivalNs: 2e5, Weight: 0.4}},
	}
	sec := &TraceSection{Counters: doc.Counters, Checks: checkTraces(&doc)}
	sec.Checks.QueueWaitP99Improved = true
	if err := sec.check(); err == nil || !strings.Contains(err.Error(), "outliers_telescoped") {
		t.Fatalf("zero outliers_telescoped: check = %v, want an error naming the counter", err)
	}
	doc.Counters["outliers_telescoped"] = 1
	sec = &TraceSection{Counters: doc.Counters, Checks: checkTraces(&doc)}
	sec.Checks.QueueWaitP99Improved = true
	if err := sec.check(); err != nil {
		t.Fatalf("one telescoped outlier: %v", err)
	}
}
