package main

import "testing"

// outlier builds a trace whose wall-stage durations sum to sum against
// a recorded wall time of wall; tagged adds the outlier flag.
func outlier(wall, sum int64, tagged bool) scrapedTrace {
	t := scrapedTrace{WallNs: wall, Stages: map[string]int64{}}
	if tagged {
		t.Flags = []string{"sampled", "outlier"}
	}
	// Spread the sum over the telescoping stages; the last one takes
	// the remainder.
	per := sum / int64(len(wallStages))
	for _, st := range wallStages[:len(wallStages)-1] {
		t.Stages[st] = per
	}
	t.Stages[wallStages[len(wallStages)-1]] = sum - per*int64(len(wallStages)-1)
	return t
}

// TestCheckTraces pins the acceptance predicates -trace-check enforces:
// the ±5% stage-sum window on each side of an outlier's wall time, the
// outlier tag, and which shed decisions count as carrying controller
// and weight/sojourn inputs.
func TestCheckTraces(t *testing.T) {
	const wall = 1_000_000
	withInputs := scrapedDecision{Kind: "shed", Reason: "controller", Ratio: 1.3, ArrivalNs: 2e5}
	weighted := scrapedDecision{Kind: "shed", Reason: "controller", Weight: 0.4}
	sojourn := scrapedDecision{Kind: "shed", Reason: "sojourn", SojournNs: 4e6}
	cases := []struct {
		name string
		doc  scrapedDoc
		want TraceChecks
	}{
		{name: "empty", doc: scrapedDoc{}},
		{name: "exact sum", doc: scrapedDoc{Traces: []scrapedTrace{outlier(wall, wall, true)}},
			want: TraceChecks{OutlierStageSum: true}},
		{name: "sum 5% under", doc: scrapedDoc{Traces: []scrapedTrace{outlier(wall, wall*95/100, true)}},
			want: TraceChecks{OutlierStageSum: true}},
		{name: "sum 5% over", doc: scrapedDoc{Traces: []scrapedTrace{outlier(wall, wall*105/100, true)}},
			want: TraceChecks{OutlierStageSum: true}},
		{name: "sum just under the window", doc: scrapedDoc{Traces: []scrapedTrace{outlier(wall, wall*95/100-1, true)}}},
		{name: "sum just over the window", doc: scrapedDoc{Traces: []scrapedTrace{outlier(wall, wall*105/100+1, true)}}},
		{name: "untagged exact sum", doc: scrapedDoc{Traces: []scrapedTrace{outlier(wall, wall, false)}}},
		{name: "zero wall", doc: scrapedDoc{Traces: []scrapedTrace{outlier(0, 0, true)}}},
		{name: "later outlier passes", doc: scrapedDoc{Traces: []scrapedTrace{
			outlier(wall, 2*wall, true), outlier(wall, wall, false), outlier(wall, wall+1, true)}},
			want: TraceChecks{OutlierStageSum: true}},
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
			Traces:    []scrapedTrace{outlier(wall, wall, true)},
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
// check and passes only when all four hold.
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
}
