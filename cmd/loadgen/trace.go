package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/obs"
)

// Trace scrape: after the rate sweep, pull the server's flight recorder
// (/debug/traces on the -trace-http listener) and add the per-stage
// latency decomposition to the artifact's trace section, including a
// before/after comparison against the embedded PR 9 baseline rows. The
// recorder accumulated over the whole sweep, so the worst traces and
// the shed decisions captured at 2R are still in the rings when the
// scrape runs.

// scrapedTrace mirrors the /debug/traces trace view.
type scrapedTrace struct {
	Seq     uint64           `json:"seq"`
	ID      uint64           `json:"id"`
	D       int32            `json:"d"`
	EType   string           `json:"etype"`
	Kind    string           `json:"kind"`
	Flags   []string         `json:"flags,omitempty"`
	WallNs  int64            `json:"wall_ns"`
	Offsets map[string]int64 `json:"offset_ns"`
	Stages  map[string]int64 `json:"stage_ns"`
}

// scrapedDecision mirrors the /debug/traces decision view.
type scrapedDecision struct {
	Seq       uint64  `json:"seq"`
	ID        uint64  `json:"id"`
	D         int32   `json:"d"`
	EType     string  `json:"etype"`
	Kind      string  `json:"kind"`
	Reason    string  `json:"reason"`
	Ratio     float64 `json:"ratio"`
	ArrivalNs float64 `json:"arrival_ns"`
	QueueLen  int32   `json:"queue_len"`
	Weight    float64 `json:"weight,omitempty"`
	SojournNs int64   `json:"sojourn_ns,omitempty"`
}

// scrapedDoc is the subset of the /debug/traces document the artifact
// consumes.
type scrapedDoc struct {
	SampleN      int                    `json:"sample_n"`
	Counters     map[string]uint64      `json:"counters"`
	StageSummary map[string]obs.Summary `json:"stage_summary"`
	Traces       []scrapedTrace         `json:"traces"`
	Decisions    []scrapedDecision      `json:"decisions"`
}

// StageRow is one per-stage decomposition row of the trace section.
type StageRow struct {
	Stage string `json:"stage"`
	Count uint64 `json:"count"`
	P50Ns uint64 `json:"p50_ns"`
	P99Ns uint64 `json:"p99_ns"`
	MaxNs uint64 `json:"max_ns"`
}

// TraceChecks records the acceptance checks run against the scrape.
type TraceChecks struct {
	// ShedDecisionWithInputs: ≥1 shed decision carrying the admission
	// controller inputs (reason plus a live arrival/ratio estimate).
	ShedDecisionWithInputs bool `json:"shed_decision_with_inputs"`
	// OutlierStageSum: the recorder counted ≥1 outlier whose wall-stage
	// durations sum to within ±5% of its wall time, checked as each
	// outlier finalized (the outliers_telescoped counter), so ring
	// eviction cannot hide one.
	OutlierStageSum bool `json:"outlier_stage_sum_within_5pct"`
	// ShedDecisionWeighted: ≥1 shed decision carrying the PR 10
	// cost-weighted-admission inputs — a class weight, or a measured
	// sojourn for drop-oldest decisions.
	ShedDecisionWeighted bool `json:"shed_decision_weighted_or_sojourn"`
	// QueueWaitP99Improved: the scraped serve_queue_wait_ns p99 beats
	// the embedded PR 9 baseline row by ≥20% — the PR 10 acceptance
	// number (7,340,031 ns × 0.8 = 5,872,024 ns ceiling).
	QueueWaitP99Improved bool `json:"queue_wait_p99_improved_20pct"`
}

// pr9Baseline is the PR 9 trace decomposition at the ci.sh sweep's 2R
// point (BENCH_pr9.json, d=13, lanes=1, escalation on, 1-CPU ci box) —
// the before side of the before/after table and the denominator of the
// ≥20% queue-wait improvement gate.
var pr9Baseline = []StageRow{
	{Stage: "serve_coalesce_ns", Count: 24219, P50Ns: 87, P99Ns: 255, MaxNs: 55642},
	{Stage: "serve_decode_ns", Count: 24219, P50Ns: 122879, P99Ns: 491519, MaxNs: 8899410},
	{Stage: "serve_escalate_ns", Count: 9743, P50Ns: 16383, P99Ns: 98303, MaxNs: 38421003},
	{Stage: "serve_escalate_wait_ns", Count: 9743, P50Ns: 1703935, P99Ns: 25165823, MaxNs: 43251903},
	{Stage: "serve_queue_wait_ns", Count: 24219, P50Ns: 1310719, P99Ns: 7340031, MaxNs: 29787790},
	{Stage: "serve_sched_wait_ns", Count: 3378, P50Ns: 2815, P99Ns: 90111, MaxNs: 14777879},
}

// StageCompare is one before/after row: the PR 9 baseline p99 against
// this run's, with the relative improvement (positive = faster now).
type StageCompare struct {
	Stage          string  `json:"stage"`
	BaselineP99Ns  uint64  `json:"baseline_p99_ns"`
	P99Ns          uint64  `json:"p99_ns"`
	ImprovementPct float64 `json:"improvement_pct"`
}

// TraceSection is the trace part of a rate-mode artifact.
type TraceSection struct {
	SampleN     int               `json:"sample_n"`
	Counters    map[string]uint64 `json:"counters"`
	StageRows   []StageRow        `json:"stage_rows"`
	Baseline    []StageRow        `json:"baseline_pr9"`
	Comparison  []StageCompare    `json:"comparison_vs_pr9"`
	WorstTraces []scrapedTrace    `json:"worst_traces"`
	Decisions   []scrapedDecision `json:"decisions"`
	Checks      TraceChecks       `json:"checks"`
}

// scrapeTraces pulls /debug/traces from the server's HTTP listener and
// builds the decomposition section. ci.sh runs the default R/2, R, 2R
// sweep first, so the 2R point has forced shedding and the rings are
// warm.
func scrapeTraces(httpBase string) (*TraceSection, error) {
	cl := &http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get(httpBase + "/debug/traces")
	if err != nil {
		return nil, fmt.Errorf("scrape %s/debug/traces: %w", httpBase, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s/debug/traces: HTTP %d", httpBase, resp.StatusCode)
	}
	var doc scrapedDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode /debug/traces: %w", err)
	}

	sec := &TraceSection{
		SampleN:  doc.SampleN,
		Counters: doc.Counters,
		Baseline: pr9Baseline,
		Checks:   checkTraces(&doc),
	}
	for stage, sum := range doc.StageSummary {
		sec.StageRows = append(sec.StageRows, StageRow{
			Stage: stage, Count: sum.Count, P50Ns: sum.P50, P99Ns: sum.P99, MaxNs: sum.Max,
		})
	}
	sort.Slice(sec.StageRows, func(i, j int) bool { return sec.StageRows[i].Stage < sec.StageRows[j].Stage })
	for _, base := range pr9Baseline {
		for _, row := range sec.StageRows {
			if row.Stage != base.Stage {
				continue
			}
			cmp := StageCompare{Stage: row.Stage, BaselineP99Ns: base.P99Ns, P99Ns: row.P99Ns}
			if base.P99Ns > 0 {
				cmp.ImprovementPct = 100 * (1 - float64(row.P99Ns)/float64(base.P99Ns))
			}
			sec.Comparison = append(sec.Comparison, cmp)
			if row.Stage == "serve_queue_wait_ns" &&
				float64(row.P99Ns) <= 0.8*float64(base.P99Ns) {
				sec.Checks.QueueWaitP99Improved = true
			}
		}
	}

	sort.Slice(doc.Traces, func(i, j int) bool { return doc.Traces[i].WallNs > doc.Traces[j].WallNs })
	if len(doc.Traces) > 10 {
		doc.Traces = doc.Traces[:10]
	}
	sec.WorstTraces = doc.Traces
	sec.Decisions = doc.Decisions
	return sec, nil
}

// check turns the first failed acceptance check into an error
// (-trace-check).
func (sec *TraceSection) check() error {
	if !sec.Checks.ShedDecisionWithInputs {
		return fmt.Errorf("trace check failed: no shed decision with controller inputs in %d decisions", len(sec.Decisions))
	}
	if !sec.Checks.OutlierStageSum {
		return fmt.Errorf("trace check failed: outliers_telescoped is 0 (%d outliers): no outlier whose stage durations sum to its wall time",
			sec.Counters["outliers"])
	}
	if !sec.Checks.ShedDecisionWeighted {
		return fmt.Errorf("trace check failed: no shed decision carrying weight/sojourn inputs in %d decisions", len(sec.Decisions))
	}
	if !sec.Checks.QueueWaitP99Improved {
		p99 := uint64(0)
		for _, row := range sec.StageRows {
			if row.Stage == "serve_queue_wait_ns" {
				p99 = row.P99Ns
			}
		}
		return fmt.Errorf("trace check failed: serve_queue_wait_ns p99 %d ns not ≥20%% under the PR 9 baseline (7340031 ns)", p99)
	}
	return nil
}

// checkTraces runs the acceptance checks over the scraped document.
func checkTraces(doc *scrapedDoc) TraceChecks {
	c := TraceChecks{OutlierStageSum: doc.Counters["outliers_telescoped"] >= 1}
	for _, d := range doc.Decisions {
		if d.Kind != "shed" || d.Reason == "" {
			continue
		}
		if d.ArrivalNs > 0 || d.Ratio > 0 {
			c.ShedDecisionWithInputs = true
		}
		if d.Weight > 0 || d.SojournNs > 0 {
			c.ShedDecisionWeighted = true
		}
		if c.ShedDecisionWithInputs && c.ShedDecisionWeighted {
			break
		}
	}
	return c
}
