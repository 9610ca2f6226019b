package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// /debug/traces: the flight recorder's read side. The JSON document is
// what cmd/loadgen -trace-http scrapes; ?format=text renders the same
// traces as a terminal table for eyeball debugging. Each trace view
// carries both stage offsets (from accept) and the consecutive-stage
// durations, which telescope to the wall time — the sum check the
// acceptance harness runs is exact by construction, not a property of
// lucky clock reads.

// stageDurations maps the stamp pairs to the named duration rows of a
// trace view. Escalate rows happen after the response (level 2 is
// asynchronous), so they are reported but excluded from wall-time
// telescoping, which runs accept → resp_write.
var stageDurations = []struct {
	name     string
	from, to trace.Stage
	wall     bool // part of the accept→resp_write telescoping sum
}{
	{"admit_ns", trace.StageAccept, trace.StageAdmit, true},
	{"enqueue_ns", trace.StageAdmit, trace.StageEnqueue, true},
	{"queue_wait_ns", trace.StageEnqueue, trace.StageCoalesce, true},
	{"coalesce_ns", trace.StageCoalesce, trace.StageDecodeStart, true},
	{"decode_ns", trace.StageDecodeStart, trace.StageDecodeEnd, true},
	{"resp_write_ns", trace.StageDecodeEnd, trace.StageRespWrite, true},
	{"escalate_wait_ns", trace.StageDecodeEnd, trace.StageEscalateStart, false},
	{"escalate_ns", trace.StageEscalateStart, trace.StageEscalateEnd, false},
}

// traceView is one request record as served by /debug/traces.
type traceView struct {
	Seq    uint64   `json:"seq"`
	ID     uint64   `json:"id"`
	D      int32    `json:"d"`
	EType  string   `json:"etype"`
	Kind   string   `json:"kind"`
	Flags  []string `json:"flags,omitempty"`
	WallNs int64    `json:"wall_ns"`
	// Offsets: stage name → nanoseconds after accept, stamped stages only.
	Offsets map[string]int64 `json:"offset_ns"`
	// Stages: named consecutive-stage durations; the wall-time rows
	// (everything but the escalate pair) sum exactly to WallNs.
	Stages map[string]int64 `json:"stage_ns"`
}

// decisionView is one shed / escalation-drop record with the admission
// controller inputs that caused it.
type decisionView struct {
	Seq       uint64  `json:"seq"`
	ID        uint64  `json:"id"`
	D         int32   `json:"d"`
	EType     string  `json:"etype"`
	Kind      string  `json:"kind"`
	Reason    string  `json:"reason"`
	Ratio     float64 `json:"ratio"`
	ArrivalNs float64 `json:"arrival_ns"`
	QueueLen  int32   `json:"queue_len"`
	// Weight is the shed class's service-cost weight at decision time;
	// SojournNs is the measured queue wait of a sojourn drop (0 for
	// admission-time sheds, which never entered the queue).
	Weight    float64 `json:"weight,omitempty"`
	SojournNs int64   `json:"sojourn_ns,omitempty"`
}

// exemplarView is one serve_decode_ns bucket exemplar plus whether its
// trace is still resolvable in the ring.
type exemplarView struct {
	obs.Exemplar
	Resolved bool `json:"resolved"`
}

// traceDoc is the full /debug/traces JSON body.
type traceDoc struct {
	SampleN      int                    `json:"sample_n"`
	Counters     trace.Counters         `json:"counters"`
	StageSummary map[string]obs.Summary `json:"stage_summary"`
	Exemplars    []exemplarView         `json:"exemplars,omitempty"`
	Traces       []traceView            `json:"traces"`
	Decisions    []decisionView         `json:"decisions"`
}

func etypeName(e uint8) string {
	return lattice.ErrorType(e).String()
}

func recordView(rec *trace.Record) traceView {
	v := traceView{
		Seq: rec.Seq, ID: rec.ID, D: rec.D, EType: etypeName(rec.EType),
		Kind:    rec.Kind.String(),
		Flags:   trace.FlagNames(rec.Flags),
		WallNs:  rec.WallNs,
		Offsets: map[string]int64{},
		Stages:  map[string]int64{},
	}
	acc := rec.TS[trace.StageAccept]
	for st := trace.StageAccept; st < trace.NumStages; st++ {
		if ts := rec.TS[st]; ts != 0 {
			v.Offsets[st.String()] = ts - acc
		}
	}
	for _, sd := range stageDurations {
		a, b := rec.TS[sd.from], rec.TS[sd.to]
		if a != 0 && b != 0 && b >= a {
			v.Stages[sd.name] = b - a
		}
	}
	return v
}

func decisionViewOf(rec *trace.Record) decisionView {
	return decisionView{
		Seq: rec.Seq, ID: rec.ID, D: rec.D, EType: etypeName(rec.EType),
		Kind: rec.Kind.String(), Reason: rec.Reason.String(),
		Ratio: rec.Ratio, ArrivalNs: rec.ArrivalNs, QueueLen: rec.QueueLen,
		Weight: rec.Weight, SojournNs: rec.SojournNs,
	}
}

// stageHists returns the per-stage histograms backing the summary
// block, keyed by metric name. Nil entries (tracing or escalation off)
// are skipped.
func (s *Server) stageHists() map[string]*obs.Histogram {
	return map[string]*obs.Histogram{
		"serve_decode_ns":        s.decodeNs,
		"serve_queue_wait_ns":    s.queueWaitNs,
		"serve_coalesce_ns":      s.coalesceNs,
		"serve_escalate_wait_ns": s.escWaitNs,
		"serve_sched_wait_ns":    s.schedWaitNs,
		"serve_escalate_ns":      s.escalateNs,
	}
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		http.Error(w, "tracing disabled (TraceSample < 0 or REPRO_TRACE_SAMPLE=off)",
			http.StatusNotFound)
		return
	}
	snap := s.tracer.Snapshot()
	doc := traceDoc{
		SampleN:      snap.SampleN,
		Counters:     snap.Counters,
		StageSummary: map[string]obs.Summary{},
		Traces:       make([]traceView, 0, len(snap.Traces)),
		Decisions:    make([]decisionView, 0, len(snap.Decisions)),
	}
	for name, h := range s.stageHists() {
		if h == nil {
			continue
		}
		if hs := h.Snapshot(); hs.Count > 0 {
			doc.StageSummary[name] = hs.Summary()
		}
	}
	for _, ex := range s.decodeNs.Exemplars() {
		doc.Exemplars = append(doc.Exemplars,
			exemplarView{Exemplar: ex, Resolved: snap.Resolve(ex.Seq) != nil})
	}
	for i := range snap.Traces {
		doc.Traces = append(doc.Traces, recordView(&snap.Traces[i]))
	}
	for i := range snap.Decisions {
		doc.Decisions = append(doc.Decisions, decisionViewOf(&snap.Decisions[i]))
	}

	if r.URL.Query().Get("format") == "text" {
		writeTraceText(w, &doc)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&doc)
}

// writeTraceText renders the document as a terminal table.
func writeTraceText(w http.ResponseWriter, doc *traceDoc) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "flight recorder: sample 1-in-%d  started=%d untraced=%d kept=%d outliers=%d decisions=%d\n\n",
		doc.SampleN, doc.Counters.Started, doc.Counters.Untraced,
		doc.Counters.Kept, doc.Counters.Outliers, doc.Counters.Decisions)

	names := make([]string, 0, len(doc.StageSummary))
	for name := range doc.StageSummary {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-24s %10s %12s %12s %12s\n", "stage histogram", "count", "p50", "p99", "max")
	for _, name := range names {
		sm := doc.StageSummary[name]
		fmt.Fprintf(w, "%-24s %10d %12d %12d %12d\n", name, sm.Count, sm.P50, sm.P99, sm.Max)
	}

	fmt.Fprintf(w, "\n%-6s %-8s %2s %2s %12s %12s %12s %12s %12s  %s\n",
		"seq", "id", "d", "e", "wall_ns", "queue_wait", "coalesce", "decode", "resp_write", "flags")
	for _, t := range doc.Traces {
		fmt.Fprintf(w, "%-6d %-8d %2d %2s %12d %12d %12d %12d %12d  %v\n",
			t.Seq, t.ID, t.D, t.EType, t.WallNs,
			t.Stages["queue_wait_ns"], t.Stages["coalesce_ns"],
			t.Stages["decode_ns"], t.Stages["resp_write_ns"], t.Flags)
	}

	if len(doc.Decisions) > 0 {
		fmt.Fprintf(w, "\n%-6s %-8s %2s %2s %-10s %-14s %10s %14s %10s %8s %12s\n",
			"seq", "id", "d", "e", "kind", "reason", "ratio", "arrival_ns", "queue_len", "weight", "sojourn_ns")
		for _, d := range doc.Decisions {
			fmt.Fprintf(w, "%-6d %-8d %2d %2s %-10s %-14s %10.3f %14.0f %10d %8.3f %12d\n",
				d.Seq, d.ID, d.D, d.EType, d.Kind, d.Reason, d.Ratio, d.ArrivalNs, d.QueueLen,
				d.Weight, d.SojournNs)
		}
	}
}
