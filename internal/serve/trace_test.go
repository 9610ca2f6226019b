package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/sfq"
	"repro/internal/twolevel"
)

// TestTraceNoTraceBitIdentity is the determinism guard for the flight
// recorder: tracing observes the pipeline, it must never steer it. The
// same workload through a trace-everything server and a tracing-off
// server yields bit-identical corrections, cycle counts and escalation
// verdicts.
func TestTraceNoTraceBitIdentity(t *testing.T) {
	syns := confSyndromes(5, lattice.ZErrors, confTrials(64, 16))
	run := func(traceSample int) []*Response {
		pool := sfq.NewPool(sfq.Final)
		s := New(Config{
			Variant: sfq.Final, Distances: []int{5}, Pool: pool,
			Registry: obs.NewRegistry(), Escalate: true,
			TraceSample: traceSample,
		})
		defer s.Close()
		out := make([]*Response, len(syns))
		for i, syn := range syns {
			out[i] = s.Decode(5, lattice.ZErrors, uint64(i), syn)
		}
		return out
	}
	traced, plain := run(1), run(-1)
	for i := range traced {
		a, b := traced[i], plain[i]
		if a.Status != b.Status || a.Cycles != b.Cycles || a.Escalated != b.Escalated ||
			len(a.Qubits) != len(b.Qubits) {
			t.Fatalf("request %d diverges under tracing: %+v vs %+v", i, a, b)
		}
		for j := range a.Qubits {
			if a.Qubits[j] != b.Qubits[j] {
				t.Fatalf("request %d qubit %d: %d vs %d", i, j, a.Qubits[j], b.Qubits[j])
			}
		}
	}
}

// TestDebugTracesEndpoint pins the /debug/traces read side: after
// traffic on a trace-everything server, the JSON document holds
// committed traces whose wall rows of trace.Durations telescope exactly
// to the recorded wall time (and every outlier counted as telescoping
// at finalize), stage histograms, and working exemplar links; the text
// format renders; a tracing-off server 404s.
func TestDebugTracesEndpoint(t *testing.T) {
	pool := sfq.NewPool(sfq.Final)
	s := New(Config{
		Variant: sfq.Final, Distances: []int{5}, Pool: pool,
		Registry: obs.NewRegistry(), TraceSample: 1,
	})
	defer s.Close()
	syns := confSyndromes(5, lattice.ZErrors, 32)
	for i, syn := range syns {
		if resp := s.Decode(5, lattice.ZErrors, uint64(i), syn); resp.Status != StatusOK {
			t.Fatalf("decode %d: %+v", i, resp)
		}
	}

	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces: %d", resp.StatusCode)
	}
	var doc struct {
		SampleN  int `json:"sample_n"`
		Counters struct {
			Started    uint64 `json:"started"`
			Kept       uint64 `json:"kept"`
			Outliers   uint64 `json:"outliers"`
			Telescoped uint64 `json:"outliers_telescoped"`
		} `json:"counters"`
		StageSummary map[string]obs.Summary `json:"stage_summary"`
		Exemplars    []struct {
			Seq      uint64 `json:"trace_seq"`
			Resolved bool   `json:"resolved"`
		} `json:"exemplars"`
		Traces []struct {
			Seq    uint64           `json:"seq"`
			Kind   string           `json:"kind"`
			Flags  []string         `json:"flags"`
			WallNs int64            `json:"wall_ns"`
			Stages map[string]int64 `json:"stage_ns"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.SampleN != 1 || doc.Counters.Started != 32 || doc.Counters.Kept == 0 {
		t.Fatalf("document header: sample=%d started=%d kept=%d",
			doc.SampleN, doc.Counters.Started, doc.Counters.Kept)
	}
	if len(doc.Traces) == 0 {
		t.Fatal("no traces committed")
	}
	outliers := 0
	for _, tr := range doc.Traces {
		if tr.Kind != "request" {
			continue
		}
		sum := int64(0)
		for _, sd := range trace.Durations {
			if sd.Wall {
				sum += tr.Stages[sd.Name]
			}
		}
		if sum != tr.WallNs {
			t.Fatalf("trace %d: stage durations sum %d != wall %d", tr.Seq, sum, tr.WallNs)
		}
		for _, f := range tr.Flags {
			if f == "outlier" {
				outliers++
			}
		}
	}
	if outliers == 0 {
		t.Fatal("no outlier-flagged trace: the running maximum must always be kept")
	}
	if doc.Counters.Telescoped != doc.Counters.Outliers {
		t.Fatalf("finalize counted %d of %d outliers as telescoping, want all",
			doc.Counters.Telescoped, doc.Counters.Outliers)
	}
	for _, name := range []string{"serve_decode_ns", "serve_queue_wait_ns", "serve_coalesce_ns"} {
		if doc.StageSummary[name].Count == 0 {
			t.Errorf("stage summary %s is empty", name)
		}
	}
	if len(doc.Exemplars) == 0 {
		t.Fatal("no exemplars on serve_decode_ns")
	}
	resolved := false
	for _, ex := range doc.Exemplars {
		if ex.Seq == 0 {
			t.Fatal("exemplar with seq 0 (reserved for untraced)")
		}
		resolved = resolved || ex.Resolved
	}
	if !resolved {
		t.Error("no exemplar resolves to a live trace at SampleN 1")
	}

	txt, err := http.Get(ts.URL + "/debug/traces?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer txt.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, txt.Body); err == nil && txt.StatusCode != http.StatusOK {
		t.Fatalf("text format: %d", txt.StatusCode)
	}

	// Tracing off: the endpoint 404s instead of serving an empty doc.
	off := New(Config{
		Variant: sfq.Final, Distances: []int{3}, Pool: pool,
		Registry: obs.NewRegistry(), TraceSample: -1,
	})
	defer off.Close()
	offTS := httptest.NewServer(off.Handler(false))
	defer offTS.Close()
	r404, err := http.Get(offTS.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("tracing-off /debug/traces: %d, want 404", r404.StatusCode)
	}
}

// TestStageHistogramsUntraced pins that serve observes its stage
// histograms at the source, not through the flight recorder: with
// tracing off, queue wait and coalesce count every decoded request, and
// the escalation wait counts every level-2 re-decode that ran.
func TestStageHistogramsUntraced(t *testing.T) {
	reg := obs.NewRegistry()
	pol := twolevel.Policy{HotThreshold: 1} // escalate every non-empty syndrome
	s := New(Config{
		Variant: sfq.Final, Distances: []int{5}, Pool: sfq.NewPool(sfq.Final),
		Registry: reg, TraceSample: -1, Escalate: true, EscalatePolicy: &pol,
	})
	syns := confSyndromes(5, lattice.ZErrors, 32)
	for i, syn := range syns {
		if resp := s.Decode(5, lattice.ZErrors, uint64(i), syn); resp.Status != StatusOK {
			t.Fatalf("decode %d: %+v", i, resp)
		}
	}
	s.Close() // drains level 2
	if s.Tracer() != nil {
		t.Fatal("TraceSample -1 built a recorder")
	}
	for _, name := range []string{"serve_queue_wait_ns", "serve_coalesce_ns"} {
		if got := reg.Histogram(name).Count(); got != uint64(len(syns)) {
			t.Errorf("%s counts %d, want %d decoded requests", name, got, len(syns))
		}
	}
	ran := reg.Counter("serve_escalations_total").Load()
	if ran == 0 {
		t.Fatal("no escalation ran under a threshold-1 policy")
	}
	if got := reg.Histogram("serve_escalate_wait_ns").Count(); got != uint64(ran) {
		t.Errorf("serve_escalate_wait_ns counts %d, want %d level-2 re-decodes", got, ran)
	}
}

// TestShedDecisionCapture pins the always-on decision ring end to end:
// controller sheds and queue-full sheds both commit records carrying
// the admission-controller inputs.
func TestShedDecisionCapture(t *testing.T) {
	pool := sfq.NewPool(sfq.Final)
	s := New(Config{
		Variant: sfq.Final, Distances: []int{3}, Pool: pool,
		Registry: obs.NewRegistry(), TraceSample: 1,
		EvalEvery: time.Hour, // the test drives the controller itself
	})
	defer s.Close()
	syn := confSyndromes(3, lattice.ZErrors, 3)[2]

	// Two healthy decodes tick the arrival meter so the captured
	// decision has a live arrival estimate.
	for i := 0; i < 2; i++ {
		if resp := s.Decode(3, lattice.ZErrors, uint64(i), syn); resp.Status != StatusOK {
			t.Fatalf("healthy decode: %+v", resp)
		}
	}
	s.ctl.Update(10, snapFor(1e9, 64)) // divergent signal: shed mode
	if resp := s.Decode(3, lattice.ZErrors, 99, syn); resp.Status != StatusShed {
		t.Fatalf("decode under divergence: %+v, want shed", resp)
	}

	snap := s.Tracer().Snapshot()
	if len(snap.Decisions) == 0 {
		t.Fatal("no decision record for a controller shed")
	}
	dec := snap.Decisions[0]
	if dec.Kind != trace.KindShed || dec.Reason != trace.ReasonController || dec.ID != 99 {
		t.Fatalf("decision: kind %v reason %v id %d", dec.Kind, dec.Reason, dec.ID)
	}
	if dec.Ratio <= 0 || dec.ArrivalNs <= 0 {
		t.Fatalf("decision lost its controller inputs: ratio %v arrival %v", dec.Ratio, dec.ArrivalNs)
	}
	for _, rec := range snap.Traces {
		if rec.ID == 99 {
			t.Fatalf("the shed request committed a trace record: %+v", rec)
		}
	}
}

// TestTraceScrapeHammer races the flight recorder's read side against
// live traffic: concurrent decodes (with escalation on, so level-2
// references are in play) while /debug/traces is scraped continuously.
// Run under -race this is the data-race proof for the whole span
// lifecycle; race-off it still checks the scrape never breaks.
func TestTraceScrapeHammer(t *testing.T) {
	pool := sfq.NewPool(sfq.Final)
	s := New(Config{
		Variant: sfq.Final, Distances: []int{3, 5}, Pool: pool,
		Registry: obs.NewRegistry(), TraceSample: 2,
		Escalate: true, EscQueueDepth: 4, TraceDepth: 64,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	const clients = 8
	trials := confTrials(64, 16)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d := []int{3, 5}[c%2]
			syns := confSyndromes(d, lattice.ZErrors, trials)
			for i, syn := range syns {
				resp := s.Decode(d, lattice.ZErrors, uint64(c*1000+i), syn)
				if resp.Status != StatusOK && resp.Status != StatusShed {
					t.Errorf("client %d req %d: %+v", c, i, resp)
					return
				}
			}
		}(c)
	}
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/debug/traces")
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			var doc json.RawMessage
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Errorf("scrape decode: %v", err)
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	snap := s.Tracer().Snapshot()
	if snap.Counters.Started == 0 || snap.Counters.Finalized == 0 {
		t.Fatalf("no spans traced under the hammer: %+v", snap.Counters)
	}
	// Every span must have come home: finalized plus still-free equals
	// started, or references leaked.
	if snap.Counters.Finalized+snap.Counters.Untraced < snap.Counters.Started {
		t.Fatalf("span leak: %+v", snap.Counters)
	}
}
