// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed time and prints its metrics, the last line of
// standard output being one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics, timing calls into each
// layer's public functions from this package and reading the server's
// exported telemetry. WORKLOADS.md records why each workload exists and
// which layers it exercises. Run it through run.sh, which builds the
// server and this command from the enclosing tree:
//
//	bash perfbench/run.sh --workload serve_open --seed 3 --seconds 10 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

var mcWorkloads = map[string]mcWorkload{
	"mc_batch":    {name: "mc_batch", p: 0.05, batch: true, trials: 6000},
	"mc_twolevel": {name: "mc_twolevel", p: 0.08, batch: false, trials: 1500},
}

var serveWorkloads = map[string]serveWorkload{
	"serve_open": {name: "serve_open", tr: traffic{baseRate: 4000}, retries: 3},
	// serve_burst measures admission under overload: its client does not
	// retry, so every shed request counts as failed.
	"serve_burst": {name: "serve_burst", tr: traffic{
		baseRate: 4000, burstRate: 40000,
		burstEvery: time.Second, burstAt: 500 * time.Millisecond, burstLen: 100 * time.Millisecond,
	}},
}

type metricDef struct{ name, unit string }

// e2eDefs are the end-to-end metrics every untraced run reports. An op
// is one Monte-Carlo trial (mc_*) or one scheduled request (serve_*).
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MiB"},
}

// latencyDefs are the client-observed request metrics of the serve
// workloads. Untraced runs print them above the result without bounding
// them: on a shared 2-vCPU host their run-to-run spread is set by the
// host, not the program (WORKLOADS.md). Traced runs report them as layer
// metrics of the whole request path.
var latencyDefs = []metricDef{
	{"latency.p50_ms", "ms"},
	{"latency.p99_ms", "ms"},
	{"latency.slo_ratio", "ratio"},
}

// layerDefs are the per-layer metrics every traced run reports. A layer
// the workload bypasses reads 0.
var layerDefs = append(append([]metricDef{
	{"mc.steals", "1/round"},
	{"mc.parks", "1/round"},
	{"mc.trial_p50_us", "us"},
	{"mc.worker_busy_ratio", "ratio"},
	{"twolevel.esc_ratio", "ratio"},
	{"twolevel.l1_p50_us", "us"},
	{"twolevel.l2_p50_us", "us"},
	{"decodepool.mwpm_p50_us", "us"},
	{"surface.self_us_per_trial", "us"},
	{"sfq.batch_call_us", "us"},
	{"sfq.lanes_per_call", "count"},
	{"sfq.ns_per_lane_decode", "ns"},
	{"sfq.scalar_decode_us", "us"},
	{"sfq.cycles_per_decode", "count"},
	{"loadgen.lag_p50_us", "us"},
	{"loadgen.lag_p99_us", "us"},
	{"client.send_p50_us", "us"},
	{"client.send_p99_us", "us"},
	{"client.reqs_per_flush", "count"},
	{"client.retry_ratio", "ratio"},
	{"rtt.p50_us", "us"},
	{"rtt.p99_us", "us"},
	{"serve.queue_wait_p99_us", "us"},
	{"serve.coalesce_p99_us", "us"},
	{"serve.decode_p50_us", "us"},
	{"serve.lanes_per_batch", "count"},
	{"serve.shed_ratio", "ratio"},
	{"serve.sojourn_drop_ratio", "ratio"},
	{"sched.wait_p99_us", "us"},
	{"serve.esc_ratio", "ratio"},
	{"serve.escalate_p50_us", "us"},
	{"serve.esc_wait_p99_us", "us"},
	{"serve.esc_drop_ratio", "ratio"},
}, latencyDefs...),
	metricDef{"runtime.alloc_bytes_per_op", "B"},
	metricDef{"runtime.gc_cycles", "1/kop"},
	metricDef{"runtime.gc_pause_p99_us", "us"},
	metricDef{"trace.overhead_ops_pct", "%"},
	metricDef{"trace.overhead_cpu_pct", "%"},
	metricDef{"trace.overhead_latency_p50_pct", "%"},
)

// outcome is one run's measurements and checks.
type outcome struct {
	attempted, failed int64
	notes             []string // failed checks; any makes the run incorrect
	e2e, layers       map[string]float64
	info              map[string]any // extra facts for the run report
	config            map[string]any // workload parameters for the manifest
	spans             []spanRec
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, info: map[string]any{}, config: map[string]any{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// spanRec is one recorded span: a layer boundary crossing of one
// request or trial.
type spanRec struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the span file; the metrics use every sample.
const maxSpans = 200000

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	workload := flag.String("workload", "", "workload: mc_batch, mc_twolevel, serve_open or serve_burst")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	serveBin := flag.String("serve-bin", ".bench_build/serve", "cmd/serve binary built from the tree under test")
	outDir := flag.String("out", ".bench_build/out", "directory for run reports, spans and server logs")
	probe := flag.Bool("setup-probe", false, "set up an mc workload once, print its set-up seconds and exit")
	flag.Parse()

	_, isMC := mcWorkloads[*workload]
	_, isServe := serveWorkloads[*workload]
	if !isMC && !isServe {
		log.Fatalf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		log.Fatal("-seconds must be ≥ 1 and -trace 0 or 1")
	}
	if *probe {
		_, d, err := mcSetup(context.Background(), mcWorkloads[*workload], *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(d.Seconds())
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	traced := *traceFlag == 1
	dur := time.Duration(*seconds) * time.Second
	var o *outcome
	var err error
	if isMC {
		o, err = runMC(mcWorkloads[*workload], *seed, dur, traced)
	} else {
		o, err = runServe(serveWorkloads[*workload], *seed, dur, traced, *serveBin, *outDir)
	}
	if err != nil {
		log.Fatal(err)
	}
	base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *traceFlag))
	if err := writeReport(base+".json", *workload, *seed, *seconds, traced, o); err != nil {
		log.Fatal(err)
	}
	if traced {
		if err := writeSpans(base+".spans.jsonl", o.spans); err != nil {
			log.Fatal(err)
		}
	}
	if err := printResult(os.Stdout, *workload, traced, o); err != nil {
		log.Fatal(err)
	}
}

// runMC runs a Monte-Carlo workload. Untraced: set-up, then sweep rounds
// for dur. Traced: an untraced half and a traced half, the difference
// being the tracing overhead.
func runMC(w mcWorkload, seed int64, dur time.Duration, traced bool) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome()
	o.config = map[string]any{"p": w.p, "distances": mcDistances, "trials_per_point_per_round": w.trials,
		"kernel": map[bool]string{true: "sfq.BatchMesh (SWAR)", false: "twolevel(sfq.Mesh + MWPM)"}[w.batch]}
	rig, setup, err := mcSetup(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	o.config["workers"] = rig.workers
	var ph, tph *mcPhase
	if !traced {
		if ph, err = rig.measure(ctx, dur, false); err != nil {
			return nil, err
		}
	} else {
		if ph, err = rig.measure(ctx, dur/2, false); err != nil {
			return nil, err
		}
		if tph, err = rig.measure(ctx, dur/2, true); err != nil {
			return nil, err
		}
	}
	o.e2e = mcEndToEnd(ph)
	for _, p := range []*mcPhase{ph, tph} {
		if p == nil {
			continue
		}
		o.attempted += int64(p.trials)
		o.failed += int64(p.mismatch)
		if p.mismatch > 0 {
			o.fail("%d trials in points whose tally changed between identical rounds", p.mismatch)
		}
	}
	bad, notes, err := rig.checks(ctx)
	if err != nil {
		return nil, err
	}
	o.attempted += int64(len(mcDistances) * (goldenTrials + 2*crossTrials))
	o.failed += int64(bad)
	o.notes = append(o.notes, notes...)
	if o.e2e["peak_rss_mb"], err = peakRSSMB(0); err != nil {
		return nil, err
	}
	// Each set-up sample is a fresh process: geometry caches are
	// process-wide, so a second set-up in this process would be warm.
	setups := []float64{setup.Seconds()}
	for i := 1; i < setupRepeats; i++ {
		s, err := probeSetup(w.name, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	o.e2e["setup_s"] = median(setups)
	o.info["setup_samples_s"] = setups
	o.info["round_ops_per_s"], o.info["round_cpu_us_per_op"] = ph.series()
	o.info["round_tallies"] = ph.first
	if traced {
		mcLayers(o, rig.workers, ph, tph)
	}
	return o, nil
}

// probeSetup measures one cold set-up in a child process.
func probeSetup(workload string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, self, "-setup-probe", "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10)).Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// mcEndToEnd computes a phase's throughput and CPU cost per trial (the
// caller adds setup_s and peak_rss_mb) from its per-round figures. Each
// is the slow decile over rounds: identical rounds vary by up to 1.7x in
// cost within a run as the host's other tenants come and go, and the
// slow decile is the contended level that repeats from run to run, where
// the median follows how busy the neighbours happened to be
// (WORKLOADS.md).
func mcEndToEnd(ph *mcPhase) map[string]float64 {
	rate, cpu := ph.series()
	return map[string]float64{
		"ops_per_s":     samples(rate).sorted().pct(0.1),
		"cpu_us_per_op": samples(cpu).sorted().pct(0.9),
	}
}

// decompTolerance is how far the independently timed parts of a trial
// may exceed the trial's own time before the decomposition check fails.
const decompTolerance = 0.10

// mcLayers fills the per-layer metrics: engine-level ones from the
// untraced phase ph, decode-level ones from the traced phase tph.
func mcLayers(o *outcome, workers int, ph, tph *mcPhase) {
	L := o.layers
	var busy, roundWall, steals, parks float64
	var trialP50 []float64
	for _, r := range ph.rounds {
		busy += r.busyNs
		roundWall += float64(r.wall)
		steals += float64(r.steals)
		parks += float64(r.parks)
		trialP50 = append(trialP50, r.trialP50Us)
	}
	L["mc.trial_p50_us"] = median(trialP50)
	L["mc.worker_busy_ratio"] = busy / (float64(workers) * roundWall)
	if L["mc.worker_busy_ratio"] > 1+decompTolerance/10 {
		o.fail("summed trial time exceeds workers × wall (busy ratio %.3f)", L["mc.worker_busy_ratio"])
	}
	L["mc.steals"] = steals / float64(len(ph.rounds))
	L["mc.parks"] = parks / float64(len(ph.rounds))
	L["runtime.alloc_bytes_per_op"] = float64(ph.allocB) / float64(ph.trials)
	L["runtime.gc_cycles"] = float64(ph.gcCycles) / float64(ph.trials) * 1000

	te := mcEndToEnd(tph)
	overhead(L, o.e2e, te)

	// Traced phase: trial spans with their decode children.
	var trialNs, decodeNs, sampNs, l2Total float64
	var trials, lanes, cycles, decodes, esc int64
	var callUs, l1Us, l2Us samples
	nesting := 0
	for si, sh := range tph.shards {
		for ci, c := range sh.calls {
			trialNs += float64(c.end - c.start)
			trials += int64(c.n)
			o.addSpan(fmt.Sprintf("s%d.c%d", si, ci), "mc.trial", "", c.start, c.end)
		}
		for _, dr := range sh.decodes {
			id := fmt.Sprintf("s%d.c%d", si, dr.trial)
			dns := float64(dr.end - dr.start)
			decodeNs += dns
			lanes += int64(dr.lanes)
			cycles += dr.cycles
			decodes++
			if sh.replay != nil {
				// Replayed outside the trial call: sampling then decode.
				sampNs += float64(dr.start - dr.sampS)
				callUs = append(callUs, dns/1e3)
				o.addSpan(id, "surface.sample_replay", "", dr.sampS, dr.start)
				o.addSpan(id, "sfq.decode_batch_replay", "", dr.start, dr.end)
				continue
			}
			parent := sh.calls[dr.trial]
			if dr.start < parent.start || dr.end > parent.end {
				nesting++
			}
			o.addSpan(id, "twolevel.decode", "mc.trial", dr.start, dr.end)
			l2 := 0.0
			if dr.escalated == 1 {
				esc++
				l2 = float64(dr.l2e - dr.l2s)
				if dr.l2s < dr.start || dr.l2e > dr.end {
					nesting++
				}
				l2Total += l2
				l2Us = append(l2Us, l2/1e3)
				o.addSpan(id, "decodepool.mwpm", "twolevel.decode", dr.l2s, dr.l2e)
			}
			l1Us = append(l1Us, (dns-l2)/1e3)
		}
	}
	L["sfq.cycles_per_decode"] = float64(cycles) / float64(max(lanes, 1))
	L["surface.self_us_per_trial"] = (trialNs - decodeNs) / float64(trials) / 1e3
	if tph.shards[0].replay != nil {
		L["sfq.batch_call_us"] = callUs.sorted().pct(0.5)
		L["sfq.lanes_per_call"] = float64(lanes) / float64(decodes)
		L["sfq.ns_per_lane_decode"] = decodeNs / float64(lanes)
		// The replay times sampling and decode outside the trial; the two
		// must fit inside the trial's own time.
		if parts := sampNs + decodeNs; parts > trialNs*(1+decompTolerance) {
			o.fail("replayed sampling + decode (%.0f ns) exceed trial time (%.0f ns) by over %.0f%%",
				parts, trialNs, decompTolerance*100)
		}
		o.info["decomposition"] = map[string]float64{
			"trial_us_per_trial": trialNs / float64(trials) / 1e3, "sample_us_per_trial": sampNs / float64(trials) / 1e3,
			"decode_us_per_trial": decodeNs / float64(trials) / 1e3, "tolerance": decompTolerance,
		}
	} else {
		L["twolevel.esc_ratio"] = float64(esc) / float64(decodes)
		l1 := l1Us.sorted().pct(0.5)
		L["twolevel.l1_p50_us"], L["sfq.scalar_decode_us"] = l1, l1
		l2 := l2Us.sorted().pct(0.5)
		L["twolevel.l2_p50_us"], L["decodepool.mwpm_p50_us"] = l2, l2
		if nesting > 0 || decodes != trials {
			o.fail("span nesting: %d decode spans outside their trial, %d decodes for %d trials", nesting, decodes, trials)
		}
		o.info["decomposition"] = map[string]float64{
			"trial_us_per_trial": trialNs / float64(trials) / 1e3, "self_us_per_trial": (trialNs - decodeNs) / float64(trials) / 1e3,
			"l1_us_per_trial": (decodeNs - l2Total) / float64(trials) / 1e3, "l2_us_per_trial": l2Total / float64(trials) / 1e3,
		}
	}
}

func (o *outcome) addSpan(trace, name, parent string, start, end int64) {
	if len(o.spans) < maxSpans {
		o.spans = append(o.spans, spanRec{Trace: trace, Name: name, Parent: parent, Start: start, End: end})
	}
}

// runServe runs a serve workload against a cmd/serve process.
func runServe(w serveWorkload, seed int64, dur time.Duration, traced bool, bin, outDir string) (*outcome, error) {
	// The generator is one process on one processor, like the server.
	runtime.GOMAXPROCS(1)
	o := newOutcome()
	o.config = map[string]any{"distances": serveDistances, "p": serveP, "conns": serveConns,
		"base_rate": w.tr.baseRate, "burst_rate": w.tr.burstRate, "burst_every_ms": w.tr.burstEvery.Milliseconds(),
		"burst_at_ms": w.tr.burstAt.Milliseconds(), "burst_len_ms": w.tr.burstLen.Milliseconds(),
		"syndromes_per_distance": synPerDistance, "slo_ms": sloLimit.Milliseconds(),
		"server_args": "-d 5,9,13 -escalate (other flags default)"}
	gen, err := generate(w.name, w.tr, seed, dur)
	if err != nil {
		return nil, err
	}
	var srv *server
	var clients []*serve.Client
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		s, cs, d, err := setupServe(bin, outDir, i, traced, gen)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRepeats-1 {
			closeAll(cs)
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv, clients = s, cs
	}
	defer func() {
		closeAll(clients)
		srv.stop()
	}()
	var man obs.Manifest
	if err := scrapeJSON(srv.http, "/manifest.json", &man); err != nil {
		return nil, err
	}
	o.config["server_gomaxprocs"] = man.GOMAXPROCS
	o.config["server_git_sha"] = man.GitSHA

	phases := [][]arrival{gen.arrivals}
	spans := []time.Duration{dur}
	if traced {
		half := dur / 2
		var a, b []arrival
		for _, x := range gen.arrivals {
			if x.at < half {
				a = append(a, x)
			} else {
				x.at -= half
				b = append(b, x)
			}
		}
		phases, spans = [][]arrival{a, b}, []time.Duration{half, dur - half}
	}
	var e2e []map[string]float64
	var last *driveResult
	var before, after serverSnap
	for i, arrs := range phases {
		if before, err = srv.snap(); err != nil {
			return nil, err
		}
		res := drive(clients, gen, arrs, w.retries, drainTimeout)
		if res.timedOut {
			if clients, err = dialAll(srv.tcp); err != nil {
				return nil, err
			}
		}
		if after, err = srv.snap(); err != nil {
			return nil, err
		}
		c := res.counts()
		o.attempted += int64(c.Sent)
		o.failed += int64(c.failed())
		if c.broken() {
			o.fail("phase %d: %d wrong corrections, %d lost responses, %d requests in no outcome", i, c.Wrong, c.Timeout, c.Pending)
		}
		if got := counterDelta(before.prom, after.prom, "serve_requests_total"); int(got) != c.Sent-c.Error+c.Retries {
			o.fail("phase %d: server counted %.0f requests, benchmark sent %d", i, got, c.Sent-c.Error+c.Retries)
		}
		if a, b := before.prom.values["sfq_pool_outstanding"], after.prom.values["sfq_pool_outstanding"]; a != b {
			o.fail("phase %d: sfq_pool_outstanding moved %v → %v", i, a, b)
		}
		t := res.times()
		if t.negative > 0 || t.decompErr > 0.01 {
			o.fail("phase %d: lag+send+rtt ≠ latency (%d negative components, max error %.3f µs)", i, t.negative, t.decompErr)
		}
		e2e = append(e2e, map[string]float64{
			"ops_per_s":         float64(c.OK) / spans[i].Seconds(),
			"cpu_us_per_op":     float64((after.cpu - before.cpu).Microseconds()) / float64(c.Sent),
			"latency.p50_ms":    t.latency.pct(0.50) / 1e3,
			"latency.p99_ms":    t.latency.pct(0.99) / 1e3,
			"latency.slo_ratio": float64(t.sloOK) / float64(c.Sent),
		})
		q, v, _ := t.latency.tail()
		o.info[fmt.Sprintf("phase%d", i)] = map[string]any{
			"counts": c, "latency_samples": len(t.latency), "latency_tail_q": q, "latency_tail_ms": v / 1e3,
			"max_decomposition_error_us": t.decompErr,
		}
		last = res
	}
	o.e2e = e2e[0]
	if o.e2e["peak_rss_mb"], err = peakRSSMB(srv.cmd.Process.Pid); err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = median(setups)
	o.info["setup_samples_s"] = setups
	if traced {
		serveLayers(o, last, before, after, e2e[0], e2e[1])
	}
	closeAll(clients)
	clients = nil
	if err := srv.stop(); err != nil {
		o.fail("%v", err)
	}
	return o, nil
}

// serveLayers fills the per-layer metrics of the traced phase res, with
// server-side figures from the scrape deltas around it.
func serveLayers(o *outcome, res *driveResult, before, after serverSnap, plain, traced map[string]float64) {
	L := o.layers
	t := res.times()
	c := res.counts()
	L["loadgen.lag_p50_us"], L["loadgen.lag_p99_us"] = t.lag.pct(0.5), t.lag.pct(0.99)
	L["client.send_p50_us"], L["client.send_p99_us"] = t.send.pct(0.5), t.send.pct(0.99)
	L["rtt.p50_us"], L["rtt.p99_us"] = t.rtt.pct(0.5), t.rtt.pct(0.99)
	L["client.reqs_per_flush"] = float64(c.Sent+c.Retries) / float64(max(res.flushes, 1))
	L["client.retry_ratio"] = float64(c.Retries) / float64(c.Sent)
	h := func(name string) histDelta { return deltaHist(before.prom, after.prom, name) }
	d := func(name string) float64 { return counterDelta(before.prom, after.prom, name) }
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	L["serve.queue_wait_p99_us"] = h("serve_queue_wait_ns").quantile(0.99) / 1e3
	L["serve.coalesce_p99_us"] = h("serve_coalesce_ns").quantile(0.99) / 1e3
	L["serve.decode_p50_us"] = h("serve_decode_ns").quantile(0.5) / 1e3
	L["serve.lanes_per_batch"] = h("serve_batch_lanes").mean()
	L["serve.shed_ratio"] = ratio(d("serve_shed_total"), d("serve_requests_total"))
	L["serve.sojourn_drop_ratio"] = ratio(d("serve_sojourn_dropped_total"), d("serve_requests_total"))
	L["sched.wait_p99_us"] = h("serve_sched_wait_ns").quantile(0.99) / 1e3
	L["serve.esc_ratio"] = ratio(float64(c.Escalated), float64(c.OK+c.Wrong))
	L["serve.escalate_p50_us"] = h("serve_escalate_ns").quantile(0.5) / 1e3
	L["serve.esc_wait_p99_us"] = h("serve_escalate_wait_ns").quantile(0.99) / 1e3
	L["serve.esc_drop_ratio"] = ratio(d("serve_escalate_dropped_total"), d("serve_escalations_total")+d("serve_escalate_dropped_total"))
	L["runtime.gc_pause_p99_us"] = h("go_gc_pause_ns").quantile(0.99) / 1e3
	L["runtime.alloc_bytes_per_op"] = (after.mem.TotalAlloc - before.mem.TotalAlloc) / float64(c.Sent)
	L["runtime.gc_cycles"] = (after.mem.NumGC - before.mem.NumGC) / float64(c.Sent) * 1000
	overhead(L, plain, traced)
	for _, d := range latencyDefs {
		L[d.name] = traced[d.name]
	}
	for i, rec := range res.recs {
		if rec.status == stPending || len(o.spans)+4 > maxSpans {
			continue
		}
		id := strconv.Itoa(i)
		o.addSpan(id, "request", "", rec.sched, rec.done)
		o.addSpan(id, "loadgen.lag", "request", rec.sched, rec.disp)
		o.addSpan(id, "client.send", "request", rec.disp, rec.sent)
		o.addSpan(id, "rtt", "request", rec.sent, rec.done)
	}
}

// overhead fills the trace.overhead_* metrics: how much worse the traced
// half measured than the untraced half, in percent.
func overhead(L, plain, traced map[string]float64) {
	pct := func(worse float64, base float64) float64 {
		if base == 0 {
			return 0
		}
		return worse / base * 100
	}
	L["trace.overhead_ops_pct"] = pct(plain["ops_per_s"]-traced["ops_per_s"], plain["ops_per_s"])
	L["trace.overhead_cpu_pct"] = pct(traced["cpu_us_per_op"]-plain["cpu_us_per_op"], plain["cpu_us_per_op"])
	L["trace.overhead_latency_p50_pct"] = pct(traced["latency.p50_ms"]-plain["latency.p50_ms"], plain["latency.p50_ms"])
}

// writeReport writes the run's manifest, counts and checks.
func writeReport(path, workload string, seed int64, seconds int, traced bool, o *outcome) error {
	cfg := map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
		"nproc": runtime.NumCPU(), "benchmark_gomaxprocs": runtime.GOMAXPROCS(0), "cpu_model": cpuModel(),
	}
	for k, v := range o.config {
		cfg[k] = v
	}
	doc := map[string]any{
		"manifest":  obs.NewManifest(cfg),
		"correct":   len(o.notes) == 0,
		"attempted": o.attempted, "failed": o.failed, "checks_failed": o.notes,
		"end_to_end": o.e2e, "per_layer": o.layers, "info": o.info,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeSpans writes the recorded spans as JSON lines.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints one "name value unit" line per metric, the run's
// counts and failed checks, then the result object as the last line.
func printResult(w io.Writer, workload string, traced bool, o *outcome) error {
	defs, vals := e2eDefs, o.e2e
	if traced {
		defs, vals = layerDefs, o.layers
	}
	metrics := map[string]metricOut{}
	for _, d := range defs {
		metrics[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
		fmt.Fprintf(w, "%s %-32s %14.6g %s\n", workload, d.name, vals[d.name], d.unit)
	}
	if _, ok := o.e2e["latency.p50_ms"]; ok && !traced {
		for _, d := range latencyDefs {
			fmt.Fprintf(w, "%s %-32s %14.6g %s (unbounded)\n", workload, d.name, o.e2e[d.name], d.unit)
		}
	}
	var keys []string
	for k := range o.info {
		if strings.HasPrefix(k, "phase") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %s %+v\n", workload, k, o.info[k].(map[string]any)["counts"])
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "%s CHECK FAILED: %s\n", workload, n)
	}
	b, err := json.Marshal(map[string]any{
		"correct": len(o.notes) == 0, "attempted": o.attempted, "failed": o.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
