// Command serve runs the streaming decode service: the SWAR batch mesh
// decoders of internal/sfq behind a persistent framed-TCP protocol and
// a JSON HTTP endpoint, with admission control driven by the paper's
// backlog model over the live service-latency histograms. The telemetry
// surface (/metrics, /metrics.json, /manifest.json, /debug/pprof) rides
// the same HTTP listener.
//
// Usage:
//
//	serve [-tcp 127.0.0.1:9000] [-http 127.0.0.1:9090] [-d 3,5,7,9]
//	      [-variant final] [-workers 1] [-lanes 0] [-queue 64]
//	      [-window 32] [-addr-file PATH]
//	      [-escalate] [-esc-hot 4] [-esc-queue 256] [-esc-workers 1]
//	      [-trace-sample 0] [-trace-depth 256] [-runtime-metrics]
//	      [-max-queue-wait 3ms]
//
// -max-queue-wait is the CoDel-style sojourn bound: under sustained
// backlog, queued requests older than the bound are dropped
// (StatusShed) while fresher work remains, keeping the queue-wait tail
// near the bound instead of QueueDepth × the service time. 0 disables
// dropping. Admission is cost-weighted: overload sheds cheap
// low-distance traffic before expensive high-distance traffic, in
// proportion to measured decode cost.
//
// -escalate turns on two-level decoding: responses still carry the
// level-1 mesh correction at mesh latency, but suspect ones are flagged
// on the wire and re-decoded asynchronously by exact MWPM, with the
// two-tier latency mixture driving admission control.
//
// -trace-sample controls the request-lifecycle flight recorder served
// at /debug/traces: 0 defers to REPRO_TRACE_SAMPLE (default 1-in-16),
// N > 0 samples 1 in N, and -1 disables tracing. -runtime-metrics (or
// REPRO_RUNTIME_METRICS=1) bridges the Go runtime's GC-pause and
// scheduler-latency telemetry into the registry, so serve-side GC
// stalls are distinguishable from decode stalls on the same surface.
//
// With -tcp/-http at ":0" the kernel picks the ports; -addr-file writes
// the bound addresses ("tcp ADDR" and "http ADDR" lines) so scripts —
// ci.sh's loadgen run — can find them.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/knob"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sfq"
	"repro/internal/twolevel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	if err := knob.CheckEnv(); err != nil {
		log.Fatal(err)
	}

	tcpAddr := flag.String("tcp", "127.0.0.1:0", "framed-TCP listen address")
	httpAddr := flag.String("http", "127.0.0.1:0", "HTTP listen address (decode + telemetry)")
	dList := flag.String("d", "3,5,7,9", "comma-separated code distances to serve")
	variant := flag.String("variant", "final", "mesh design variant (baseline|resets|boundaries|final)")
	workers := flag.Int("workers", 1, "decode workers per (distance, error type) queue")
	lanes := flag.Int("lanes", 0, "batch lane width (0 = pooled maximum for each distance)")
	queue := flag.Int("queue", 64, "per-queue depth before hard shedding")
	window := flag.Int("window", 32, "per-connection in-flight request window")
	evalMs := flag.Int("eval-ms", 50, "controller evaluation period (ms)")
	pprof := flag.Bool("pprof", true, "expose /debug/pprof on the HTTP listener")
	addrFile := flag.String("addr-file", "", "write bound addresses to this file")
	escalate := flag.Bool("escalate", false, "two-level mode: flag and asynchronously re-decode suspect corrections with exact MWPM")
	escHot := flag.Int("esc-hot", 0, "escalate when the initial hot-check count reaches this (0 = stats triggers only)")
	escQueue := flag.Int("esc-queue", 256, "escalation queue depth (full queue drops, never blocks level 1)")
	escWorkers := flag.Int("esc-workers", 1, "level-2 MWPM workers")
	traceSample := flag.Int("trace-sample", 0, "trace 1-in-N requests (0 = REPRO_TRACE_SAMPLE or 16, -1 = off)")
	traceDepth := flag.Int("trace-depth", 256, "flight-recorder ring depth (traces and decisions)")
	maxQueueWait := flag.Duration("max-queue-wait", 3*time.Millisecond,
		"sojourn bound: drop queued requests older than this while more work is queued (0 = never drop)")
	runtimeMetrics := flag.Bool("runtime-metrics", knob.Bool("REPRO_RUNTIME_METRICS"),
		"bridge runtime/metrics (GC pauses, sched latency, goroutines, heap) into the registry")
	flag.Parse()

	v, ok := sfq.VariantByName(*variant)
	if !ok {
		log.Fatalf("unknown variant %q", *variant)
	}
	var ds []int
	for _, f := range strings.Split(*dList, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || d < 3 || d%2 == 0 {
			log.Fatalf("bad distance %q (want odd, >= 3)", f)
		}
		ds = append(ds, d)
	}

	obs.Default().SetManifest(obs.NewManifest(map[string]any{
		"variant": *variant, "distances": ds, "workers": *workers, "lanes": *lanes,
		"queue": *queue, "window": *window,
		"escalate": *escalate, "esc_hot": *escHot,
		"esc_queue": *escQueue, "esc_workers": *escWorkers,
		"trace_sample": *traceSample, "trace_depth": *traceDepth,
		"runtime_metrics":   *runtimeMetrics,
		"max_queue_wait_ns": int64(*maxQueueWait),
	}))
	if *runtimeMetrics {
		bridge := obs.StartRuntimeBridge(obs.Default(), time.Second)
		defer bridge.Close()
	}
	var escPol *twolevel.Policy
	if *escalate {
		p := twolevel.DefaultPolicy()
		p.HotThreshold = *escHot
		escPol = &p
	}
	s := serve.New(serve.Config{
		Variant:        v,
		Distances:      ds,
		Workers:        *workers,
		Lanes:          *lanes,
		QueueDepth:     *queue,
		Window:         *window,
		EvalEvery:      time.Duration(*evalMs) * time.Millisecond,
		Escalate:       *escalate,
		EscalatePolicy: escPol,
		EscQueueDepth:  *escQueue,
		EscWorkers:     *escWorkers,
		TraceSample:    *traceSample,
		TraceDepth:     *traceDepth,
		MaxQueueWait:   *maxQueueWait,
	})

	tcpLn, err := net.Listen("tcp", *tcpAddr)
	if err != nil {
		log.Fatal(err)
	}
	httpLn, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		log.Fatal(err)
	}
	if *addrFile != "" {
		body := fmt.Sprintf("tcp %s\nhttp %s\n", tcpLn.Addr(), httpLn.Addr())
		if err := os.WriteFile(*addrFile, []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("framed TCP on %s, HTTP on %s, variant %s, d %v",
		tcpLn.Addr(), httpLn.Addr(), v.Name(), ds)

	hs := &http.Server{Handler: s.Handler(*pprof), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 2)
	go func() { errc <- s.Serve(tcpLn) }()
	go func() { errc <- hs.Serve(httpLn) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		log.Printf("%v: draining", got)
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			log.Printf("listener failed: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		log.Printf("drain: %v", err)
	}
	hs.Close()
}
